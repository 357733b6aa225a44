// Durable crash recovery (write-ahead journal, §4.2 "stable storage"):
// graceful restart, the crash-point fault-injection campaign, recovery
// determinism, transport-level suspicion of unreachable peers, and the
// replica snapshot as the one durable image of the agreed state.
//
// The campaign sweeps every named crash point in replica.cpp (see
// src/b2b/recovery.hpp) at the party whose protocol role passes that
// point — the proposer for propose/response/decide points, a responder
// for respond/decide-recv points — kills the party there, restarts it
// from its journal and asserts:
//   safety   — no divergent validated state: after recovery all parties
//              hold identical agreed tuples, every evidence hash chain
//              verifies, and no violations were recorded;
//   liveness — the interrupted run terminates: the deployment converges
//              (and goes quiescent) after recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "b2b/arbiter.hpp"
#include "b2b/federation.hpp"
#include "b2b/recovery.hpp"
#include "common/error.hpp"
#include "store/journal.hpp"
#include "wire/codec.hpp"
#include "tests/support/anchoring.hpp"
#include "tests/support/crash_points.hpp"
#include "tests/support/runtime_param.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

// The campaign's point lists live in tests/support/crash_points.hpp,
// shared with the multi-object campaign in sharding_test.cpp. In this
// file the crashers are: "alpha" for proposer points, "beta" for
// responder points, "gamma" (the rotating sponsor of the trio) for the
// proposer points of a membership run, "beta" for its responder points,
// "delta" for the subject point, "alpha" (the blocked proposer) for
// termination points.
using test::campaign_seed;
using test::kProposerPoints;
using test::kResponderPoints;
using test::kSubjectPoint;
using test::kTerminationPoints;

namespace fs = std::filesystem;

const ObjectId kObj{"ledger"};

std::string sanitized(const std::string& point) {
  return test::sanitized_point(point);
}

std::string fresh_journal_root(const std::string& tag) {
  fs::path root = fs::temp_directory_path() / ("b2b_recovery_" + tag);
  fs::remove_all(root);
  return root.string();
}

Federation::Options journaled_options(const std::string& tag,
                                      RuntimeKind kind, std::uint64_t seed) {
  Federation::Options options = test::runtime_options(kind, seed);
  options.journal_root = fresh_journal_root(tag);
  if (kind != RuntimeKind::kSim) {
    // Real-time probe cadence: keep the worst case (probe-driven
    // recovery) well inside the test budget.
    options.run_probe_interval_micros = 200'000;
  }
  return options;
}

/// Three organisations sharing one journaled object.
struct Parties {
  // Registers are declared before (destroyed after) the federation, so
  // the runtime's delivery threads stop before the objects they write
  // into die.
  TestRegister alpha_obj;
  TestRegister beta_obj;
  TestRegister gamma_obj;
  Federation fed;

  Parties(const std::string& tag, RuntimeKind kind, std::uint64_t seed)
      : fed({"alpha", "beta", "gamma"}, journaled_options(tag, kind, seed)) {
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.register_object("gamma", kObj, gamma_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta", "gamma"},
                         bytes_of("genesis"));
  }

  TestRegister& obj(const std::string& name) {
    if (name == "alpha") return alpha_obj;
    if (name == "beta") return beta_obj;
    return gamma_obj;
  }

  /// Agree an initial state so every journal holds a snapshot and the
  /// deployment has validated state a faulty recovery could diverge from.
  void warm_up() {
    alpha_obj.value = bytes_of("warm");
    RunHandle h =
        fed.coordinator("alpha").propagate_new_state(kObj,
                                                     alpha_obj.get_state());
    ASSERT_TRUE(fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    fed.settle();
  }

  void check_safety() {
    const StateTuple& agreed =
        fed.coordinator("alpha").replica(kObj).agreed_tuple();
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = fed.coordinator(name);
      EXPECT_EQ(coord.replica(kObj).agreed_tuple(), agreed) << name;
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
    EXPECT_EQ(alpha_obj.value, beta_obj.value);
    EXPECT_EQ(alpha_obj.value, gamma_obj.value);
  }
};

/// One campaign case on the deterministic simulator. Returns a
/// fingerprint of the full post-recovery deployment for the determinism
/// check.
Bytes run_sim_case(const std::string& point, const std::string& crasher,
                   std::uint64_t seed, const std::string& tag_suffix = "") {
  const std::string tag = sanitized(point) + "_" + crasher + tag_suffix;
  Bytes fingerprint;
  {
    Parties p(tag, RuntimeKind::kSim, seed);
    p.warm_up();

    p.fed.coordinator(crasher).arm_crash_point(point);
    p.alpha_obj.value = bytes_of("v2");
    RunHandle h = p.fed.coordinator("alpha").propagate_new_state(
        kObj, p.alpha_obj.get_state());
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator(crasher).crashed(); }))
        << "crash point never hit";

    p.fed.crash_party(crasher);
    // Bounded downtime: frames sent at the dead party are dropped
    // un-acked and keep being retransmitted. (A full settle here would
    // drain those capped-but-long retransmit chains event by event.)
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party(crasher);
    p.fed.register_object(crasher, kObj, p.obj(crasher));
    EXPECT_TRUE(revived.recovered());
    EXPECT_EQ(revived.journal()->incarnation(), 2u);
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    // Liveness: the interrupted run terminates. Everything the journal
    // had seen resumes and completes; a run killed before its first
    // barrier ("propose.pre-journal") never legally existed, so the
    // deployment stays at the warm-up state.
    const std::uint64_t expected_seq =
        point == "propose.pre-journal" ? 1u : 2u;
    auto converged = [&] {
      Replica& a = p.fed.coordinator("alpha").replica(kObj);
      Replica& b = p.fed.coordinator("beta").replica(kObj);
      Replica& g = p.fed.coordinator("gamma").replica(kObj);
      return a.agreed_tuple().sequence == expected_seq &&
             a.agreed_tuple() == b.agreed_tuple() &&
             a.agreed_tuple() == g.agreed_tuple() && !a.busy() &&
             !b.busy() && !g.busy();
    };
    EXPECT_TRUE(p.fed.executor().run_until(converged))
        << "deployment did not converge after recovery";
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    p.fed.settle();

    const Bytes expected_value =
        point == "propose.pre-journal" ? bytes_of("warm") : bytes_of("v2");
    EXPECT_EQ(p.alpha_obj.value, expected_value);
    p.check_safety();
    test::expect_fully_anchored(p.fed);

    // Deployment fingerprint: evidence tails (they hash everything that
    // came before), agreed tuples, object values, executed event count.
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = p.fed.coordinator(name);
      const store::EvidenceLog& evidence = coord.evidence();
      fingerprint.push_back(static_cast<std::uint8_t>(evidence.size()));
      if (!evidence.empty()) {
        Bytes tail = evidence.at(evidence.size() - 1).encode();
        fingerprint.insert(fingerprint.end(), tail.begin(), tail.end());
      }
      Bytes tuple = coord.replica(kObj).agreed_tuple().encode();
      fingerprint.insert(fingerprint.end(), tuple.begin(), tuple.end());
      const Bytes& value = p.obj(name).value;
      fingerprint.insert(fingerprint.end(), value.begin(), value.end());
    }
    Bytes events = bytes_of(std::to_string(p.fed.scheduler().events_executed()));
    fingerprint.insert(fingerprint.end(), events.begin(), events.end());
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
  return fingerprint;
}

/// Four organisations for the membership campaign: alpha/beta/gamma share
/// the journaled object, delta starts outside and connects via gamma (the
/// rotating sponsor, as most recently joined of the genesis order).
struct MemberParties {
  TestRegister alpha_obj;
  TestRegister beta_obj;
  TestRegister gamma_obj;
  TestRegister delta_obj;
  Federation fed;

  MemberParties(const std::string& tag, RuntimeKind kind, std::uint64_t seed)
      : fed({"alpha", "beta", "gamma", "delta"},
            journaled_options(tag, kind, seed)) {
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.register_object("gamma", kObj, gamma_obj);
    fed.register_object("delta", kObj, delta_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta", "gamma"},
                         bytes_of("genesis"));
  }

  TestRegister& obj(const std::string& name) {
    if (name == "alpha") return alpha_obj;
    if (name == "beta") return beta_obj;
    if (name == "gamma") return gamma_obj;
    return delta_obj;
  }

  void warm_up() {
    alpha_obj.value = bytes_of("warm");
    RunHandle h =
        fed.coordinator("alpha").propagate_new_state(kObj,
                                                     alpha_obj.get_state());
    ASSERT_TRUE(fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    fed.settle();
  }

  /// Identical group AND agreed tuples, every chain verifies, zero
  /// violations — evaluated over the given member set.
  void check_safety(const std::vector<std::string>& members) {
    Coordinator& first = fed.coordinator(members.front());
    const GroupTuple& group = first.replica(kObj).group_tuple();
    const StateTuple& agreed = first.replica(kObj).agreed_tuple();
    for (const std::string& name : members) {
      Coordinator& coord = fed.coordinator(name);
      EXPECT_EQ(coord.replica(kObj).group_tuple(), group) << name;
      EXPECT_EQ(coord.replica(kObj).agreed_tuple(), agreed) << name;
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
      EXPECT_EQ(obj(name).value, obj(members.front()).value) << name;
    }
  }
};

/// One membership campaign case on the deterministic simulator: delta's
/// connect run is interrupted by a crash at `point` of `crasher`, the
/// party restarts from its journal, and the deployment must still
/// converge on the four-member group. Returns a determinism fingerprint.
Bytes run_membership_sim_case(const std::string& point,
                              const std::string& crasher,
                              std::uint64_t seed,
                              const std::string& tag_suffix = "") {
  const std::string tag = "m_" + sanitized(point) + "_" + crasher + tag_suffix;
  const std::vector<std::string> kAll = {"alpha", "beta", "gamma", "delta"};
  Bytes fingerprint;
  {
    MemberParties p(tag, RuntimeKind::kSim, seed);
    p.warm_up();

    p.fed.coordinator(crasher).arm_crash_point(point);
    RunHandle h =
        p.fed.coordinator("delta").propagate_connect(kObj, PartyId{"gamma"});
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator(crasher).crashed(); }))
        << "crash point never hit";

    p.fed.crash_party(crasher);
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party(crasher);
    p.fed.register_object(crasher, kObj, p.obj(crasher));
    EXPECT_TRUE(revived.recovered());
    EXPECT_EQ(revived.journal()->incarnation(), 2u);
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    // Liveness: the interrupted connect terminates with delta admitted.
    // Even a run the sponsor lost before its first barrier is re-driven
    // by the subject's journal-gated request probe.
    auto converged = [&] {
      const GroupTuple& group =
          p.fed.coordinator("alpha").replica(kObj).group_tuple();
      for (const std::string& name : kAll) {
        Replica& r = p.fed.coordinator(name).replica(kObj);
        if (!r.connected() || r.members().size() != 4 || r.busy() ||
            !(r.group_tuple() == group)) {
          return false;
        }
      }
      return true;
    };
    EXPECT_TRUE(p.fed.executor().run_until(converged))
        << "deployment did not converge after recovery";
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    if (crasher != "delta") {
      EXPECT_TRUE(h->done());
      EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    }
    p.fed.settle();

    // The new member received the agreed (warm) state with its welcome.
    EXPECT_EQ(p.delta_obj.value, bytes_of("warm"));
    p.check_safety(kAll);
    test::expect_fully_anchored(p.fed);

    for (const std::string& name : kAll) {
      Coordinator& coord = p.fed.coordinator(name);
      const store::EvidenceLog& evidence = coord.evidence();
      fingerprint.push_back(static_cast<std::uint8_t>(evidence.size()));
      if (!evidence.empty()) {
        Bytes tail = evidence.at(evidence.size() - 1).encode();
        fingerprint.insert(fingerprint.end(), tail.begin(), tail.end());
      }
      Bytes group = coord.replica(kObj).group_tuple().encode();
      fingerprint.insert(fingerprint.end(), group.begin(), group.end());
    }
    Bytes events = bytes_of(std::to_string(p.fed.scheduler().events_executed()));
    fingerprint.insert(fingerprint.end(), events.begin(), events.end());
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
  return fingerprint;
}

/// One termination campaign case: gamma goes silent so alpha's proposal
/// blocks, the deadline refers the run to the TTP, and alpha crashes at
/// `point` of that referral path. After restart it must re-fetch (not
/// re-litigate) the certified outcome and release the run.
void run_termination_sim_case(const std::string& point, std::uint64_t seed) {
  const std::string tag = "t_" + sanitized(point);
  {
    Parties p(tag, RuntimeKind::kSim, seed);
    p.fed.enable_ttp_termination(kObj, 500'000);
    p.warm_up();

    p.fed.crash_party("gamma");
    p.fed.coordinator("alpha").arm_crash_point(point);
    p.alpha_obj.value = bytes_of("doomed");
    RunHandle h = p.fed.coordinator("alpha").propagate_new_state(
        kObj, p.alpha_obj.get_state());
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator("alpha").crashed(); }))
        << "crash point never hit";
    EXPECT_FALSE(h->done());

    p.fed.crash_party("alpha");
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party("alpha");
    p.fed.register_object("alpha", kObj, p.alpha_obj);
    p.fed.enable_ttp_termination(kObj, 500'000);  // config is re-supplied
    EXPECT_TRUE(revived.recovered());
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    auto released = [&] {
      return p.fed.coordinator("alpha")
                 .replica(kObj)
                 .active_run_labels()
                 .empty() &&
             p.fed.coordinator("beta")
                 .replica(kObj)
                 .active_run_labels()
                 .empty();
    };
    EXPECT_TRUE(p.fed.executor().run_until(released))
        << "blocked run did not terminate after recovery";
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    p.fed.settle();

    // Fail-safe: the incomplete transcript yields a certified abort and
    // everyone rolls back to the warm state.
    EXPECT_GE(p.fed.termination_ttp().aborts_issued(), 1u);
    EXPECT_EQ(p.fed.termination_ttp().decisions_issued(), 0u);
    EXPECT_EQ(p.alpha_obj.value, bytes_of("warm"));
    EXPECT_EQ(p.beta_obj.value, bytes_of("warm"));
    EXPECT_FALSE(
        p.fed.coordinator("alpha").evidence().find_kind("ttp.abort").empty());

    // gamma restarts with only the warm state in its journal.
    Coordinator& bystander = p.fed.recover_party("gamma");
    p.fed.register_object("gamma", kObj, p.gamma_obj);
    EXPECT_TRUE(bystander.resume_recovered_runs().empty());
    p.fed.settle();
    p.check_safety();
    test::expect_fully_anchored(p.fed);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

// --- graceful restart (both runtimes) ---------------------------------------

class Recovery : public test::RuntimeParamTest {};

TEST_P(Recovery, GracefulRestartPreservesStateAndResumesService) {
  const std::string tag =
      "graceful_" + test::runtime_suffix(GetParam());
  {
    Parties p(tag, GetParam(), /*seed=*/7);
    p.warm_up();

    p.fed.crash_party("beta");
    Coordinator& revived = p.fed.recover_party("beta");
    p.fed.register_object("beta", kObj, p.beta_obj);
    EXPECT_TRUE(revived.recovered());
    ASSERT_NE(revived.journal(), nullptr);
    EXPECT_EQ(revived.journal()->incarnation(), 2u);
    EXPECT_TRUE(revived.resume_recovered_runs().empty());

    // The journal restored the validated state...
    EXPECT_EQ(p.beta_obj.value, bytes_of("warm"));
    EXPECT_EQ(revived.replica(kObj).agreed_tuple().sequence, 1u);

    // ...and the restarted party is a full citizen again.
    p.alpha_obj.value = bytes_of("after-restart");
    RunHandle h = p.fed.coordinator("alpha").propagate_new_state(
        kObj, p.alpha_obj.get_state());
    ASSERT_TRUE(p.fed.run_until_done(h));
    EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    p.fed.settle();
    EXPECT_EQ(p.beta_obj.value, bytes_of("after-restart"));
    p.check_safety();
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

// Recovery × membership interleaving: beta crashes after the decide for
// delta's join is journaled (the snapshot on disk still predates the
// change) but before it is applied; the restart must redo the decide and
// converge to the survivors' group tuple. Runs on both runtimes.
TEST_P(Recovery, MembershipDecideJournaledButUnappliedConverges) {
  const std::string tag =
      "m_interleave_" + test::runtime_suffix(GetParam());
  {
    MemberParties p(tag, GetParam(), /*seed=*/9);
    p.warm_up();

    p.fed.coordinator("beta").arm_crash_point("decide-recv.journaled");
    RunHandle h =
        p.fed.coordinator("delta").propagate_connect(kObj, PartyId{"gamma"});
    ASSERT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator("beta").crashed(); }));

    p.fed.crash_party("beta");
    if (GetParam() == RuntimeKind::kSim) {
      p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    Coordinator& revived = p.fed.recover_party("beta");
    p.fed.register_object("beta", kObj, p.beta_obj);
    EXPECT_TRUE(revived.recovered());
    // The journaled-but-unapplied decide is redone synchronously here.
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    auto all_done = [&] {
      for (const RunHandle& r : resumed) {
        if (!r->done()) return false;
      }
      return h->done();
    };
    ASSERT_TRUE(p.fed.executor().run_until(all_done));
    p.fed.settle();

    EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    const GroupTuple& group =
        p.fed.coordinator("alpha").replica(kObj).group_tuple();
    for (const std::string name : {"alpha", "beta", "gamma", "delta"}) {
      Coordinator& coord = p.fed.coordinator(name);
      EXPECT_EQ(coord.replica(kObj).group_tuple(), group) << name;
      EXPECT_EQ(coord.replica(kObj).members().size(), 4u) << name;
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

B2B_INSTANTIATE_RUNTIME_SUITE(Recovery);

// --- the crash-point campaign (deterministic simulator) ---------------------

TEST(CrashCampaign, ProposerCrashEveryPoint) {
  for (const std::string& point : kProposerPoints) {
    SCOPED_TRACE(point);
    run_sim_case(point, "alpha", campaign_seed());
  }
}

TEST(CrashCampaign, ResponderCrashEveryPoint) {
  for (const std::string& point : kResponderPoints) {
    SCOPED_TRACE(point);
    run_sim_case(point, "beta", campaign_seed());
  }
}

TEST(CrashCampaign, SponsorCrashEveryMembershipPoint) {
  for (const std::string& point : kProposerPoints) {
    SCOPED_TRACE(point);
    run_membership_sim_case(point, "gamma", campaign_seed());
  }
}

TEST(CrashCampaign, RecipientCrashEveryMembershipPoint) {
  for (const std::string& point : kResponderPoints) {
    SCOPED_TRACE(point);
    run_membership_sim_case(point, "beta", campaign_seed());
  }
}

TEST(CrashCampaign, SubjectCrashAtRequestJournaled) {
  run_membership_sim_case("m-request.journaled", "delta", campaign_seed());
}

TEST(CrashCampaign, TerminationCrashEveryPoint) {
  for (const std::string& point : kTerminationPoints) {
    SCOPED_TRACE(point);
    run_termination_sim_case(point, campaign_seed());
  }
}

// A non-sponsor eviction proposer crashes right after journaling its
// relayed request: the restart re-sends under the ORIGINAL nonce and the
// relayed decide still reports the outcome to the recovered proposer.
TEST(CrashCampaign, RelayedEvictionProposerCrashAtRequestJournaled) {
  const std::string tag = "m_relayed_evict";
  {
    Parties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();

    // alpha proposes evicting beta; the legitimate sponsor is gamma, so
    // the request is relayed — and alpha dies before sending it.
    p.fed.coordinator("alpha").arm_crash_point("m-request.journaled");
    RunHandle h =
        p.fed.coordinator("alpha").propagate_eviction(kObj, {PartyId{"beta"}});
    EXPECT_TRUE(p.fed.coordinator("alpha").crashed());
    EXPECT_EQ(h->outcome, RunResult::Outcome::kAborted);

    p.fed.crash_party("alpha");
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party("alpha");
    p.fed.register_object("alpha", kObj, p.alpha_obj);
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();
    ASSERT_EQ(resumed.size(), 1u);
    EXPECT_TRUE(p.fed.run_until_done(resumed[0]));
    EXPECT_EQ(resumed[0]->outcome, RunResult::Outcome::kAgreed);
    p.fed.settle();

    std::vector<PartyId> expected{PartyId{"alpha"}, PartyId{"gamma"}};
    EXPECT_EQ(p.fed.coordinator("alpha").replica(kObj).members(), expected);
    EXPECT_EQ(p.fed.coordinator("gamma").replica(kObj).members(), expected);
    EXPECT_EQ(p.fed.coordinator("alpha").replica(kObj).group_tuple(),
              p.fed.coordinator("gamma").replica(kObj).group_tuple());
    for (const std::string name : {"alpha", "gamma"}) {
      EXPECT_TRUE(p.fed.coordinator(name).evidence().verify_chain()) << name;
      EXPECT_EQ(p.fed.coordinator(name).violations_detected(), 0u) << name;
    }
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

// A voluntary departure survives the sponsor crashing mid-decide: the
// recovered sponsor re-drives the journaled decide and the subject still
// receives its confirm.
TEST(CrashCampaign, DisconnectSponsorCrashAtDecideJournaled) {
  const std::string tag = "m_disconnect_sponsor";
  {
    Parties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();

    // alpha leaves voluntarily; the sponsor for alpha's departure is
    // gamma (most recently joined member not itself leaving).
    p.fed.coordinator("gamma").arm_crash_point("decide.journaled");
    RunHandle h = p.fed.coordinator("alpha").propagate_disconnect(kObj);
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator("gamma").crashed(); }));

    p.fed.crash_party("gamma");
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party("gamma");
    p.fed.register_object("gamma", kObj, p.gamma_obj);
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    auto done = [&] {
      for (const RunHandle& r : resumed) {
        if (!r->done()) return false;
      }
      return h->done();
    };
    EXPECT_TRUE(p.fed.executor().run_until(done));
    p.fed.settle();

    EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    EXPECT_FALSE(p.fed.coordinator("alpha").replica(kObj).connected());
    std::vector<PartyId> expected{PartyId{"beta"}, PartyId{"gamma"}};
    EXPECT_EQ(p.fed.coordinator("beta").replica(kObj).members(), expected);
    EXPECT_EQ(p.fed.coordinator("gamma").replica(kObj).members(), expected);
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      EXPECT_EQ(p.fed.coordinator(name).violations_detected(), 0u) << name;
    }
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

// One journal, two shards: alpha crashes with runs in flight on two
// DIFFERENT objects (both proposals journaled, the armed point fires at
// whichever decide comes first). The restart must rebuild each shard
// independently from the single journal stream and resume_recovered_runs()
// must finish BOTH interrupted runs.
TEST(CrashCampaign, CrashWithInFlightRunsOnTwoObjectsResumesBoth) {
  const std::string tag = "two_shard_resume";
  const ObjectId kOrd{"orders"};
  {
    TestRegister alpha_led, beta_led, gamma_led;
    TestRegister alpha_ord, beta_ord, gamma_ord;
    Federation fed({"alpha", "beta", "gamma"},
                   journaled_options(tag, RuntimeKind::kSim, campaign_seed()));
    fed.register_object("alpha", kObj, alpha_led);
    fed.register_object("beta", kObj, beta_led);
    fed.register_object("gamma", kObj, gamma_led);
    fed.register_object("alpha", kOrd, alpha_ord);
    fed.register_object("beta", kOrd, beta_ord);
    fed.register_object("gamma", kOrd, gamma_ord);
    fed.bootstrap_object(kObj, {"alpha", "beta", "gamma"},
                         bytes_of("genesis"));
    fed.bootstrap_object(kOrd, {"alpha", "beta", "gamma"},
                         bytes_of("o-genesis"));

    // Warm both objects so each shard has a snapshot to restore.
    alpha_led.value = bytes_of("warm");
    RunHandle w1 = fed.coordinator("alpha").propagate_new_state(
        kObj, alpha_led.get_state());
    ASSERT_TRUE(fed.run_until_done(w1));
    alpha_ord.value = bytes_of("o-warm");
    RunHandle w2 = fed.coordinator("alpha").propagate_new_state(
        kOrd, alpha_ord.get_state());
    ASSERT_TRUE(fed.run_until_done(w2));
    fed.settle();

    // Both proposals pass their journal barrier synchronously inside
    // propagate_new_state, so both runs are on stable storage before the
    // first decide crashes the proposer.
    fed.coordinator("alpha").arm_crash_point("decide.journaled");
    alpha_led.value = bytes_of("v2");
    RunHandle h1 = fed.coordinator("alpha").propagate_new_state(
        kObj, alpha_led.get_state());
    alpha_ord.value = bytes_of("o2");
    RunHandle h2 = fed.coordinator("alpha").propagate_new_state(
        kOrd, alpha_ord.get_state());
    ASSERT_TRUE(fed.executor().run_until(
        [&] { return fed.coordinator("alpha").crashed(); }));
    (void)h1;
    (void)h2;

    fed.crash_party("alpha");
    fed.scheduler().run_until(fed.scheduler().now() + 300'000);

    Coordinator& revived = fed.recover_party("alpha");
    fed.register_object("alpha", kObj, alpha_led);
    fed.register_object("alpha", kOrd, alpha_ord);
    EXPECT_TRUE(revived.recovered());
    // Each shard came back to its snapshotted state before any redo:
    // neither in-flight decide had installed.
    EXPECT_EQ(revived.replica(kObj).agreed_tuple().sequence, 1u);
    EXPECT_EQ(revived.replica(kOrd).agreed_tuple().sequence, 1u);

    std::vector<RunHandle> resumed = revived.resume_recovered_runs();
    EXPECT_EQ(resumed.size(), 2u) << "both journaled runs must resume";

    auto converged = [&] {
      for (const std::string name : {"alpha", "beta", "gamma"}) {
        Coordinator& coord = fed.coordinator(name);
        if (coord.replica(kObj).agreed_tuple().sequence != 2u ||
            coord.replica(kOrd).agreed_tuple().sequence != 2u ||
            coord.replica(kObj).busy() || coord.replica(kOrd).busy()) {
          return false;
        }
      }
      return true;
    };
    EXPECT_TRUE(fed.executor().run_until(converged))
        << "both interrupted runs must finish after recovery";
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    fed.settle();

    EXPECT_EQ(alpha_led.value, bytes_of("v2"));
    EXPECT_EQ(alpha_ord.value, bytes_of("o2"));
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = fed.coordinator(name);
      EXPECT_EQ(coord.replica(kObj).agreed_tuple(),
                fed.coordinator("alpha").replica(kObj).agreed_tuple())
          << name;
      EXPECT_EQ(coord.replica(kOrd).agreed_tuple(),
                fed.coordinator("alpha").replica(kOrd).agreed_tuple())
          << name;
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
    EXPECT_EQ(beta_led.value, bytes_of("v2"));
    EXPECT_EQ(beta_ord.value, bytes_of("o2"));
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

TEST(CrashCampaign, RecoveryIsDeterministic) {
  // Same seed, same crash: the entire post-recovery deployment —
  // evidence tails, tuples, values, event count — must reproduce
  // bit-for-bit.
  for (const auto& [point, crasher] :
       std::vector<std::pair<std::string, std::string>>{
           {"response.journaled", "alpha"}, {"respond.sent", "beta"}}) {
    SCOPED_TRACE(point);
    // Distinct tag: the sweep tests use the same (point, crasher) journal
    // roots and may run concurrently under ctest -j.
    Bytes first = run_sim_case(point, crasher, /*seed=*/23, "_det");
    Bytes second = run_sim_case(point, crasher, /*seed=*/23, "_det");
    EXPECT_EQ(first, second);
  }
}

TEST(CrashCampaign, MembershipRecoveryIsDeterministic) {
  for (const auto& [point, crasher] :
       std::vector<std::pair<std::string, std::string>>{
           {"response.journaled", "gamma"}, {"respond.sent", "beta"}}) {
    SCOPED_TRACE(point);
    Bytes first = run_membership_sim_case(point, crasher, /*seed=*/23, "_det");
    Bytes second = run_membership_sim_case(point, crasher, /*seed=*/23, "_det");
    EXPECT_EQ(first, second);
  }
}

// --- combined faults ---------------------------------------------------------

// The sponsor crashes on the first response while a partition still cuts
// off the other recipient; the partition heals during recovery and the
// re-driven run must still admit the subject.
TEST(CrashCampaignCombined, SponsorCrashDuringPartitionThatHeals) {
  const std::string tag = "m_partition_heal";
  const std::vector<std::string> kAll = {"alpha", "beta", "gamma", "delta"};
  {
    MemberParties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();

    p.fed.network().partition(
        {PartyId{"alpha"}},
        {PartyId{"beta"}, PartyId{"gamma"}, PartyId{"delta"}},
        p.fed.scheduler().now() + 400'000);
    p.fed.coordinator("gamma").arm_crash_point("response.journaled");
    RunHandle h =
        p.fed.coordinator("delta").propagate_connect(kObj, PartyId{"gamma"});
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator("gamma").crashed(); }));

    p.fed.crash_party("gamma");
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party("gamma");
    p.fed.register_object("gamma", kObj, p.gamma_obj);
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    auto converged = [&] {
      const GroupTuple& group =
          p.fed.coordinator("alpha").replica(kObj).group_tuple();
      for (const std::string& name : kAll) {
        Replica& r = p.fed.coordinator(name).replica(kObj);
        if (!r.connected() || r.members().size() != 4 || r.busy() ||
            !(r.group_tuple() == group)) {
          return false;
        }
      }
      return true;
    };
    EXPECT_TRUE(p.fed.executor().run_until(converged))
        << "no convergence after heal + recovery";
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    EXPECT_TRUE(h->done());
    EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    p.fed.settle();
    p.check_safety(kAll);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

// The sponsor journals a connect proposal and dies before sending it;
// the survivors evict the dead sponsor (next-in-rotation takes over).
// When the deposed sponsor restarts and re-drives its run, the answers
// are stale rejects — anomalies, never violations — and its late decide
// is ignored as an unknown run.
TEST(CrashCampaignCombined, EvictionTargetsTheCrashedSponsor) {
  const std::string tag = "m_evict_crashed_sponsor";
  {
    MemberParties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();

    p.fed.coordinator("gamma").arm_crash_point("propose.journaled");
    RunHandle connect =
        p.fed.coordinator("delta").propagate_connect(kObj, PartyId{"gamma"});
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator("gamma").crashed(); }));
    p.fed.crash_party("gamma");

    // The eviction's subject set contains the legitimate sponsor itself,
    // so the next member in rotation — beta — must sponsor the run.
    RunHandle ev =
        p.fed.coordinator("beta").propagate_eviction(kObj, {PartyId{"gamma"}});
    ASSERT_TRUE(p.fed.run_until_done(ev));
    EXPECT_EQ(ev->outcome, RunResult::Outcome::kAgreed);
    p.fed.settle();
    std::vector<PartyId> two{PartyId{"alpha"}, PartyId{"beta"}};
    EXPECT_EQ(p.fed.coordinator("alpha").replica(kObj).members(), two);
    EXPECT_EQ(p.fed.coordinator("beta").replica(kObj).connect_sponsor(),
              PartyId{"beta"});

    // The deposed sponsor restarts and re-drives its journaled run.
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);
    Coordinator& revived = p.fed.recover_party("gamma");
    p.fed.register_object("gamma", kObj, p.gamma_obj);
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();
    auto done = [&] {
      for (const RunHandle& r : resumed) {
        if (!r->done()) return false;
      }
      return connect->done();
    };
    EXPECT_TRUE(p.fed.executor().run_until(done));
    p.fed.settle();

    // The subject's request died with the deposed sponsor's authority.
    EXPECT_EQ(connect->outcome, RunResult::Outcome::kVetoed);
    EXPECT_FALSE(p.fed.coordinator("delta").replica(kObj).connected());
    // Survivors hold identical two-member views; the late traffic from
    // the recovered ex-sponsor registered as anomalies, not blame.
    EXPECT_EQ(p.fed.coordinator("alpha").replica(kObj).members(), two);
    EXPECT_EQ(p.fed.coordinator("beta").replica(kObj).members(), two);
    EXPECT_EQ(p.fed.coordinator("alpha").replica(kObj).group_tuple(),
              p.fed.coordinator("beta").replica(kObj).group_tuple());
    for (const std::string name : {"alpha", "beta", "gamma", "delta"}) {
      Coordinator& coord = p.fed.coordinator(name);
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
    EXPECT_FALSE(
        p.fed.coordinator("alpha").evidence().find_kind("anomaly").empty());
    // The evicted party's own view is merely stale (§4.5 semantics).
    EXPECT_TRUE(p.fed.coordinator("gamma").replica(kObj).connected());
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

// --- representative crashes on real threads and real sockets ----------------

/// One campaign case on a real-time runtime (threaded or reactor): handles
/// (atomics) are awaited instead of polling replica state from the test
/// thread, and convergence is asserted only after settle()'s
/// synchronisation.
void run_realtime_case(const std::string& point, const std::string& crasher,
                       RuntimeKind kind) {
  const std::string tag = sanitized(point) + "_" + crasher + "_" +
                          test::runtime_suffix(kind);
  {
    Parties p(tag, kind, /*seed=*/5);
    p.warm_up();

    p.fed.coordinator(crasher).arm_crash_point(point);
    p.alpha_obj.value = bytes_of("v2");
    RunHandle h = p.fed.coordinator("alpha").propagate_new_state(
        kObj, p.alpha_obj.get_state());
    ASSERT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator(crasher).crashed(); }));

    p.fed.crash_party(crasher);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    Coordinator& revived = p.fed.recover_party(crasher);
    p.fed.register_object(crasher, kObj, p.obj(crasher));
    EXPECT_TRUE(revived.recovered());
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    auto all_done = [&] {
      for (const RunHandle& r : resumed) {
        if (!r->done()) return false;
      }
      // The original handle only resolves when the proposer survives;
      // a crashed proposer's run continues under its resumed handle.
      return crasher == "alpha" || h->done();
    };
    ASSERT_TRUE(p.fed.executor().run_until(all_done));
    p.fed.settle();

    EXPECT_EQ(p.alpha_obj.value, bytes_of("v2"));
    EXPECT_EQ(
        p.fed.coordinator(crasher).replica(kObj).agreed_tuple().sequence,
        2u);
    p.check_safety();
    test::expect_fully_anchored(p.fed);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

TEST(CrashCampaignThreaded, ProposerCrashAfterDecideJournaled) {
  run_realtime_case("decide.journaled", "alpha", RuntimeKind::kThreaded);
}

TEST(CrashCampaignThreaded, ResponderCrashAfterRespondJournaled) {
  run_realtime_case("respond.journaled", "beta", RuntimeKind::kThreaded);
}

TEST(CrashCampaignReactor, ProposerCrashAfterDecideJournaled) {
  run_realtime_case("decide.journaled", "alpha", RuntimeKind::kReactor);
}

TEST(CrashCampaignReactor, ResponderCrashAfterRespondJournaled) {
  run_realtime_case("respond.journaled", "beta", RuntimeKind::kReactor);
}

/// A membership campaign case on a real-time runtime. As with
/// run_realtime_case, only handle atomics are awaited from the test
/// thread; replica state is inspected after settle().
void run_realtime_membership_case(const std::string& point,
                                  const std::string& crasher,
                                  RuntimeKind kind) {
  const std::string tag = "m_" + sanitized(point) + "_" + crasher + "_" +
                          test::runtime_suffix(kind);
  {
    MemberParties p(tag, kind, /*seed=*/5);
    p.warm_up();

    p.fed.coordinator(crasher).arm_crash_point(point);
    RunHandle h =
        p.fed.coordinator("delta").propagate_connect(kObj, PartyId{"gamma"});
    ASSERT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator(crasher).crashed(); }));

    p.fed.crash_party(crasher);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    Coordinator& revived = p.fed.recover_party(crasher);
    p.fed.register_object(crasher, kObj, p.obj(crasher));
    EXPECT_TRUE(revived.recovered());
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    auto all_done = [&] {
      for (const RunHandle& r : resumed) {
        if (!r->done()) return false;
      }
      return h->done();
    };
    ASSERT_TRUE(p.fed.executor().run_until(all_done));
    p.fed.settle();

    EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    EXPECT_EQ(p.delta_obj.value, bytes_of("warm"));
    const std::vector<std::string> kAll = {"alpha", "beta", "gamma", "delta"};
    for (const std::string& name : kAll) {
      EXPECT_EQ(p.fed.coordinator(name).replica(kObj).members().size(), 4u)
          << name;
    }
    p.check_safety(kAll);
    test::expect_fully_anchored(p.fed);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

TEST(CrashCampaignThreaded, SponsorCrashAfterMembershipDecideJournaled) {
  run_realtime_membership_case("decide.journaled", "gamma",
                               RuntimeKind::kThreaded);
}

TEST(CrashCampaignThreaded, RecipientCrashAfterMembershipRespondJournaled) {
  run_realtime_membership_case("respond.journaled", "beta",
                               RuntimeKind::kThreaded);
}

TEST(CrashCampaignReactor, SponsorCrashAfterMembershipDecideJournaled) {
  run_realtime_membership_case("decide.journaled", "gamma",
                               RuntimeKind::kReactor);
}

TEST(CrashCampaignReactor, RecipientCrashAfterMembershipRespondJournaled) {
  run_realtime_membership_case("respond.journaled", "beta",
                               RuntimeKind::kReactor);
}

// --- delivery failure -> suspicion ------------------------------------------

TEST(Recovery, ExhaustedRetransmissionMarksPeerSuspect) {
  const std::string tag = "suspect";
  {
    Federation::Options options =
        journaled_options(tag, RuntimeKind::kSim, /*seed=*/3);
    options.reliable.max_retransmits = 5;

    TestRegister alpha_obj;
    TestRegister beta_obj;
    TestRegister gamma_obj;
    Federation fed({"alpha", "beta", "gamma"}, options);
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.register_object("gamma", kObj, gamma_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta", "gamma"},
                         bytes_of("genesis"));

    fed.crash_party("beta");
    alpha_obj.value = bytes_of("v1");
    fed.coordinator("alpha").propagate_new_state(kObj,
                                                 alpha_obj.get_state());
    EXPECT_TRUE(fed.executor().run_until([&] {
      return fed.coordinator("alpha").suspected_peers().contains(
          PartyId{"beta"});
    }));
    EXPECT_FALSE(
        fed.coordinator("alpha")
            .evidence()
            .find_kind("peer.suspect")
            .empty());
    // Suspicion is transport-level, not an accusation of misbehaviour.
    EXPECT_EQ(fed.coordinator("alpha").violations_detected(), 0u);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

// ---------------------------------------------------------------------------
// The evidence log as the run transcript, across restarts
// ---------------------------------------------------------------------------

/// Records every envelope the simulated network carries (first copy of
/// each reliable DATA frame: u8 type, u64 seq, blob envelope, checksum).
class EnvelopeTap : public net::Intruder {
 public:
  Verdict intercept(const PartyId& from, const PartyId& to, Bytes& payload,
                    net::SimTime*) override {
    try {
      wire::Decoder dec{payload};
      if (dec.u8() != 0) return Verdict::kPass;  // an ack
      const std::uint64_t seq = dec.u64();
      frames_.try_emplace({from, to, seq}, Envelope::decode(dec.blob()));
    } catch (const CodecError&) {
    }
    return Verdict::kPass;
  }

  /// Bodies of the distinct `type` envelopes sent from `from` to `to`.
  std::vector<Bytes> bodies(const std::string& from, const std::string& to,
                            MsgType type) const {
    std::vector<Bytes> out;
    for (const auto& [key, envelope] : frames_) {
      const auto& [frame_from, frame_to, seq] = key;
      if (frame_from == PartyId{from} && frame_to == PartyId{to} &&
          envelope.type == type) {
        out.push_back(envelope.body);
      }
    }
    return out;
  }

 private:
  std::map<std::tuple<PartyId, PartyId, std::uint64_t>, Envelope> frames_;
};

/// True when `log` holds an anomaly record whose description is `what`.
bool anomaly_recorded(const store::EvidenceLog& log, const std::string& what) {
  for (const store::EvidenceRecord* record : log.find_kind("anomaly")) {
    const Bytes payload =
        Coordinator::decode_evidence_payload(record->payload).payload;
    wire::Decoder dec{payload};
    if (dec.str() == what) return true;
  }
  return false;
}

/// A sponsor that answered a connect keeps the answer across a restart:
/// the subject's duplicate request under the same nonce is re-answered
/// with the very bytes of the first answer.
TEST(Recovery, RestartedSponsorReanswersDuplicateRequestVerbatim) {
  const std::string tag = "reanswer";
  {
    Federation::Options options =
        journaled_options(tag, RuntimeKind::kSim, campaign_seed());
    // The initial member sponsors every connect (footnote 2), so alpha is
    // still the sponsor once gamma has joined.
    options.sponsor_policy = SponsorPolicy::kFixedInitial;
    TestRegister alpha_obj;
    TestRegister beta_obj;
    TestRegister gamma_obj;
    Federation fed({"alpha", "beta", "gamma"}, options);
    EnvelopeTap tap;
    fed.network().set_intruder(&tap);
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.register_object("gamma", kObj, gamma_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));

    RunHandle h =
        fed.coordinator("gamma").propagate_connect(kObj, PartyId{"alpha"});
    ASSERT_TRUE(fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
    fed.settle();
    const std::vector<Bytes> requests =
        tap.bodies("gamma", "alpha", MsgType::kConnectRequest);
    ASSERT_EQ(requests.size(), 1u);
    ASSERT_EQ(tap.bodies("alpha", "gamma", MsgType::kConnectWelcome).size(),
              1u);

    fed.crash_party("alpha");
    Coordinator& revived = fed.recover_party("alpha");
    fed.register_object("alpha", kObj, alpha_obj);
    revived.resume_recovered_runs();
    fed.settle();

    Envelope duplicate{MsgType::kConnectRequest, kObj, requests.front()};
    fed.transport("gamma").send(PartyId{"alpha"}, duplicate.encode());
    fed.settle();

    const std::vector<Bytes> welcomes =
        tap.bodies("alpha", "gamma", MsgType::kConnectWelcome);
    ASSERT_EQ(welcomes.size(), 2u);
    EXPECT_EQ(welcomes[1], welcomes[0]);
    EXPECT_TRUE(anomaly_recorded(revived.evidence(),
                                 "re-answered duplicate membership request"));
    EXPECT_EQ(revived.violations_detected(), 0u);
    EXPECT_EQ(fed.coordinator("gamma").violations_detected(), 0u);
    fed.network().set_intruder(nullptr);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

/// A recipient's transcript of a closed membership run holds the decide
/// it received. A replayed response for that run must not make it bounce
/// that decide back: only the sponsor re-sends decides.
TEST(Recovery, ClosedMembershipRecipientNeverBouncesTheDecide) {
  const std::string tag = "no_bounce";
  {
    MemberParties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();
    RunHandle h =
        p.fed.coordinator("delta").propagate_connect(kObj, PartyId{"gamma"});
    ASSERT_TRUE(p.fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
    p.fed.settle();

    // Gamma sponsored the connect; alpha and beta answered it.
    Coordinator& beta = p.fed.coordinator("beta");
    const std::string label = beta.replica(kObj).group_tuple().label();
    std::vector<Bytes> alpha_responses;
    for (const store::EvidenceRecord* record :
         p.fed.coordinator("alpha").evidence().run(label)) {
      if (record->kind == evidence_kind::kMembershipRespond) {
        alpha_responses.push_back(
            Coordinator::decode_evidence_payload(record->payload).payload);
      }
    }
    ASSERT_EQ(alpha_responses.size(), 1u);

    const std::uint64_t sent_before = beta.protocol_stats().envelopes_sent;
    Envelope replayed{MsgType::kMembershipRespond, kObj,
                      alpha_responses.front()};
    p.fed.transport("alpha").send(PartyId{"beta"}, replayed.encode());
    p.fed.settle();

    EXPECT_EQ(beta.protocol_stats().envelopes_sent, sent_before);
    EXPECT_TRUE(anomaly_recorded(beta.evidence(),
                                 "membership response for closed run " + label));
    EXPECT_EQ(beta.violations_detected(), 0u);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

/// Arbitration reads the evidence log's run index, which replay rebuilds:
/// a restarted party rules on a closed run exactly as before the crash.
TEST(Recovery, ArbitrationRulingSurvivesRestart) {
  const std::string tag = "arbiter_restart";
  {
    Parties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();
    p.alpha_obj.value = bytes_of("v2");
    RunHandle h = p.fed.coordinator("alpha").propagate_new_state(
        kObj, p.alpha_obj.get_state());
    ASSERT_TRUE(p.fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    p.fed.settle();

    Arbiter arbiter{p.fed.make_verifier()};
    const std::vector<PartyId> recipients{PartyId{"beta"}, PartyId{"gamma"}};
    const ArbitrationReport before = arbiter.arbitrate(
        p.fed.coordinator("alpha").evidence(), h->run_label, &recipients);
    const std::vector<std::string> labels_before =
        p.fed.coordinator("alpha").evidence().run_labels();
    ASSERT_TRUE(before.verdict.agreed) << before.ruling;

    p.fed.crash_party("alpha");
    Coordinator& revived = p.fed.recover_party("alpha");
    p.fed.register_object("alpha", kObj, p.alpha_obj);
    revived.resume_recovered_runs();
    p.fed.settle();

    const ArbitrationReport after =
        arbiter.arbitrate(revived.evidence(), h->run_label, &recipients);
    EXPECT_EQ(revived.evidence().run_labels(), labels_before);
    EXPECT_EQ(after.proposal_found, before.proposal_found);
    EXPECT_EQ(after.decide_found, before.decide_found);
    EXPECT_EQ(after.verdict.agreed, before.verdict.agreed);
    EXPECT_EQ(after.verdict.evidence_intact, before.verdict.evidence_intact);
    EXPECT_EQ(after.verdict.vetoers, before.verdict.vetoers);
    EXPECT_EQ(after.verdict.violations, before.verdict.violations);
    EXPECT_EQ(after.ruling, before.ruling);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

/// Journal record type 4 held a second copy of each protocol message
/// before the evidence log became the transcript. Its first field is a
/// run label; replay must skip it, never read it as an object id.
TEST(Recovery, RetiredMessageRecordCreatesNoObjectState) {
  const std::string tag = "retired_message";
  const std::string root = fresh_journal_root(tag);
  {
    store::Journal journal(root + "/alpha");
    wire::Encoder enc;
    // str(run label) str(direction) str(kind) str(peer) blob(payload),
    // with a label that happens to name the object registered below.
    enc.str(kObj.str()).str("sent").str("propose").str("beta");
    enc.blob(bytes_of("body"));
    journal.append(4, std::move(enc).take());
    journal.sync();
  }
  {
    Federation::Options options = test::runtime_options(RuntimeKind::kSim, 1);
    options.journal_root = root;
    TestRegister alpha_obj;
    TestRegister beta_obj;
    Federation fed({"alpha", "beta"}, options);
    Coordinator& alpha = fed.coordinator("alpha");
    EXPECT_TRUE(alpha.recovered());
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    // Restoring a replica from replayed state records "recovery".
    EXPECT_TRUE(alpha.evidence().find_kind("recovery").empty());
    EXPECT_FALSE(alpha.replica(kObj).connected());
  }
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// Replica snapshots: the one durable image of the agreed state
// ---------------------------------------------------------------------------

TEST(Snapshot, EncodeDecodeRoundTrip) {
  ReplicaSnapshot snap;
  snap.connected = true;
  snap.members = {PartyId{"a"}, PartyId{"b"}};
  snap.group_tuple = GroupTuple{3, crypto::Sha256::hash(bytes_of("g")),
                                hash_members(snap.members)};
  snap.agreed_tuple = StateTuple{7, crypto::Sha256::hash(bytes_of("r")),
                                 crypto::Sha256::hash(bytes_of("s"))};
  snap.agreed_state = bytes_of("s");
  snap.last_seen_sequence = 9;
  EXPECT_EQ(ReplicaSnapshot::decode(snap.encode()), snap);
}

/// Restarts beta from its journal with its application object wiped, as
/// after a process crash.
Coordinator& restart_beta_with_amnesia(Parties& p) {
  p.fed.crash_party("beta");
  p.beta_obj.value = bytes_of("amnesia");
  Coordinator& revived = p.fed.recover_party("beta");
  p.fed.register_object("beta", kObj, p.beta_obj);
  revived.resume_recovered_runs();
  p.fed.settle();
  return revived;
}

TEST(Snapshot, RestoreRebuildsReplicatedState) {
  const std::string tag = "snapshot_rebuild";
  {
    Parties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();

    Coordinator& beta = restart_beta_with_amnesia(p);
    EXPECT_TRUE(beta.recovered());
    EXPECT_EQ(p.beta_obj.value, bytes_of("warm"));
    EXPECT_EQ(beta.replica(kObj).agreed_tuple().sequence, 1u);
    EXPECT_TRUE(beta.replica(kObj).connected());

    // The restarted party takes part in new coordinations.
    p.alpha_obj.value = bytes_of("v2");
    RunHandle h = p.fed.coordinator("alpha").propagate_new_state(
        kObj, p.alpha_obj.get_state());
    ASSERT_TRUE(p.fed.run_until_done(h));
    EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    p.fed.settle();
    EXPECT_EQ(p.beta_obj.value, bytes_of("v2"));
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

/// Replay protection survives a restart although the snapshot carries no
/// run labels: replay rebuilds them from the run records. A replayed
/// propose of a closed run gets no answer and installs nothing.
TEST(Snapshot, RestorePreservesReplayProtection) {
  const std::string tag = "snapshot_replay";
  {
    Parties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();
    // The propose heads the warm-up run's transcript in alpha's log.
    const std::string label =
        p.fed.coordinator("alpha").replica(kObj).agreed_tuple().label();
    const auto stored = p.fed.coordinator("alpha").evidence().run(label);
    ASSERT_FALSE(stored.empty());
    ASSERT_EQ(stored[0]->kind, evidence_kind::kProposeSent);
    Envelope replayed{
        MsgType::kPropose, kObj,
        Coordinator::decode_evidence_payload(stored[0]->payload).payload};

    Coordinator& beta = restart_beta_with_amnesia(p);
    const std::uint64_t sent_before = beta.protocol_stats().envelopes_sent;
    const std::size_t installs_before =
        beta.evidence().find_kind(evidence_kind::kStateInstalled).size();
    p.fed.transport("alpha").send(PartyId{"beta"}, replayed.encode());
    p.fed.settle();

    EXPECT_EQ(beta.protocol_stats().envelopes_sent, sent_before);
    EXPECT_EQ(beta.evidence().find_kind(evidence_kind::kStateInstalled).size(),
              installs_before);
    EXPECT_EQ(beta.replica(kObj).agreed_tuple().sequence, 1u);
    EXPECT_EQ(p.beta_obj.value, bytes_of("warm"));
    EXPECT_TRUE(anomaly_recorded(beta.evidence(),
                                 "duplicate proposal for closed run " + label));
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

/// Each install journals one snapshot of the same size, however long the
/// object's history: the snapshot holds the agreed state, not the labels
/// of every run before it.
TEST(Recovery, SnapshotRecordsDoNotGrowWithHistory) {
  const std::string tag = "flat_snapshots";
  const std::string root = fresh_journal_root(tag);
  constexpr int kOverwrites = 30;
  {
    Federation::Options options =
        test::runtime_options(RuntimeKind::kSim, campaign_seed());
    options.journal_root = root;
    TestRegister alpha_obj;
    TestRegister beta_obj;
    Federation fed({"alpha", "beta"}, options);
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta"}, Bytes(64, 0));
    for (int i = 1; i <= kOverwrites; ++i) {
      alpha_obj.value = Bytes(64, static_cast<std::uint8_t>(i));
      RunHandle h = fed.coordinator("alpha").propagate_new_state(
          kObj, alpha_obj.get_state());
      ASSERT_TRUE(fed.run_until_done(h));
      ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
      fed.settle();
    }
  }
  for (const std::string name : {"alpha", "beta"}) {
    store::Journal journal(root + "/" + name);
    std::vector<std::size_t> sizes;
    for (const store::JournalRecord& record : journal.records()) {
      if (record.type == walrec::kSnapshot) {
        sizes.push_back(record.payload.size());
      }
    }
    // The genesis snapshot, then one per install.
    ASSERT_EQ(sizes.size(), static_cast<std::size_t>(kOverwrites + 1))
        << name;
    const auto [smallest, largest] =
        std::minmax_element(sizes.begin(), sizes.end());
    // A few bytes of slack for varints.
    EXPECT_LE(*largest - *smallest, 4u) << name;
  }
  fs::remove_all(root);
}

/// A party that resolves a blocked membership run out of band (§7)
/// closes it like any run it takes part in: journaled closed, sealed, and
/// gone after a restart. Beta goes silent, so gamma's connect run blocks
/// on beta's response and alpha, which answered, blocks on gamma's decide.
TEST(Recovery, ResolvedMembershipRunsStayClosedAfterRestart) {
  const std::string tag = "resolved_membership";
  {
    MemberParties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();
    p.fed.network().partition(
        {PartyId{"beta"}},
        {PartyId{"alpha"}, PartyId{"gamma"}, PartyId{"delta"}},
        std::uint64_t{1} << 62);
    RunHandle h =
        p.fed.coordinator("delta").propagate_connect(kObj, PartyId{"gamma"});
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 30'000'000);
    ASSERT_FALSE(h->done());

    const std::vector<std::string> open =
        p.fed.coordinator("gamma").replica(kObj).active_run_labels();
    ASSERT_EQ(open.size(), 1u);
    const std::string label = open.front();
    ASSERT_EQ(p.fed.coordinator("alpha").replica(kObj).active_run_labels(),
              open);
    for (const std::string name : {"gamma", "alpha"}) {
      Coordinator& coord = p.fed.coordinator(name);
      EXPECT_TRUE(coord.replica(kObj).resolve_blocked_run(label)) << name;
      const Arbiter::AnchorReport anchors = Arbiter::verify_anchored_spans(
          coord.evidence(), coord.public_key(), &p.fed.tss()->public_key());
      EXPECT_TRUE(anchors.all_anchors_valid) << name;
      EXPECT_EQ(anchors.trailing_records, 0u) << name;
    }
    EXPECT_EQ(h->outcome, RunResult::Outcome::kPending);

    for (const std::string name : {"gamma", "alpha"}) {
      p.fed.crash_party(name);
      Coordinator& revived = p.fed.recover_party(name);
      p.fed.register_object(name, kObj, p.obj(name));
      revived.resume_recovered_runs();
      const Replica& replica = revived.replica(kObj);
      EXPECT_FALSE(replica.busy()) << name;
      EXPECT_TRUE(replica.active_run_labels().empty()) << name;
    }
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_recovery_" + tag));
}

/// Membership runs journal the one run record family (6–12): a connect,
/// a relayed eviction and a voluntary disconnect leave no record of the
/// retired membership family (13–19) in any party's journal, and each
/// run's group label closes a proposer run (its sponsor's) and a
/// responder run (a recipient's).
TEST(Recovery, MembershipRunsJournalTheRunRecordFamily) {
  const std::string tag = "run_record_family";
  const std::string root =
      (fs::temp_directory_path() / ("b2b_recovery_" + tag)).string();
  const std::vector<std::string> kAll = {"alpha", "beta", "gamma", "delta"};
  std::vector<std::string> group_labels;
  {
    MemberParties p(tag, RuntimeKind::kSim, campaign_seed());
    p.warm_up();
    auto drive = [&](const RunHandle& h) {
      ASSERT_TRUE(p.fed.run_until_done(h));
      ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
      p.fed.settle();
      group_labels.push_back(h->run_label);
    };
    // Gamma sponsors delta's connect; delta, now the most recent member,
    // sponsors alpha's eviction of beta and then gamma's departure.
    drive(p.fed.coordinator("delta").propagate_connect(kObj, PartyId{"gamma"}));
    drive(p.fed.coordinator("alpha").propagate_eviction(kObj, {PartyId{"beta"}}));
    drive(p.fed.coordinator("gamma").propagate_disconnect(kObj));
  }
  std::set<std::string> proposer_closed;
  std::set<std::string> responder_closed;
  for (const std::string& name : kAll) {
    store::Journal journal(root + "/" + name);
    for (const store::JournalRecord& record : journal.records()) {
      EXPECT_FALSE(record.type >= 13 && record.type <= 19)
          << name << " journaled record type " << int{record.type};
      if (record.type != walrec::kProposerClosed &&
          record.type != walrec::kResponderClosed) {
        continue;
      }
      wire::Decoder dec{record.payload};
      dec.str();  // object
      std::string label = dec.str();
      (record.type == walrec::kProposerClosed ? proposer_closed
                                              : responder_closed)
          .insert(std::move(label));
    }
  }
  ASSERT_EQ(group_labels.size(), 3u);
  for (const std::string& label : group_labels) {
    EXPECT_EQ(label.front(), 'g') << label;
    EXPECT_TRUE(proposer_closed.contains(label)) << label;
    EXPECT_TRUE(responder_closed.contains(label)) << label;
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace b2b::core
