// Deal subsystem (DESIGN.md §12, experiment E23): atomic cross-object
// coordination between mutually distrusting federations.
//
// Covered here:
//   * the commit/abort protocol over all three runtimes — every leg
//     installs or none does, with signed non-repudiable deal artifacts
//     an arbiter can rule on from any one participant's store;
//   * edge cases on the deterministic simulator (empty/duplicate specs,
//     staging against a busy object, a silent participant + deadline);
//   * the crash-point campaign over the deal-specific points in
//     tests/support/crash_points.hpp, sim-swept and spot-checked on the
//     threaded runtime, with a determinism check on the full
//     post-recovery deployment fingerprint;
//   * the §7 TTP escape hatches under crashes: a withheld decision ends
//     in a certified deal abort consistent with the participants'
//     per-run escapes, and a mid-replicate crash still commits
//     everywhere;
//   * a multi-seed soak of concurrent deals (commit, veto and crash
//     rounds) on the simulator and once over real TCP sockets on the
//     reactor;
//   * a golden-digest determinism test pinning the multi-deal
//     interleaving bit-for-bit under both coordinator lock modes.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "b2b/arbiter.hpp"
#include "b2b/federation.hpp"
#include "common/error.hpp"
#include "crypto/sha256.hpp"
#include "tests/support/anchoring.hpp"
#include "tests/support/crash_points.hpp"
#include "tests/support/golden_digest.hpp"
#include "tests/support/runtime_param.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

namespace fs = std::filesystem;

const ObjectId kLedger{"ledger"};
const ObjectId kOrders{"orders"};
const ObjectId kAudit{"audit"};

DealCoordinator::LegSpec state_leg(const ObjectId& object,
                                   const std::string& value) {
  DealCoordinator::LegSpec leg;
  leg.object = object;
  leg.payload = bytes_of(value);
  leg.new_state = bytes_of(value);
  leg.is_update = false;
  return leg;
}

DealCoordinator::LegSpec update_leg(const ObjectId& object,
                                    const std::string& suffix,
                                    const std::string& new_value) {
  DealCoordinator::LegSpec leg;
  leg.object = object;
  leg.payload = bytes_of(suffix);
  leg.new_state = bytes_of(new_value);
  leg.is_update = true;
  return leg;
}

std::map<PartyId, crypto::RsaPublicKey> key_map(
    Federation& fed, std::initializer_list<std::string> names) {
  std::map<PartyId, crypto::RsaPublicKey> keys;
  for (const std::string& name : names) {
    keys.emplace(PartyId{name}, fed.keypair(name).public_key());
  }
  return keys;
}

std::string fresh_journal_root(const std::string& tag) {
  fs::path root = fs::temp_directory_path() / ("b2b_deal_" + tag);
  fs::remove_all(root);
  return root.string();
}

Federation::Options journaled_options(const std::string& tag,
                                      RuntimeKind kind, std::uint64_t seed) {
  Federation::Options options = test::runtime_options(kind, seed);
  options.journal_root = fresh_journal_root(tag);
  if (kind != RuntimeKind::kSim) {
    options.run_probe_interval_micros = 200'000;
  }
  return options;
}

// ---------------------------------------------------------------------------
// The protocol suite: three organisations, three objects with different
// member sets (gamma stays outside "orders" — deals span groups that do
// not even share a membership).
// ---------------------------------------------------------------------------

struct DealParties {
  // Registers are declared before (destroyed after) the federation, so
  // the runtime's delivery threads stop before the objects they write
  // into die. Index: [party][object] with objects ledger, orders, audit.
  TestRegister regs[3][3];
  Federation fed;

  static constexpr const char* kNames[3] = {"alpha", "beta", "gamma"};

  // Journaled throughout: the deal layer assumes the paper's stable
  // storage, under which a response straggling in after an abort closed
  // its leg is answered idempotently instead of branded a §4.4 replay.
  DealParties(const std::string& tag, RuntimeKind kind, std::uint64_t seed)
      : DealParties(journaled_options(tag + "_" + test::runtime_suffix(kind),
                                      kind, seed)) {}

  explicit DealParties(const Federation::Options& options)
      : fed({"alpha", "beta", "gamma"}, options) {
    for (std::size_t p = 0; p < 3; ++p) {
      fed.register_object(kNames[p], kLedger, regs[p][0]);
      fed.register_object(kNames[p], kOrders, regs[p][1]);
      fed.register_object(kNames[p], kAudit, regs[p][2]);
    }
    fed.bootstrap_object(kLedger, {"alpha", "beta", "gamma"}, bytes_of("L0"));
    fed.bootstrap_object(kOrders, {"alpha", "beta"}, bytes_of("O0"));
    fed.bootstrap_object(kAudit, {"alpha", "beta", "gamma"}, bytes_of("A0"));
  }

  std::size_t index_of(const std::string& name) const {
    for (std::size_t p = 0; p < 3; ++p) {
      if (name == kNames[p]) return p;
    }
    return 0;
  }

  TestRegister& reg(const std::string& name, std::size_t obj_index) {
    return regs[index_of(name)][obj_index];
  }

  void check_chains() {
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = fed.coordinator(name);
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
  }
};

class Deals : public test::RuntimeParamTest {};

TEST_P(Deals, MultiLegCommitInstallsAllLegs) {
  DealParties p("pv_commit", GetParam(), 21);

  DealCoordinator::DealSpec spec;
  spec.legs.push_back(state_leg(kLedger, "L1"));
  spec.legs.push_back(state_leg(kOrders, "O1"));
  spec.legs.push_back(update_leg(kAudit, "+u", "A0+u"));
  RunHandle h = p.fed.start_deal("alpha", spec);
  ASSERT_TRUE(p.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
  p.fed.settle();

  // Every leg installed at every member of its (differing) group.
  for (const std::string name : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(p.reg(name, 0).value, bytes_of("L1")) << name;
    EXPECT_EQ(p.reg(name, 2).value, bytes_of("A0+u")) << name;
  }
  for (const std::string name : {"alpha", "beta"}) {
    EXPECT_EQ(p.reg(name, 1).value, bytes_of("O1")) << name;
  }
  for (const ObjectId& object : {kLedger, kAudit}) {
    const StateTuple& agreed =
        p.fed.coordinator("alpha").replica(object).agreed_tuple();
    EXPECT_EQ(p.fed.coordinator("beta").replica(object).agreed_tuple(),
              agreed);
    EXPECT_EQ(p.fed.coordinator("gamma").replica(object).agreed_tuple(),
              agreed);
  }
  p.check_chains();

  const DealCoordinator::Stats stats =
      p.fed.coordinator("alpha").deals().stats();
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.aborted, 0u);

  // The signed decision is on record and names every leg.
  std::optional<DealDecisionMsg> decision =
      p.fed.coordinator("alpha").deals().decision_of(h->run_label);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->decision.verdict, DealDecision::Verdict::kCommit);
  EXPECT_EQ(decision->decision.legs.size(), 3u);

  // An arbiter can rule each leg COMMITTED from one participant's store
  // alone, with no provable defector.
  Arbiter arbiter{p.fed.make_verifier()};
  const auto keys = key_map(p.fed, {"alpha", "beta", "gamma"});
  for (const DealLeg& leg : decision->decision.legs) {
    Arbiter::DealArbitrationReport report = arbiter.arbitrate_deal(
        p.fed.coordinator("beta").evidence(), leg.proposed.label(), keys);
    EXPECT_TRUE(report.enlist_found) << report.ruling;
    EXPECT_TRUE(report.decision_found) << report.ruling;
    EXPECT_TRUE(report.committed) << report.ruling;
    EXPECT_FALSE(report.equivocation);
    EXPECT_TRUE(report.blamed.empty()) << report.ruling;
    EXPECT_NE(report.ruling.find("COMMITTED"), std::string::npos)
        << report.ruling;
  }
}

TEST_P(Deals, VetoOnOneLegAbortsAll) {
  DealParties p("pv_veto", GetParam(), 22);
  p.reg("gamma", 2).policy = [](BytesView, const ValidationContext&) {
    return Decision::rejected("audit says no");
  };

  DealCoordinator::DealSpec spec;
  spec.legs.push_back(state_leg(kLedger, "L1"));
  spec.legs.push_back(state_leg(kOrders, "O1"));
  spec.legs.push_back(state_leg(kAudit, "A1"));
  RunHandle h = p.fed.start_deal("alpha", spec);
  ASSERT_TRUE(p.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed) << h->diagnostic;
  ASSERT_EQ(h->vetoers.size(), 1u);
  EXPECT_EQ(h->vetoers[0], PartyId{"gamma"});
  p.fed.settle();

  // All-or-nothing: the two clean legs rolled back with the vetoed one.
  for (const std::string name : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(p.reg(name, 0).value, bytes_of("L0")) << name;
    EXPECT_EQ(p.reg(name, 2).value, bytes_of("A0")) << name;
  }
  for (const std::string name : {"alpha", "beta"}) {
    EXPECT_EQ(p.reg(name, 1).value, bytes_of("O0")) << name;
  }
  // The parked clean leg at a participant was released with a veto event.
  EXPECT_GE(p.reg("gamma", 0).count(CoordEvent::Kind::kStateVetoed), 1u);
  p.check_chains();

  const DealCoordinator::Stats stats =
      p.fed.coordinator("alpha").deals().stats();
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.committed, 0u);

  // Arbitration of the vetoed leg from the vetoer's own store: a signed
  // ABORTED ruling, nobody to blame.
  std::optional<DealDecisionMsg> decision =
      p.fed.coordinator("alpha").deals().decision_of(h->run_label);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->decision.verdict, DealDecision::Verdict::kAbort);
  const DealLeg* audit_leg = nullptr;
  for (const DealLeg& leg : decision->decision.legs) {
    if (leg.object == kAudit) audit_leg = &leg;
  }
  ASSERT_NE(audit_leg, nullptr);
  Arbiter arbiter{p.fed.make_verifier()};
  Arbiter::DealArbitrationReport report = arbiter.arbitrate_deal(
      p.fed.coordinator("gamma").evidence(), audit_leg->proposed.label(),
      key_map(p.fed, {"alpha", "beta", "gamma"}));
  EXPECT_TRUE(report.enlist_found) << report.ruling;
  EXPECT_TRUE(report.decision_found) << report.ruling;
  EXPECT_FALSE(report.committed);
  EXPECT_TRUE(report.blamed.empty()) << report.ruling;
  EXPECT_NE(report.ruling.find("ABORTED"), std::string::npos)
      << report.ruling;
}

TEST_P(Deals, TtpEscapeRoutesCommitThroughAtomicRegistration) {
  DealParties p("pv_ttp", GetParam(), 27);
  p.fed.enable_deal_escape();

  DealCoordinator::DealSpec spec;
  spec.legs.push_back(state_leg(kLedger, "L1"));
  spec.legs.push_back(state_leg(kAudit, "A1"));
  RunHandle h = p.fed.start_deal("alpha", spec);
  ASSERT_TRUE(p.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
  p.fed.settle();

  for (const std::string name : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(p.reg(name, 0).value, bytes_of("L1")) << name;
    EXPECT_EQ(p.reg(name, 2).value, bytes_of("A1")) << name;
  }
  p.check_chains();

  const DealCoordinator::Stats stats =
      p.fed.coordinator("alpha").deals().stats();
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.ttp_registrations, 1u);
  EXPECT_EQ(stats.ttp_verdicts, 1u);
  EXPECT_EQ(p.fed.termination_ttp().deal_commits_issued(), 1u);
  EXPECT_EQ(p.fed.termination_ttp().deal_aborts_issued(), 0u);
}

TEST_P(Deals, ConflictingSignedDecisionIsProvableEquivocation) {
  DealParties p("pv_equiv", GetParam(), 29);

  DealCoordinator::DealSpec spec;
  spec.legs.push_back(state_leg(kLedger, "L1"));
  spec.legs.push_back(state_leg(kAudit, "A1"));
  RunHandle h = p.fed.start_deal("alpha", spec);
  ASSERT_TRUE(p.fed.run_until_done(h));
  ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
  p.fed.settle();

  // The test plays a dishonest initiator: re-sign the committed decision
  // with the verdict flipped and slip it to one participant. The two
  // validly signed, conflicting verdicts are non-repudiable proof of
  // equivocation — the participant records the violation.
  std::optional<DealDecisionMsg> committed =
      p.fed.coordinator("alpha").deals().decision_of(h->run_label);
  ASSERT_TRUE(committed.has_value());
  DealDecision forged = committed->decision;
  forged.verdict = DealDecision::Verdict::kAbort;
  forged.diagnostic = "forged abort";
  DealDecisionMsg evil;
  evil.decision = forged;
  evil.signature = p.fed.keypair("alpha").sign(forged.signed_bytes());
  Envelope env;
  env.type = MsgType::kDealDecision;
  env.object = kLedger;
  env.body = evil.encode();
  p.fed.transport("alpha").send(PartyId{"beta"}, env.encode());

  EXPECT_TRUE(p.fed.executor().run_until(
      [&] { return p.fed.coordinator("beta").violations_detected() >= 1; }));
  p.fed.settle();
  EXPECT_EQ(p.fed.coordinator("beta").violations_detected(), 1u);
  EXPECT_TRUE(p.fed.coordinator("beta").evidence().verify_chain());
  // The forged abort changed nothing: the installed state stands.
  EXPECT_EQ(p.reg("beta", 0).value, bytes_of("L1"));
}

B2B_INSTANTIATE_RUNTIME_SUITE(Deals);

// ---------------------------------------------------------------------------
// Edge cases on the deterministic simulator.
// ---------------------------------------------------------------------------

TEST(DealEdge, RejectsEmptyAndDuplicateLegSpecs) {
  DealParties p(test::runtime_options(RuntimeKind::kSim, 23));

  RunHandle empty = p.fed.start_deal("alpha", DealCoordinator::DealSpec{});
  ASSERT_TRUE(empty->done());
  EXPECT_EQ(empty->outcome, RunResult::Outcome::kAborted);
  EXPECT_NE(empty->diagnostic.find("no legs"), std::string::npos);

  DealCoordinator::DealSpec dup;
  dup.legs.push_back(state_leg(kLedger, "L1"));
  dup.legs.push_back(state_leg(kLedger, "L2"));
  RunHandle dup_handle = p.fed.start_deal("alpha", dup);
  ASSERT_TRUE(dup_handle->done());
  EXPECT_EQ(dup_handle->outcome, RunResult::Outcome::kAborted);
  EXPECT_NE(dup_handle->diagnostic.find("duplicate leg object"),
            std::string::npos);
}

TEST(DealEdge, OverlappingDealOnBusyObjectUnwindsStagedLegs) {
  DealParties p(test::runtime_options(RuntimeKind::kSim, 23));

  // Deal 1 stages ledger + orders synchronously; nothing is delivered
  // until the simulator runs, so both objects are busy when deal 2 tries
  // to stage audit (fresh) then ledger (busy).
  DealCoordinator::DealSpec spec1;
  spec1.legs.push_back(state_leg(kLedger, "L1"));
  spec1.legs.push_back(state_leg(kOrders, "O1"));
  RunHandle h1 = p.fed.start_deal("alpha", spec1);

  DealCoordinator::DealSpec spec2;
  spec2.legs.push_back(state_leg(kAudit, "A1"));
  spec2.legs.push_back(state_leg(kLedger, "Lx"));
  RunHandle h2 = p.fed.start_deal("alpha", spec2);
  ASSERT_TRUE(h2->done());
  EXPECT_EQ(h2->outcome, RunResult::Outcome::kAborted);
  EXPECT_NE(h2->diagnostic.find("staging failed"), std::string::npos);
  EXPECT_NE(h2->diagnostic.find("busy"), std::string::npos);
  // The already-staged audit leg was unwound: its register rolled back.
  EXPECT_EQ(p.reg("alpha", 2).value, bytes_of("A0"));

  // Deal 1 is untouched by the failed overlap...
  ASSERT_TRUE(p.fed.run_until_done(h1));
  EXPECT_EQ(h1->outcome, RunResult::Outcome::kAgreed) << h1->diagnostic;
  p.fed.settle();

  // ...and audit was left cleanly coordinatable.
  DealCoordinator::DealSpec spec3;
  spec3.legs.push_back(state_leg(kAudit, "A2"));
  RunHandle h3 = p.fed.start_deal("alpha", spec3);
  ASSERT_TRUE(p.fed.run_until_done(h3));
  EXPECT_EQ(h3->outcome, RunResult::Outcome::kAgreed) << h3->diagnostic;
  p.fed.settle();
  for (const std::string name : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(p.reg(name, 0).value, bytes_of("L1")) << name;
    EXPECT_EQ(p.reg(name, 2).value, bytes_of("A2")) << name;
  }
  p.check_chains();
}

TEST(DealEdge, DeadlineAbortsWhenParticipantSilent) {
  DealParties p(test::runtime_options(RuntimeKind::kSim, 25));

  // gamma goes dark before the deal opens; its legs can never prepare.
  p.fed.crash_party("gamma");

  DealCoordinator::DealSpec spec;
  spec.legs.push_back(state_leg(kLedger, "L1"));
  spec.legs.push_back(state_leg(kAudit, "A1"));
  spec.deadline_micros = 500'000;
  RunHandle h = p.fed.start_deal("alpha", spec);
  p.fed.scheduler().run_until(p.fed.scheduler().now() + 3'000'000);
  ASSERT_TRUE(h->done()) << "deal did not abort on deadline";
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAborted);
  EXPECT_NE(h->diagnostic.find("deadline expired"), std::string::npos)
      << h->diagnostic;

  // The live parties rolled back (no settle: gamma is dead and its
  // retransmit chains are deliberately left undrained).
  for (const std::string name : {"alpha", "beta"}) {
    EXPECT_EQ(p.reg(name, 0).value, bytes_of("L0")) << name;
    EXPECT_EQ(p.reg(name, 2).value, bytes_of("A0")) << name;
    EXPECT_EQ(p.fed.coordinator(name).violations_detected(), 0u) << name;
    EXPECT_TRUE(p.fed.coordinator(name).evidence().verify_chain()) << name;
  }
}

// ---------------------------------------------------------------------------
// The crash-point campaign over the deal points.
// ---------------------------------------------------------------------------

/// Three organisations sharing two journaled objects for the campaign.
struct DealRecoveryWorld {
  TestRegister regs[3][2];  // [party][0=ledger, 1=audit]
  Federation fed;

  static constexpr const char* kNames[3] = {"alpha", "beta", "gamma"};

  DealRecoveryWorld(const std::string& tag, RuntimeKind kind,
                    std::uint64_t seed)
      : fed({"alpha", "beta", "gamma"}, journaled_options(tag, kind, seed)) {
    for (std::size_t p = 0; p < 3; ++p) {
      fed.register_object(kNames[p], kLedger, regs[p][0]);
      fed.register_object(kNames[p], kAudit, regs[p][1]);
    }
    fed.bootstrap_object(kLedger, {"alpha", "beta", "gamma"},
                         bytes_of("L0"));
    fed.bootstrap_object(kAudit, {"alpha", "beta", "gamma"}, bytes_of("A0"));
  }

  std::size_t index_of(const std::string& name) const {
    for (std::size_t p = 0; p < 3; ++p) {
      if (name == kNames[p]) return p;
    }
    return 0;
  }

  TestRegister& reg(const std::string& name, std::size_t obj_index) {
    return regs[index_of(name)][obj_index];
  }

  /// Agree a state on both objects so every journal holds snapshots and
  /// there is validated state a faulty recovery could diverge from.
  void warm_up() {
    reg("alpha", 0).value = bytes_of("warm-L");
    RunHandle h1 = fed.coordinator("alpha").propagate_new_state(
        kLedger, reg("alpha", 0).get_state());
    ASSERT_TRUE(fed.run_until_done(h1));
    ASSERT_EQ(h1->outcome, RunResult::Outcome::kAgreed);
    reg("alpha", 1).value = bytes_of("warm-A");
    RunHandle h2 = fed.coordinator("alpha").propagate_new_state(
        kAudit, reg("alpha", 1).get_state());
    ASSERT_TRUE(fed.run_until_done(h2));
    ASSERT_EQ(h2->outcome, RunResult::Outcome::kAgreed);
    fed.settle();
  }

  void re_register(const std::string& name) {
    fed.register_object(name, kLedger, reg(name, 0));
    fed.register_object(name, kAudit, reg(name, 1));
  }

  /// Identical tuples, verified chains, zero violations, and — the deal
  /// invariant — ledger and audit moved together or not at all.
  void check_safety() {
    for (const ObjectId& object : {kLedger, kAudit}) {
      const StateTuple& agreed =
          fed.coordinator("alpha").replica(object).agreed_tuple();
      for (const std::string name : {"alpha", "beta", "gamma"}) {
        EXPECT_EQ(fed.coordinator(name).replica(object).agreed_tuple(),
                  agreed)
            << name << "/" << object.str();
      }
    }
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = fed.coordinator(name);
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
      const bool ledger_new = reg(name, 0).value == bytes_of("L2");
      const bool audit_new = reg(name, 1).value == bytes_of("A2");
      EXPECT_EQ(ledger_new, audit_new)
          << name << ": deal atomicity broken across recovery";
    }
  }

  bool converged(const Bytes& ledger_value, const Bytes& audit_value) {
    for (const ObjectId& object : {kLedger, kAudit}) {
      const StateTuple& agreed =
          fed.coordinator("alpha").replica(object).agreed_tuple();
      for (const std::string name : {"beta", "gamma"}) {
        if (!(fed.coordinator(name).replica(object).agreed_tuple() ==
              agreed)) {
          return false;
        }
      }
      for (const std::string name : {"alpha", "beta", "gamma"}) {
        if (fed.coordinator(name).replica(object).busy()) return false;
      }
    }
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      if (reg(name, 0).value != ledger_value) return false;
      if (reg(name, 1).value != audit_value) return false;
    }
    return true;
  }

  Bytes fingerprint() {
    Bytes out;
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = fed.coordinator(name);
      const store::EvidenceLog& evidence = coord.evidence();
      out.push_back(static_cast<std::uint8_t>(evidence.size()));
      if (!evidence.empty()) {
        Bytes tail = evidence.at(evidence.size() - 1).encode();
        out.insert(out.end(), tail.begin(), tail.end());
      }
      for (const ObjectId& object : {kLedger, kAudit}) {
        Bytes tuple = coord.replica(object).agreed_tuple().encode();
        out.insert(out.end(), tuple.begin(), tuple.end());
      }
      for (std::size_t o = 0; o < 2; ++o) {
        const Bytes& value = reg(name, o).value;
        out.insert(out.end(), value.begin(), value.end());
      }
    }
    Bytes events = bytes_of(std::to_string(fed.scheduler().events_executed()));
    out.insert(out.end(), events.begin(), events.end());
    return out;
  }
};

/// One deal campaign case on the deterministic simulator: crash `crasher`
/// at `point` in the middle of a two-leg deal, recover it from its
/// journal, and require convergence to an all-or-nothing outcome. With
/// `veto`, gamma rejects the audit leg, so the correct outcome is a full
/// abort. Returns the post-recovery deployment fingerprint.
Bytes run_deal_sim_case(const std::string& point, const std::string& crasher,
                        std::uint64_t seed, bool veto,
                        const std::string& tag_suffix = "") {
  const std::string tag =
      test::sanitized_point(point) + "_" + crasher + tag_suffix;
  Bytes fingerprint;
  {
    DealRecoveryWorld w(tag, RuntimeKind::kSim, seed);
    w.warm_up();
    if (veto) {
      w.reg("gamma", 1).policy = [](BytesView, const ValidationContext&) {
        return Decision::rejected("audit says no");
      };
    }

    w.fed.coordinator(crasher).arm_crash_point(point);
    DealCoordinator::DealSpec spec;
    spec.legs.push_back(state_leg(kLedger, "L2"));
    spec.legs.push_back(state_leg(kAudit, "A2"));
    spec.deadline_micros = 2'000'000;
    RunHandle h = w.fed.start_deal("alpha", spec);
    EXPECT_TRUE(w.fed.executor().run_until(
        [&] { return w.fed.coordinator(crasher).crashed(); }))
        << "crash point never hit";

    w.fed.crash_party(crasher);
    w.fed.scheduler().run_until(w.fed.scheduler().now() + 300'000);

    Coordinator& revived = w.fed.recover_party(crasher);
    w.re_register(crasher);
    EXPECT_TRUE(revived.recovered());
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    // A deal killed before its first journal barrier never legally
    // existed; one killed before the open record was staged-only and is
    // cancelled on recovery. Everything else must reach commit — except
    // under the veto, where the one honest outcome is a full abort.
    const bool expected_commit = !veto &&
                                 point != "deal-stage.pre-journal" &&
                                 point != "deal-open.pre-journal";
    const Bytes ledger_value =
        expected_commit ? bytes_of("L2") : bytes_of("warm-L");
    const Bytes audit_value =
        expected_commit ? bytes_of("A2") : bytes_of("warm-A");
    EXPECT_TRUE(w.fed.executor().run_until(
        [&] { return w.converged(ledger_value, audit_value); }))
        << "deployment did not converge after recovery at " << point;
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    if (crasher != "alpha") {
      // The initiator survived, so its deal handle must terminate.
      EXPECT_TRUE(h->done());
      if (veto) {
        EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed) << h->diagnostic;
        EXPECT_EQ(h->vetoers.size(), 1u);
        if (!h->vetoers.empty()) {
          EXPECT_EQ(h->vetoers[0], PartyId{"gamma"});
        }
      } else {
        EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
      }
    }
    w.fed.settle();
    w.check_safety();
    test::expect_fully_anchored(w.fed);
    fingerprint = w.fingerprint();
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_deal_" + tag));
  return fingerprint;
}

TEST(DealCrashCampaign, InitiatorCrashEveryPoint) {
  for (const std::string& point : test::kDealInitiatorPoints) {
    SCOPED_TRACE(point);
    run_deal_sim_case(point, "alpha", test::campaign_seed(), false);
  }
}

TEST(DealCrashCampaign, ParticipantCrashEnlistPoints) {
  for (const std::string& point : test::kDealParticipantPoints) {
    if (point.find("enlist") == std::string::npos) continue;
    SCOPED_TRACE(point);
    run_deal_sim_case(point, "beta", test::campaign_seed(), false);
  }
}

TEST(DealCrashCampaign, ParticipantCrashAbortPoints) {
  for (const std::string& point : test::kDealParticipantPoints) {
    if (point.find("abort") == std::string::npos) continue;
    SCOPED_TRACE(point);
    run_deal_sim_case(point, "beta", test::campaign_seed(), true);
  }
}

TEST(DealCrashCampaign, CampaignCasesAreDeterministic) {
  const std::uint64_t seed = test::campaign_seed();
  EXPECT_EQ(run_deal_sim_case("deal-decide.journaled", "alpha", seed, false,
                              "_det1"),
            run_deal_sim_case("deal-decide.journaled", "alpha", seed, false,
                              "_det2"));
  EXPECT_EQ(run_deal_sim_case("deal-abort-recv.pre-journal", "beta", seed,
                              true, "_det1"),
            run_deal_sim_case("deal-abort-recv.pre-journal", "beta", seed,
                              true, "_det2"));
}

/// Representative deal points on a real-thread runtime: same shape as the
/// sim cases, with wall-clock downtime instead of virtual time.
void run_realtime_deal_case(const std::string& point, RuntimeKind kind) {
  const std::string tag = test::sanitized_point(point) + "_rt_" +
                          test::runtime_suffix(kind);
  {
    DealRecoveryWorld w(tag, kind, test::campaign_seed());
    w.warm_up();

    w.fed.coordinator("alpha").arm_crash_point(point);
    DealCoordinator::DealSpec spec;
    spec.legs.push_back(state_leg(kLedger, "L2"));
    spec.legs.push_back(state_leg(kAudit, "A2"));
    RunHandle h = w.fed.start_deal("alpha", spec);
    (void)h;  // orphaned by the crash; the resumed handle is the live one
    ASSERT_TRUE(w.fed.executor().run_until(
        [&] { return w.fed.coordinator("alpha").crashed(); }));

    w.fed.crash_party("alpha");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    Coordinator& revived = w.fed.recover_party("alpha");
    w.re_register("alpha");
    EXPECT_TRUE(revived.recovered());
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    // Shard lanes write replica tuples and register values, so this thread
    // reads them only after settle() has drained the lanes and synchronised
    // with them. Until then it waits on the resumed handles (atomics); the
    // deal layer closes its handle after the last leg installs.
    EXPECT_TRUE(w.fed.executor().run_until([&] {
      for (const RunHandle& r : resumed) {
        if (!r->done()) return false;
      }
      return true;
    })) << "resumed deal did not close at " << point;
    w.fed.settle();
    EXPECT_TRUE(w.converged(bytes_of("L2"), bytes_of("A2")))
        << "deployment did not converge after recovery at " << point;
    w.check_safety();
    test::expect_fully_anchored(w.fed);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_deal_" + tag));
}

TEST(DealCrashCampaignThreaded, InitiatorCrashBeforeDecisionJournaled) {
  run_realtime_deal_case("deal-decide.pre-journal", RuntimeKind::kThreaded);
}

TEST(DealCrashCampaignThreaded, InitiatorCrashAfterDecisionJournaled) {
  run_realtime_deal_case("deal-decide.journaled", RuntimeKind::kThreaded);
}

// ---------------------------------------------------------------------------
// TTP escape hatches under crashes (§7 machinery at the deal level).
// ---------------------------------------------------------------------------

/// The initiator crashes with every leg prepared but the decision never
/// journaled. Parked participants escape through their per-run §7
/// deadlines and receive certified aborts; when the recovered initiator
/// re-derives a commit and registers it, the TTP — which wrote those
/// per-run aborts into its cache — forces a certified deal abort, keeping
/// the deal outcome consistent with what participants were already told.
/// Runs the scenario up to the resumed initiator and hands back its
/// resumed handles.
void withhold_decision_until_certified_abort(DealRecoveryWorld& w,
                                             std::vector<RunHandle>* resumed) {
  w.warm_up();
  w.fed.enable_ttp_termination(kLedger, 500'000);
  w.fed.enable_ttp_termination(kAudit, 500'000);
  w.fed.enable_deal_escape();

  w.fed.coordinator("alpha").arm_crash_point("deal-decide.pre-journal");
  DealCoordinator::DealSpec spec;
  spec.legs.push_back(state_leg(kLedger, "L2"));
  spec.legs.push_back(state_leg(kAudit, "A2"));
  RunHandle h = w.fed.start_deal("alpha", spec);
  (void)h;
  ASSERT_TRUE(w.fed.executor().run_until(
      [&] { return w.fed.coordinator("alpha").crashed(); }));

  w.fed.crash_party("alpha");
  // Long downtime: every parked participant hits its per-run TTP
  // deadline and collects a certified abort.
  w.fed.scheduler().run_until(w.fed.scheduler().now() + 2'000'000);

  Coordinator& revived = w.fed.recover_party("alpha");
  w.re_register("alpha");
  w.fed.enable_ttp_termination(kLedger, 500'000);
  w.fed.enable_ttp_termination(kAudit, 500'000);
  w.fed.enable_deal_escape();
  *resumed = revived.resume_recovered_runs();
}

/// The deployment converges on the certified abort.
TEST(DealTtpEscape, WithheldDecisionEndsInCertifiedAbort) {
  const std::string tag = "ttp_withheld";
  {
    DealRecoveryWorld w(tag, RuntimeKind::kSim, 17);
    std::vector<RunHandle> resumed;
    ASSERT_NO_FATAL_FAILURE(withhold_decision_until_certified_abort(w, &resumed));

    EXPECT_TRUE(w.fed.executor().run_until(
        [&] { return w.converged(bytes_of("warm-L"), bytes_of("warm-A")); }))
        << "deployment did not converge on the certified abort";
    bool saw_certified_abort = false;
    for (const RunHandle& r : resumed) {
      EXPECT_TRUE(r->done());
      if (r->diagnostic.find("ttp certified abort") != std::string::npos) {
        saw_certified_abort = true;
        EXPECT_EQ(r->outcome, RunResult::Outcome::kAborted);
      }
    }
    EXPECT_TRUE(saw_certified_abort)
        << "resumed deal did not surface the TTP's certified abort";
    w.fed.settle();
    w.check_safety();
    EXPECT_EQ(w.fed.termination_ttp().deal_aborts_issued(), 1u);
    EXPECT_EQ(w.fed.termination_ttp().deal_commits_issued(), 0u);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_deal_" + tag));
}

/// The initiator's own record of the same deal: it signed a commit to
/// register with the TTP, then the abort the TTP certified and the legs
/// were sent. Ruled from its evidence log alone, every leg is ABORTED,
/// with no equivocation and nobody to blame.
TEST(DealTtpEscape, InitiatorRulesCertifiedAbortWithoutBlame) {
  const std::string tag = "ttp_withheld_arbiter";
  {
    DealRecoveryWorld w(tag, RuntimeKind::kSim, 17);
    std::vector<RunHandle> resumed;
    ASSERT_NO_FATAL_FAILURE(withhold_decision_until_certified_abort(w, &resumed));
    ASSERT_TRUE(w.fed.executor().run_until(
        [&] { return w.converged(bytes_of("warm-L"), bytes_of("warm-A")); }));
    w.fed.settle();

    std::string deal_id;
    for (const RunHandle& r : resumed) {
      if (r->diagnostic.find("ttp certified abort") != std::string::npos) {
        deal_id = r->run_label;
      }
    }
    Coordinator& alpha = w.fed.coordinator("alpha");
    std::optional<DealDecisionMsg> decision = alpha.deals().decision_of(deal_id);
    ASSERT_TRUE(decision.has_value());
    ASSERT_EQ(decision->decision.verdict, DealDecision::Verdict::kAbort);
    ASSERT_EQ(decision->decision.legs.size(), 2u);

    Arbiter arbiter{w.fed.make_verifier()};
    const auto keys = key_map(w.fed, {"alpha", "beta", "gamma"});
    for (const DealLeg& leg : decision->decision.legs) {
      Arbiter::DealArbitrationReport report = arbiter.arbitrate_deal(
          alpha.evidence(), leg.proposed.label(), keys);
      EXPECT_TRUE(report.enlist_found) << report.ruling;
      EXPECT_TRUE(report.decision_found) << report.ruling;
      EXPECT_FALSE(report.committed) << report.ruling;
      EXPECT_FALSE(report.equivocation) << report.ruling;
      EXPECT_TRUE(report.blamed.empty()) << report.ruling;
      EXPECT_NE(report.ruling.find("ABORTED"), std::string::npos)
          << report.ruling;
    }
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_deal_" + tag));
}

/// The initiator crashes between legs while replicating a TTP-certified
/// commit. Parked participants that escape during the downtime receive
/// the cached per-run COMMIT verdicts written by the atomic deal
/// registration — so they install rather than abort — and the recovered
/// initiator finishes driving the remaining leg from its journal.
TEST(DealTtpEscape, MidReplicateCrashStillCommitsEverywhere) {
  const std::string tag = "ttp_midreplicate";
  {
    DealRecoveryWorld w(tag, RuntimeKind::kSim, 19);
    w.warm_up();
    w.fed.enable_ttp_termination(kLedger, 500'000);
    w.fed.enable_ttp_termination(kAudit, 500'000);
    w.fed.enable_deal_escape();

    w.fed.coordinator("alpha").arm_crash_point("deal-decide.mid-replicate");
    DealCoordinator::DealSpec spec;
    spec.legs.push_back(state_leg(kLedger, "L2"));
    spec.legs.push_back(state_leg(kAudit, "A2"));
    RunHandle h = w.fed.start_deal("alpha", spec);
    (void)h;
    ASSERT_TRUE(w.fed.executor().run_until(
        [&] { return w.fed.coordinator("alpha").crashed(); }));

    w.fed.crash_party("alpha");
    w.fed.scheduler().run_until(w.fed.scheduler().now() + 2'000'000);

    Coordinator& revived = w.fed.recover_party("alpha");
    w.re_register("alpha");
    w.fed.enable_ttp_termination(kLedger, 500'000);
    w.fed.enable_ttp_termination(kAudit, 500'000);
    w.fed.enable_deal_escape();
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    EXPECT_TRUE(w.fed.executor().run_until(
        [&] { return w.converged(bytes_of("L2"), bytes_of("A2")); }))
        << "deployment did not converge on the certified commit";
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    w.fed.settle();
    w.check_safety();
    EXPECT_EQ(w.fed.termination_ttp().deal_commits_issued(), 1u);
    EXPECT_EQ(w.fed.termination_ttp().deal_aborts_issued(), 0u);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_deal_" + tag));
}

// ---------------------------------------------------------------------------
// Multi-deal soak: concurrent deals from different initiators, commit,
// veto and (on the simulator) crash rounds, across several seeds.
// ---------------------------------------------------------------------------

/// CI sweeps the soak under several seeds via this env var.
std::uint64_t deal_seed() {
  const char* seed = std::getenv("B2B_DEAL_SEED");
  return seed != nullptr ? std::strtoull(seed, nullptr, 10) : 3;
}

void run_deal_soak(RuntimeKind kind, std::uint64_t seed, bool with_crash,
                   const std::string& tag, int rounds = 6) {
  const std::vector<ObjectId> objects = {ObjectId{"obj0"}, ObjectId{"obj1"},
                                         ObjectId{"obj2"}, ObjectId{"obj3"}};
  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  {
    TestRegister regs[3][4];
    Federation fed({"alpha", "beta", "gamma"},
                   journaled_options(tag, kind, seed));
    for (std::size_t p = 0; p < names.size(); ++p) {
      for (std::size_t o = 0; o < objects.size(); ++o) {
        fed.register_object(names[p], objects[o], regs[p][o]);
      }
    }
    std::vector<Bytes> expected;
    for (std::size_t o = 0; o < objects.size(); ++o) {
      expected.push_back(bytes_of("v0-" + std::to_string(o)));
      fed.bootstrap_object(objects[o], names, expected.back());
    }
    auto reg_of = [&](const std::string& name, std::size_t o) -> TestRegister& {
      for (std::size_t p = 0; p < names.size(); ++p) {
        if (names[p] == name) return regs[p][o];
      }
      return regs[0][o];
    };

    for (int round = 0; round < rounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      // Rounds cycle: both deals commit; deal A vetoed on obj1; deal B
      // vetoed on obj3.
      const bool veto_a = round % 3 == 1;
      const bool veto_b = round % 3 == 2;
      auto reject = [](BytesView, const ValidationContext&) {
        return Decision::rejected("soak veto");
      };
      if (veto_a) reg_of("gamma", 1).policy = reject;
      if (veto_b) reg_of("gamma", 3).policy = reject;

      auto round_value = [&](std::size_t o) {
        return "r" + std::to_string(round) + "-" + std::to_string(o);
      };
      const bool crash_round =
          with_crash && kind == RuntimeKind::kSim && round == 3;
      if (crash_round) {
        fed.coordinator("alpha").arm_crash_point("deal-decide.journaled");
      }

      // Two concurrent deals from different initiators over disjoint
      // object pairs.
      DealCoordinator::DealSpec spec_a;
      spec_a.legs.push_back(state_leg(objects[0], round_value(0)));
      spec_a.legs.push_back(state_leg(objects[1], round_value(1)));
      spec_a.deadline_micros = 5'000'000;
      RunHandle ha = fed.start_deal("alpha", spec_a);
      DealCoordinator::DealSpec spec_b;
      spec_b.legs.push_back(state_leg(objects[2], round_value(2)));
      spec_b.legs.push_back(state_leg(objects[3], round_value(3)));
      spec_b.deadline_micros = 5'000'000;
      RunHandle hb = fed.start_deal("beta", spec_b);

      if (crash_round) {
        ASSERT_TRUE(fed.executor().run_until(
            [&] { return fed.coordinator("alpha").crashed(); }));
        fed.crash_party("alpha");
        fed.scheduler().run_until(fed.scheduler().now() + 300'000);
        Coordinator& revived = fed.recover_party("alpha");
        for (std::size_t o = 0; o < objects.size(); ++o) {
          fed.register_object("alpha", objects[o], reg_of("alpha", o));
        }
        ASSERT_TRUE(revived.recovered());
        std::vector<RunHandle> resumed = revived.resume_recovered_runs();
        // Per-run resume leaves deal legs to the deal layer, so the
        // resumed handles are the deal's (plus any responder-side runs,
        // which carry no deal label).
        RunHandle resumed_deal;
        for (const RunHandle& r : resumed) {
          if (!r->done()) resumed_deal = r;
        }
        if (resumed_deal) ha = resumed_deal;
      }

      ASSERT_TRUE(fed.run_until_done(ha)) << "deal A blocked";
      ASSERT_TRUE(fed.run_until_done(hb)) << "deal B blocked";
      if (veto_a) {
        EXPECT_EQ(ha->outcome, RunResult::Outcome::kVetoed) << ha->diagnostic;
        ASSERT_EQ(ha->vetoers.size(), 1u);
        EXPECT_EQ(ha->vetoers[0], PartyId{"gamma"});
      } else {
        EXPECT_EQ(ha->outcome, RunResult::Outcome::kAgreed) << ha->diagnostic;
        expected[0] = bytes_of(round_value(0));
        expected[1] = bytes_of(round_value(1));
      }
      if (veto_b) {
        EXPECT_EQ(hb->outcome, RunResult::Outcome::kVetoed) << hb->diagnostic;
        ASSERT_EQ(hb->vetoers.size(), 1u);
        EXPECT_EQ(hb->vetoers[0], PartyId{"gamma"});
      } else {
        EXPECT_EQ(hb->outcome, RunResult::Outcome::kAgreed) << hb->diagnostic;
        expected[2] = bytes_of(round_value(2));
        expected[3] = bytes_of(round_value(3));
      }
      fed.settle();

      // Mutual consistency after every round: identical values and
      // tuples everywhere, verified chains, zero honest blame.
      for (std::size_t o = 0; o < objects.size(); ++o) {
        const StateTuple& agreed =
            fed.coordinator("alpha").replica(objects[o]).agreed_tuple();
        for (const std::string& name : names) {
          EXPECT_EQ(reg_of(name, o).value, expected[o])
              << name << "/" << objects[o].str();
          EXPECT_EQ(fed.coordinator(name).replica(objects[o]).agreed_tuple(),
                    agreed)
              << name << "/" << objects[o].str();
        }
      }
      for (const std::string& name : names) {
        EXPECT_TRUE(fed.coordinator(name).evidence().verify_chain()) << name;
        EXPECT_EQ(fed.coordinator(name).violations_detected(), 0u) << name;
      }
      test::expect_fully_anchored(fed);
      reg_of("gamma", 1).policy = nullptr;
      reg_of("gamma", 3).policy = nullptr;
    }
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_deal_" + tag));
}

TEST(DealSoak, SimSeedsSweep) {
  const std::uint64_t base = deal_seed();
  for (std::uint64_t offset : {0, 2, 4, 8, 10, 14}) {
    const std::uint64_t seed = base + offset;
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_deal_soak(RuntimeKind::kSim, seed, /*with_crash=*/true,
                  "soak_sim_" + std::to_string(seed));
  }
}

// Once over real TCP sockets, on the reactor.
TEST(DealSoak, TcpRuntimeOnce) {
  run_deal_soak(RuntimeKind::kReactor, deal_seed(), /*with_crash=*/false,
                "soak_reactor", /*rounds=*/4);
}

// ---------------------------------------------------------------------------
// Golden-digest determinism for multi-deal interleavings.
// ---------------------------------------------------------------------------

// Frozen fingerprints of the deal scenario below at seed 31 (captured on
// the deterministic simulator; both coordinator lock modes must match).
// The pre-existing golden constants in sharding_test.cpp are untouched —
// these pin the *deal* subsystem's observable behaviour separately.
// Re-frozen once, when trusted stamps moved from every evidence record to
// one anchor per closed run (DESIGN.md §13(c)), which moved every evidence
// tail; the stamp-blind twins below stayed put. Edit them only for a
// change meant to alter the bytes of the evidence log, and only while the
// stamp-blind twins still match.
const char kDealGoldenPlain[] =
    "9b8e5f6928337c81370687b2fafabc3e94a71514fac3419ad626f978d6ad2efd";
const char kDealGoldenJournaled[] =
    "cce48ff93678983c5f8c21d93bdfb1fc5da98b8e8910abe24df6e962ac5e484a";
// Their stamp-blind twins (golden_digest.hpp), frozen while every evidence
// record still carried its own trusted stamp. Never edit them.
const char kDealGoldenStampBlindPlain[] =
    "f3cca781f020e8851dee3a073ec8bc9932e5686ac8c860fac122ac98068ddca6";
const char kDealGoldenStampBlindJournaled[] =
    "b55bcc900e566846af30d70f84ec353a65b6711fd19e1ddd2d9fb36494fc846b";

/// A fixed multi-deal scenario on the deterministic simulator: plain runs
/// and deals in flight together, a vetoed deal next to a committing one,
/// a single-member leg, and a TTP-escorted commit. The whole deployment
/// (evidence chains, tuples, values, deal stats, event count) is hashed.
test::GoldenDigests run_deal_golden(Federation::Options options,
                                    const std::string& journal_tag = "") {
  fs::path journal_root;
  if (!journal_tag.empty()) {
    journal_root = fs::temp_directory_path() / ("b2b_deal_" + journal_tag);
    fs::remove_all(journal_root);
    options.journal_root = journal_root.string();
    options.journal_fsync = false;
  }

  const ObjectId kSolo{"solo"};
  const std::vector<std::string> kAll = {"alpha", "beta", "gamma"};
  const std::vector<ObjectId> kObjects = {kLedger, kOrders, kAudit, kSolo};

  test::GoldenDigests digests;
  {
    TestRegister regs[3][4];
    Federation fed(std::vector<std::string>(kAll.begin(), kAll.end()),
                   options);
    for (std::size_t p = 0; p < kAll.size(); ++p) {
      for (std::size_t o = 0; o < kObjects.size(); ++o) {
        fed.register_object(kAll[p], kObjects[o], regs[p][o]);
      }
    }
    fed.bootstrap_object(kLedger, {"alpha", "beta", "gamma"}, bytes_of("L0"));
    fed.bootstrap_object(kOrders, {"alpha", "beta"}, bytes_of("O0"));
    fed.bootstrap_object(kAudit, {"alpha", "beta", "gamma"}, bytes_of("A0"));
    fed.bootstrap_object(kSolo, {"alpha"}, bytes_of("S0"));

    auto index_of = [&](const std::string& name) {
      for (std::size_t p = 0; p < kAll.size(); ++p) {
        if (kAll[p] == name) return p;
      }
      return std::size_t{0};
    };
    auto drive = [&](const RunHandle& h, RunResult::Outcome outcome) {
      if (!fed.run_until_done(h)) {
        ADD_FAILURE() << "deal golden run did not terminate";
        return;
      }
      EXPECT_EQ(h->outcome, outcome) << h->diagnostic;
    };

    // Phase 1: a two-leg deal next to a plain state run on a third object.
    DealCoordinator::DealSpec d1;
    d1.legs.push_back(state_leg(kLedger, "L1"));
    d1.legs.push_back(state_leg(kOrders, "O1"));
    RunHandle h1 = fed.start_deal("alpha", d1);
    regs[index_of("gamma")][2].value = bytes_of("A1");
    RunHandle p1 = fed.coordinator("gamma").propagate_new_state(
        kAudit, regs[index_of("gamma")][2].get_state());
    drive(h1, RunResult::Outcome::kAgreed);
    drive(p1, RunResult::Outcome::kAgreed);
    fed.settle();

    // Phase 2: a vetoed deal concurrent with a committing one that spans
    // a single-member leg (nothing to collect: prepared by construction).
    regs[index_of("gamma")][2].policy =
        [](BytesView, const ValidationContext&) {
          return Decision::rejected("golden veto");
        };
    DealCoordinator::DealSpec d2;
    d2.legs.push_back(state_leg(kLedger, "L2"));
    d2.legs.push_back(state_leg(kAudit, "A2"));
    RunHandle h2 = fed.start_deal("beta", d2);
    DealCoordinator::DealSpec d3;
    d3.legs.push_back(state_leg(kOrders, "O2"));
    d3.legs.push_back(state_leg(kSolo, "S1"));
    RunHandle h3 = fed.start_deal("alpha", d3);
    drive(h2, RunResult::Outcome::kVetoed);
    drive(h3, RunResult::Outcome::kAgreed);
    fed.settle();
    regs[index_of("gamma")][2].policy = nullptr;

    // Phase 3: a commit escorted through atomic TTP registration, with
    // an update-variant leg.
    fed.enable_deal_escape();
    DealCoordinator::DealSpec d4;
    d4.legs.push_back(state_leg(kLedger, "L3"));
    d4.legs.push_back(update_leg(kAudit, "+z", "A1+z"));
    RunHandle h4 = fed.start_deal("alpha", d4);
    drive(h4, RunResult::Outcome::kAgreed);
    fed.settle();

    test::GoldenHasher hasher;
    auto mix = [&](const Bytes& bytes) { hasher.mix(bytes); };
    for (std::size_t p = 0; p < kAll.size(); ++p) {
      Coordinator& coord = fed.coordinator(kAll[p]);
      const store::EvidenceLog& evidence = coord.evidence();
      EXPECT_TRUE(evidence.verify_chain()) << kAll[p];
      hasher.mix_evidence(evidence);
      for (std::size_t o = 0; o < kObjects.size(); ++o) {
        mix(coord.replica(kObjects[o]).agreed_tuple().encode());
        mix(coord.replica(kObjects[o]).group_tuple().encode());
        mix(regs[p][o].value);
      }
      const DealCoordinator::Stats stats = coord.deals().stats();
      mix(bytes_of(std::to_string(stats.started) + "/" +
                   std::to_string(stats.committed) + "/" +
                   std::to_string(stats.aborted) + "/" +
                   std::to_string(stats.ttp_registrations) + "/" +
                   std::to_string(stats.ttp_verdicts)));
      EXPECT_EQ(coord.violations_detected(), 0u) << kAll[p];
    }
    mix(bytes_of(std::to_string(fed.scheduler().events_executed())));
    digests = hasher.finish();
  }
  if (!journal_root.empty()) fs::remove_all(journal_root);
  return digests;
}

void expect_deal_golden(Federation::Options options, const std::string& tag) {
  const test::GoldenDigests plain = run_deal_golden(options);
  EXPECT_EQ(plain.bytes, kDealGoldenPlain);
  EXPECT_EQ(plain.stamp_blind, kDealGoldenStampBlindPlain);
  const test::GoldenDigests journaled = run_deal_golden(options, tag);
  EXPECT_EQ(journaled.bytes, kDealGoldenJournaled);
  EXPECT_EQ(journaled.stamp_blind, kDealGoldenStampBlindJournaled);
}

TEST(DealGolden, PerObjectMatchesFrozenDigest) {
  Federation::Options options = test::runtime_options(RuntimeKind::kSim, 31);
  options.lock_mode = Coordinator::LockMode::kPerObject;
  expect_deal_golden(options, "golden_j1");
}

TEST(DealGolden, CoarseMatchesFrozenDigest) {
  Federation::Options options = test::runtime_options(RuntimeKind::kSim, 31);
  options.lock_mode = Coordinator::LockMode::kCoarse;
  expect_deal_golden(options, "golden_j2");
}

}  // namespace
}  // namespace b2b::core
