// The sharding concurrency battery (DESIGN.md §9).
//
// The coordinator is sharded by ObjectId: each registered object owns its
// replica behind a per-shard mutex (plus, on the real-thread runtimes, a
// dedicated dispatch lane), while a shared_mutex-guarded router maps
// inbound messages to shards. This suite proves the three claims that
// split carries:
//
//   equivalence — on the deterministic simulator the sharded coordinator
//       (in both lock modes) reproduces the pre-shard coordinator
//       bit-for-bit: the golden multi-object scenario's SHA-256 digest,
//       captured before the refactor, must match verbatim;
//   isolation   — independent objects coordinate in parallel: concurrent
//       runs on different objects all agree, a stalled or blocked object
//       never delays another object's runs, and read-only router lookups
//       on distinct objects take only the shared map lock;
//   recovery    — the full crash-point campaign still holds with two live
//       objects: a run in flight on a second object when the crash fires
//       must converge too, and the journal replay rebuilds every shard
//       independently.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "b2b/federation.hpp"
#include "tests/support/anchoring.hpp"
#include "tests/support/crash_points.hpp"
#include "tests/support/golden_scenario.hpp"
#include "tests/support/runtime_param.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

namespace fs = std::filesystem;

// --- equivalence: the golden digests -----------------------------------------
//
// Captured on the pre-shard (single-lock, no-lane) coordinator at seed 29
// and verified stable across repeated runs. Any divergence in message
// order, evidence chains, tuples, object values or executed event count
// changes these digests. Re-frozen once, when trusted stamps moved from
// every evidence record to one anchor per closed run (DESIGN.md §13(c)):
// that moved every evidence tail, while the stamp-blind digests below
// stayed put. Edit them only for a change meant to alter the bytes of the
// evidence log, and only while the stamp-blind digests still match.
constexpr char kGoldenPlain[] =
    "9ced6a5b35f49d3ad3e3eb774319918ace6afa82371631612ce4d0e5566e85c1";
constexpr char kGoldenJournaled[] =
    "eca0eb0ff96c82fa0bb42ccbd05104795decaf8ab8b08f7051de5c5a977eef95";
// The stamp-blind digests of the same runs (golden_digest.hpp), frozen
// while every evidence record still carried its own trusted stamp. They
// ignore stamps and anchors, so they pin what each party recorded, and
// when, across changes to how the evidence log is time-stamped. Never
// edit them.
constexpr char kGoldenStampBlindPlain[] =
    "9e9fdf1bd3546f6083545ed7dcbd07dcc888257d096f28553b57194a33170d51";
constexpr char kGoldenStampBlindJournaled[] =
    "465f7f8a1b7e5d40ded7152ced21f91f186984cdaeaa53437c54debcb2cf5c71";

void expect_golden(Federation::Options options, const std::string& tag) {
  const test::GoldenDigests plain = test::run_golden_scenario(options);
  EXPECT_EQ(plain.bytes, kGoldenPlain);
  EXPECT_EQ(plain.stamp_blind, kGoldenStampBlindPlain);
  const test::GoldenDigests journaled =
      test::run_golden_scenario(options, tag);
  EXPECT_EQ(journaled.bytes, kGoldenJournaled);
  EXPECT_EQ(journaled.stamp_blind, kGoldenStampBlindJournaled);
}

TEST(ShardingEquivalence, PerObjectModeMatchesPreShardDigest) {
  Federation::Options options =
      test::runtime_options(RuntimeKind::kSim, /*seed=*/29);
  options.lock_mode = Coordinator::LockMode::kPerObject;
  expect_golden(options, "eq_per_object");
}

TEST(ShardingEquivalence, CoarseModeMatchesPreShardDigest) {
  // The kCoarse baseline (every shard behind one shared mutex, no lanes)
  // must be observationally identical too — it differs only in contention.
  Federation::Options options =
      test::runtime_options(RuntimeKind::kSim, /*seed=*/29);
  options.lock_mode = Coordinator::LockMode::kCoarse;
  expect_golden(options, "eq_coarse");
}

// --- isolation: concurrent runs on independent objects -----------------------

class Sharding : public test::RuntimeParamTest {};

TEST_P(Sharding, MultiObjectConcurrentRunsAgreeIndependently) {
  const std::vector<std::string> kNames = {"alpha", "beta", "gamma"};
  const std::vector<ObjectId> kObjs = {ObjectId{"obj0"}, ObjectId{"obj1"},
                                       ObjectId{"obj2"}, ObjectId{"obj3"}};
  TestRegister regs[3][4];
  Federation fed(kNames, options(/*seed=*/17));
  for (std::size_t p = 0; p < kNames.size(); ++p) {
    for (std::size_t k = 0; k < kObjs.size(); ++k) {
      fed.register_object(kNames[p], kObjs[k], regs[p][k]);
    }
  }
  for (const ObjectId& obj : kObjs) {
    fed.bootstrap_object(obj, kNames, bytes_of("genesis"));
  }

  // One run per object, all in flight together, each from a different
  // proposer.
  std::vector<RunHandle> handles;
  for (std::size_t k = 0; k < kObjs.size(); ++k) {
    const std::size_t p = k % kNames.size();
    regs[p][k].value = bytes_of("v-" + kObjs[k].str());
    handles.push_back(fed.coordinator(kNames[p]).propagate_new_state(
        kObjs[k], regs[p][k].get_state()));
  }
  for (const RunHandle& h : handles) {
    ASSERT_TRUE(fed.run_until_done(h));
    EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
  }
  fed.settle();

  for (std::size_t k = 0; k < kObjs.size(); ++k) {
    const StateTuple& agreed =
        fed.coordinator("alpha").replica(kObjs[k]).agreed_tuple();
    EXPECT_EQ(agreed.sequence, 1u);
    for (std::size_t p = 0; p < kNames.size(); ++p) {
      Coordinator& coord = fed.coordinator(kNames[p]);
      EXPECT_EQ(coord.replica(kObjs[k]).agreed_tuple(), agreed) << kNames[p];
      EXPECT_EQ(regs[p][k].value, bytes_of("v-" + kObjs[k].str()))
          << kNames[p];
      // Every shard saw protocol traffic of its own.
      EXPECT_GT(coord.shard_stats(kObjs[k]).messages_dispatched, 0u)
          << kNames[p] << "/" << kObjs[k].str();
    }
  }
  for (const std::string& name : kNames) {
    Coordinator& coord = fed.coordinator(name);
    EXPECT_TRUE(coord.evidence().verify_chain()) << name;
    EXPECT_EQ(coord.violations_detected(), 0u) << name;
    const Coordinator::RouterStats router = coord.router_stats();
    // The shard map's writer lock is taken by registration only; every
    // dispatch and lookup went through the shared (reader) side.
    EXPECT_EQ(router.map_exclusive_locks, kObjs.size()) << name;
    EXPECT_GT(router.messages_routed, 0u) << name;
    if (GetParam() == RuntimeKind::kSim) {
      EXPECT_EQ(router.lane_posts, 0u) << name;  // inline dispatch
    } else {
      EXPECT_GT(router.lane_posts, 0u) << name;  // strand dispatch
    }
  }
}

TEST_P(Sharding, StalledObjectDoesNotBlockOthers) {
  // "ledger" needs gamma (unanimity) but gamma is dead, so alpha's run on
  // it blocks indefinitely; "orders" lives on alpha+beta only and must
  // agree regardless. Pre-shard, both runs queued behind one coordinator
  // lock at each party.
  const ObjectId kBlocked{"ledger"};
  const ObjectId kFree{"orders"};
  TestRegister alpha_led, beta_led, gamma_led, alpha_ord, beta_ord;
  Federation fed({"alpha", "beta", "gamma"}, options(/*seed=*/23));
  fed.register_object("alpha", kBlocked, alpha_led);
  fed.register_object("beta", kBlocked, beta_led);
  fed.register_object("gamma", kBlocked, gamma_led);
  fed.register_object("alpha", kFree, alpha_ord);
  fed.register_object("beta", kFree, beta_ord);
  fed.bootstrap_object(kBlocked, {"alpha", "beta", "gamma"},
                       bytes_of("genesis"));
  fed.bootstrap_object(kFree, {"alpha", "beta"}, bytes_of("genesis"));

  fed.crash_party("gamma");
  alpha_led.value = bytes_of("stuck");
  RunHandle blocked = fed.coordinator("alpha").propagate_new_state(
      kBlocked, alpha_led.get_state());
  alpha_ord.value = bytes_of("flows");
  RunHandle free = fed.coordinator("alpha").propagate_new_state(
      kFree, alpha_ord.get_state());

  ASSERT_TRUE(fed.run_until_done(free));
  EXPECT_EQ(free->outcome, RunResult::Outcome::kAgreed) << free->diagnostic;
  EXPECT_FALSE(blocked->done());
}

B2B_INSTANTIATE_RUNTIME_SUITE(Sharding);

// The lane discriminator, on the runtimes where lanes exist: a replica
// blocked inside validate_state parks only its own object's dispatch
// lane. Pre-shard (or with lanes off) the blocked validate would wedge
// the party's receiver thread and with it every object at that party.
class ShardingLanes : public test::RuntimeParamTest {};

TEST_P(ShardingLanes, BlockedValidateOnOneObjectDoesNotBlockAnother) {
  const ObjectId kLedger{"ledger"};
  const ObjectId kOrders{"orders"};
  TestRegister alpha_led, beta_led, alpha_ord, beta_ord;
  Federation fed({"alpha", "beta"}, options(/*seed=*/31));
  fed.register_object("alpha", kLedger, alpha_led);
  fed.register_object("beta", kLedger, beta_led);
  fed.register_object("alpha", kOrders, alpha_ord);
  fed.register_object("beta", kOrders, beta_ord);
  fed.bootstrap_object(kLedger, {"alpha", "beta"}, bytes_of("genesis"));
  fed.bootstrap_object(kOrders, {"alpha", "beta"}, bytes_of("genesis"));

  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> entered{false};
  beta_led.policy = [&](BytesView, const ValidationContext&) {
    entered.store(true, std::memory_order_release);
    released.wait();  // parks beta's ledger lane, and only that lane
    return Decision::accepted();
  };

  alpha_led.value = bytes_of("blocked");
  RunHandle ledger_run = fed.coordinator("alpha").propagate_new_state(
      kLedger, alpha_led.get_state());
  ASSERT_TRUE(fed.executor().run_until(
      [&] { return entered.load(std::memory_order_acquire); }))
      << "beta never reached the blocking validate";

  // With beta's ledger lane wedged in validate, a run on orders must
  // still make the full round trip through beta.
  alpha_ord.value = bytes_of("flows");
  RunHandle orders_run = fed.coordinator("alpha").propagate_new_state(
      kOrders, alpha_ord.get_state());
  const bool orders_done = fed.run_until_done(orders_run);
  EXPECT_FALSE(ledger_run->done());

  release.set_value();  // un-park before any assertion can bail out
  ASSERT_TRUE(orders_done);
  EXPECT_EQ(orders_run->outcome, RunResult::Outcome::kAgreed)
      << orders_run->diagnostic;
  ASSERT_TRUE(fed.run_until_done(ledger_run));
  EXPECT_EQ(ledger_run->outcome, RunResult::Outcome::kAgreed)
      << ledger_run->diagnostic;
  fed.settle();
  EXPECT_EQ(beta_led.value, bytes_of("blocked"));
  EXPECT_EQ(beta_ord.value, bytes_of("flows"));
}

INSTANTIATE_TEST_SUITE_P(
    RealThreadRuntimes, ShardingLanes,
    ::testing::Values(RuntimeKind::kThreaded, RuntimeKind::kReactor),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
      return test::runtime_suffix(info.param);
    });

// --- isolation: read-only router lookups -------------------------------------

// Regression for the pre-shard coordinator, where replica()/has_object()
// took the one global recursive mutex even for read-only lookups: now
// they take only the router's shared lock, so concurrent lookups on
// distinct objects cannot contend on a writer. The proof is structural,
// via the Transport::Stats-style router counters: the exclusive-lock
// count must stay at exactly one per register_object call no matter how
// many lookups race.
TEST(ShardingRouter, ConcurrentLookupsOnDistinctObjectsStayOnSharedLock) {
  constexpr std::size_t kObjects = 4;
  constexpr int kItersPerThread = 20'000;
  TestRegister regs[kObjects];
  Federation fed({"alpha"}, test::runtime_options(RuntimeKind::kSim, 7));
  std::vector<ObjectId> objects;
  for (std::size_t k = 0; k < kObjects; ++k) {
    objects.push_back(ObjectId{"obj" + std::to_string(k)});
    fed.register_object("alpha", objects.back(), regs[k]);
  }
  Coordinator& coord = fed.coordinator("alpha");
  const Coordinator::RouterStats before = coord.router_stats();
  ASSERT_EQ(before.map_exclusive_locks, kObjects);

  std::atomic<int> misses{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kObjects; ++t) {
    threads.emplace_back([&, t] {
      const ObjectId& object = objects[t];
      for (int i = 0; i < kItersPerThread; ++i) {
        if (!coord.has_object(object)) misses.fetch_add(1);
        if (&coord.replica(object) == nullptr) misses.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(misses.load(), 0);
  const Coordinator::RouterStats after = coord.router_stats();
  // No lookup escalated to the writer lock...
  EXPECT_EQ(after.map_exclusive_locks, kObjects);
  EXPECT_GE(after.lookups - before.lookups,
            static_cast<std::uint64_t>(kObjects) * 2 * kItersPerThread);
  // ...and none of it counted as (or caused) message dispatch.
  EXPECT_EQ(after.messages_routed, 0u);
  for (const ObjectId& object : objects) {
    EXPECT_EQ(coord.shard_stats(object).messages_dispatched, 0u);
  }
}

// --- recovery: the crash campaign with two live objects ----------------------
//
// Same 34 named crash points as the single-object campaign in
// recovery_test.cpp (the lists are shared via tests/support/
// crash_points.hpp), but every deployment carries a second journaled
// object — usually with a run of its own in flight when the crash fires —
// and recovery must rebuild and converge both shards.

const ObjectId kMain{"ledger"};
const ObjectId kSide{"audit"};

std::string fresh_journal_root(const std::string& tag) {
  fs::path root = fs::temp_directory_path() / ("b2b_sharding_" + tag);
  fs::remove_all(root);
  return root.string();
}

Federation::Options journaled_sim_options(const std::string& tag,
                                          std::uint64_t seed) {
  Federation::Options options = test::runtime_options(RuntimeKind::kSim, seed);
  options.journal_root = fresh_journal_root(tag);
  return options;
}

/// Three organisations sharing two journaled objects.
struct TwoObjectParties {
  TestRegister alpha_main, beta_main, gamma_main;
  TestRegister alpha_side, beta_side, gamma_side;
  Federation fed;

  TwoObjectParties(const std::string& tag, std::uint64_t seed)
      : fed({"alpha", "beta", "gamma"}, journaled_sim_options(tag, seed)) {
    fed.register_object("alpha", kMain, alpha_main);
    fed.register_object("beta", kMain, beta_main);
    fed.register_object("gamma", kMain, gamma_main);
    fed.register_object("alpha", kSide, alpha_side);
    fed.register_object("beta", kSide, beta_side);
    fed.register_object("gamma", kSide, gamma_side);
    fed.bootstrap_object(kMain, {"alpha", "beta", "gamma"},
                         bytes_of("genesis"));
    fed.bootstrap_object(kSide, {"alpha", "beta", "gamma"},
                         bytes_of("side-genesis"));
  }

  TestRegister& main_obj(const std::string& name) {
    if (name == "alpha") return alpha_main;
    if (name == "beta") return beta_main;
    return gamma_main;
  }
  TestRegister& side_obj(const std::string& name) {
    if (name == "alpha") return alpha_side;
    if (name == "beta") return beta_side;
    return gamma_side;
  }

  void warm_up() {
    alpha_main.value = bytes_of("warm");
    RunHandle h = fed.coordinator("alpha").propagate_new_state(
        kMain, alpha_main.get_state());
    ASSERT_TRUE(fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    alpha_side.value = bytes_of("side-warm");
    RunHandle s = fed.coordinator("alpha").propagate_new_state(
        kSide, alpha_side.get_state());
    ASSERT_TRUE(fed.run_until_done(s));
    ASSERT_EQ(s->outcome, RunResult::Outcome::kAgreed);
    fed.settle();
  }

  void check_safety() {
    for (const ObjectId& object : {kMain, kSide}) {
      const StateTuple& agreed =
          fed.coordinator("alpha").replica(object).agreed_tuple();
      for (const std::string name : {"alpha", "beta", "gamma"}) {
        Coordinator& coord = fed.coordinator(name);
        EXPECT_EQ(coord.replica(object).agreed_tuple(), agreed)
            << name << "/" << object.str();
      }
    }
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = fed.coordinator(name);
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
    EXPECT_EQ(alpha_main.value, beta_main.value);
    EXPECT_EQ(alpha_main.value, gamma_main.value);
    EXPECT_EQ(alpha_side.value, beta_side.value);
    EXPECT_EQ(alpha_side.value, gamma_side.value);
  }
};

/// One state-run campaign case with a sidecar run in flight: a survivor
/// proposes on the second object, alpha proposes on the first, `crasher`
/// dies at `point`, and after recovery BOTH objects must converge.
void run_multi_sim_case(const std::string& point, const std::string& crasher,
                        std::uint64_t seed) {
  const std::string tag =
      "mo_" + test::sanitized_point(point) + "_" + crasher;
  {
    TwoObjectParties p(tag, seed);
    p.warm_up();

    // The sidecar proposer survives the crash; its armed peer only ever
    // acts as a responder on the sidecar run, so a propose.*/response.*
    // point armed at alpha cannot fire there (respond.* points at beta
    // can — then BOTH interrupted runs are the crasher's to recover).
    const std::string side_proposer = crasher == "gamma" ? "beta" : "gamma";
    p.fed.coordinator(crasher).arm_crash_point(point);
    p.side_obj(side_proposer).value = bytes_of("side2");
    RunHandle side = p.fed.coordinator(side_proposer).propagate_new_state(
        kSide, p.side_obj(side_proposer).get_state());
    p.alpha_main.value = bytes_of("v2");
    RunHandle h = p.fed.coordinator("alpha").propagate_new_state(
        kMain, p.alpha_main.get_state());
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator(crasher).crashed(); }))
        << "crash point never hit";

    p.fed.crash_party(crasher);
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party(crasher);
    p.fed.register_object(crasher, kMain, p.main_obj(crasher));
    p.fed.register_object(crasher, kSide, p.side_obj(crasher));
    EXPECT_TRUE(revived.recovered());
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    // Liveness on both shards: the main run converges exactly as in the
    // single-object campaign, and the sidecar run agrees too (its
    // proposer survived, so its handle must resolve kAgreed).
    const std::uint64_t expected_main_seq =
        point == "propose.pre-journal" ? 1u : 2u;
    auto converged = [&] {
      for (const std::string name : {"alpha", "beta", "gamma"}) {
        Coordinator& coord = p.fed.coordinator(name);
        Replica& main = coord.replica(kMain);
        Replica& side_rep = coord.replica(kSide);
        if (main.agreed_tuple().sequence != expected_main_seq ||
            side_rep.agreed_tuple().sequence != 2u || main.busy() ||
            side_rep.busy()) {
          return false;
        }
      }
      return true;
    };
    EXPECT_TRUE(p.fed.executor().run_until(converged))
        << "two-object deployment did not converge after recovery";
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    EXPECT_TRUE(side->done());
    EXPECT_EQ(side->outcome, RunResult::Outcome::kAgreed) << side->diagnostic;
    p.fed.settle();

    const Bytes expected_main =
        point == "propose.pre-journal" ? bytes_of("warm") : bytes_of("v2");
    EXPECT_EQ(p.alpha_main.value, expected_main);
    EXPECT_EQ(p.alpha_side.value, bytes_of("side2"));
    p.check_safety();
    test::expect_fully_anchored(p.fed);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_sharding_" + tag));
}

/// Four organisations, two objects: delta connects to the first while a
/// state run rides on the second.
struct MemberTwoObjectParties {
  TestRegister main_regs[4];
  TestRegister side_regs[4];
  std::vector<std::string> names = {"alpha", "beta", "gamma", "delta"};
  Federation fed;

  MemberTwoObjectParties(const std::string& tag, std::uint64_t seed)
      : fed({"alpha", "beta", "gamma", "delta"},
            journaled_sim_options(tag, seed)) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      fed.register_object(names[i], kMain, main_regs[i]);
      fed.register_object(names[i], kSide, side_regs[i]);
    }
    fed.bootstrap_object(kMain, {"alpha", "beta", "gamma"},
                         bytes_of("genesis"));
    fed.bootstrap_object(kSide, {"alpha", "beta", "gamma"},
                         bytes_of("side-genesis"));
  }

  std::size_t index_of(const std::string& name) const {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    return 0;
  }
  TestRegister& main_obj(const std::string& name) {
    return main_regs[index_of(name)];
  }
  TestRegister& side_obj(const std::string& name) {
    return side_regs[index_of(name)];
  }

  void warm_up() {
    main_obj("alpha").value = bytes_of("warm");
    RunHandle h = fed.coordinator("alpha").propagate_new_state(
        kMain, main_obj("alpha").get_state());
    ASSERT_TRUE(fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    side_obj("alpha").value = bytes_of("side-warm");
    RunHandle s = fed.coordinator("alpha").propagate_new_state(
        kSide, side_obj("alpha").get_state());
    ASSERT_TRUE(fed.run_until_done(s));
    ASSERT_EQ(s->outcome, RunResult::Outcome::kAgreed);
    fed.settle();
  }
};

/// One membership campaign case with a sidecar state run in flight:
/// delta's connect on the first object is interrupted by `crasher` dying
/// at `point` while alpha (never a membership crasher here) proposes on
/// the second object.
void run_multi_membership_case(const std::string& point,
                               const std::string& crasher,
                               std::uint64_t seed) {
  const std::string tag =
      "mom_" + test::sanitized_point(point) + "_" + crasher;
  const std::vector<std::string> kAll = {"alpha", "beta", "gamma", "delta"};
  const std::vector<std::string> kSideMembers = {"alpha", "beta", "gamma"};
  {
    MemberTwoObjectParties p(tag, seed);
    p.warm_up();

    p.fed.coordinator(crasher).arm_crash_point(point);
    p.side_obj("alpha").value = bytes_of("side2");
    RunHandle side = p.fed.coordinator("alpha").propagate_new_state(
        kSide, p.side_obj("alpha").get_state());
    RunHandle h =
        p.fed.coordinator("delta").propagate_connect(kMain, PartyId{"gamma"});
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator(crasher).crashed(); }))
        << "crash point never hit";

    p.fed.crash_party(crasher);
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party(crasher);
    p.fed.register_object(crasher, kMain, p.main_obj(crasher));
    p.fed.register_object(crasher, kSide, p.side_obj(crasher));
    EXPECT_TRUE(revived.recovered());
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    // Liveness: the connect admits delta AND the sidecar run agrees.
    auto converged = [&] {
      const GroupTuple& group =
          p.fed.coordinator("alpha").replica(kMain).group_tuple();
      for (const std::string& name : kAll) {
        Replica& r = p.fed.coordinator(name).replica(kMain);
        if (!r.connected() || r.members().size() != 4 || r.busy() ||
            !(r.group_tuple() == group)) {
          return false;
        }
      }
      for (const std::string& name : kSideMembers) {
        Replica& r = p.fed.coordinator(name).replica(kSide);
        if (r.agreed_tuple().sequence != 2u || r.busy()) return false;
      }
      return true;
    };
    EXPECT_TRUE(p.fed.executor().run_until(converged))
        << "two-object deployment did not converge after recovery";
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    EXPECT_TRUE(side->done());
    EXPECT_EQ(side->outcome, RunResult::Outcome::kAgreed) << side->diagnostic;
    if (crasher != "delta") {
      EXPECT_TRUE(h->done());
      EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    }
    p.fed.settle();

    EXPECT_EQ(p.main_obj("delta").value, bytes_of("warm"));
    const GroupTuple& group =
        p.fed.coordinator("alpha").replica(kMain).group_tuple();
    const StateTuple& side_agreed =
        p.fed.coordinator("alpha").replica(kSide).agreed_tuple();
    for (const std::string& name : kAll) {
      Coordinator& coord = p.fed.coordinator(name);
      EXPECT_EQ(coord.replica(kMain).group_tuple(), group) << name;
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
    for (const std::string& name : kSideMembers) {
      EXPECT_EQ(p.fed.coordinator(name).replica(kSide).agreed_tuple(),
                side_agreed)
          << name;
      EXPECT_EQ(p.side_obj(name).value, bytes_of("side2")) << name;
    }
    test::expect_fully_anchored(p.fed);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_sharding_" + tag));
}

/// One termination campaign case with a second shard in the journals: a
/// run on the side object completes BEFORE gamma goes silent (a dead
/// responder would block it just like the doomed main run), so the
/// post-crash journal replay must rebuild the side shard to its agreed
/// state while the TTP settles the blocked main run.
void run_multi_termination_case(const std::string& point,
                                std::uint64_t seed) {
  const std::string tag = "mot_" + test::sanitized_point(point);
  {
    TwoObjectParties p(tag, seed);
    p.fed.enable_ttp_termination(kMain, 500'000);
    p.warm_up();

    p.beta_side.value = bytes_of("side2");
    RunHandle side = p.fed.coordinator("beta").propagate_new_state(
        kSide, p.beta_side.get_state());
    ASSERT_TRUE(p.fed.run_until_done(side));
    ASSERT_EQ(side->outcome, RunResult::Outcome::kAgreed);
    p.fed.settle();

    p.fed.crash_party("gamma");
    p.fed.coordinator("alpha").arm_crash_point(point);
    p.alpha_main.value = bytes_of("doomed");
    RunHandle h = p.fed.coordinator("alpha").propagate_new_state(
        kMain, p.alpha_main.get_state());
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator("alpha").crashed(); }))
        << "crash point never hit";
    EXPECT_FALSE(h->done());

    p.fed.crash_party("alpha");
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party("alpha");
    p.fed.register_object("alpha", kMain, p.alpha_main);
    p.fed.register_object("alpha", kSide, p.alpha_side);
    p.fed.enable_ttp_termination(kMain, 500'000);  // config is re-supplied
    EXPECT_TRUE(revived.recovered());
    // The side shard rebuilt to its agreed state straight from the
    // journal, independent of the blocked main run.
    EXPECT_EQ(revived.replica(kSide).agreed_tuple().sequence, 2u);
    EXPECT_EQ(p.alpha_side.value, bytes_of("side2"));
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    auto released = [&] {
      return p.fed.coordinator("alpha")
                 .replica(kMain)
                 .active_run_labels()
                 .empty() &&
             p.fed.coordinator("beta")
                 .replica(kMain)
                 .active_run_labels()
                 .empty();
    };
    EXPECT_TRUE(p.fed.executor().run_until(released))
        << "blocked run did not terminate after recovery";
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    p.fed.settle();

    EXPECT_GE(p.fed.termination_ttp().aborts_issued(), 1u);
    EXPECT_EQ(p.fed.termination_ttp().decisions_issued(), 0u);
    EXPECT_EQ(p.alpha_main.value, bytes_of("warm"));
    EXPECT_EQ(p.beta_main.value, bytes_of("warm"));
    EXPECT_FALSE(
        p.fed.coordinator("alpha").evidence().find_kind("ttp.abort").empty());

    // gamma restarts as a bystander and rebuilds both shards too.
    Coordinator& bystander = p.fed.recover_party("gamma");
    p.fed.register_object("gamma", kMain, p.gamma_main);
    p.fed.register_object("gamma", kSide, p.gamma_side);
    EXPECT_TRUE(bystander.resume_recovered_runs().empty());
    EXPECT_EQ(bystander.replica(kSide).agreed_tuple().sequence, 2u);
    EXPECT_EQ(p.gamma_side.value, bytes_of("side2"));
    p.fed.settle();
    p.check_safety();
    test::expect_fully_anchored(p.fed);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_sharding_" + tag));
}

TEST(MultiObjectCrashCampaign, ProposerCrashEveryPoint) {
  for (const std::string& point : test::kProposerPoints) {
    SCOPED_TRACE(point);
    run_multi_sim_case(point, "alpha", test::campaign_seed());
  }
}

TEST(MultiObjectCrashCampaign, ResponderCrashEveryPoint) {
  for (const std::string& point : test::kResponderPoints) {
    SCOPED_TRACE(point);
    run_multi_sim_case(point, "beta", test::campaign_seed());
  }
}

TEST(MultiObjectCrashCampaign, SponsorCrashEveryMembershipPoint) {
  for (const std::string& point : test::kProposerPoints) {
    SCOPED_TRACE(point);
    run_multi_membership_case(point, "gamma", test::campaign_seed());
  }
}

TEST(MultiObjectCrashCampaign, RecipientCrashEveryMembershipPoint) {
  for (const std::string& point : test::kResponderPoints) {
    SCOPED_TRACE(point);
    run_multi_membership_case(point, "beta", test::campaign_seed());
  }
}

TEST(MultiObjectCrashCampaign, SubjectCrashAtRequestJournaled) {
  run_multi_membership_case(test::kSubjectPoint, "delta",
                            test::campaign_seed());
}

TEST(MultiObjectCrashCampaign, TerminationCrashEveryPoint) {
  for (const std::string& point : test::kTerminationPoints) {
    SCOPED_TRACE(point);
    run_multi_termination_case(point, test::campaign_seed());
  }
}

}  // namespace
}  // namespace b2b::core
