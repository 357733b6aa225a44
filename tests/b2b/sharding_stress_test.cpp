// Sharding stress battery: 8 objects × 4 organisations on the REAL
// runtimes (TCP sockets on one shared node, and on one node per party)
// under frame-level fault injection, with per-object dispatch lanes on.
// Every round drives one state run per object concurrently — eight
// shards coordinating in parallel at every party — and one object
// additionally takes a disconnect/reconnect membership cycle while the
// other seven keep running state runs. This is the suite CI runs under
// ThreadSanitizer: the per-shard mutexes, the router's shared lock, the
// lane handoffs and the global evidence/journal/stats sections all get
// exercised across many true threads at once.
//
// Pass criteria: every run terminates kAgreed, every object converges
// (identical agreed tuples and values at all its members), every
// evidence chain verifies, zero violations recorded anywhere — and the
// fabric really did inject faults.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "b2b/federation.hpp"
#include "tests/support/runtime_param.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

class ShardingStress : public test::RuntimeParamTest {};

TEST_P(ShardingStress, EightObjectsFourPartiesConvergeUnderFaults) {
  constexpr std::size_t kObjects = 8;
  const std::vector<std::string> kNames = {"alpha", "beta", "gamma",
                                           "delta"};
  // Registers outlive the federation: runtime threads stop first.
  TestRegister regs[4][kObjects];
  Federation fed(kNames, options(/*seed=*/41, /*drop=*/0.05, /*dup=*/0.05));

  std::vector<ObjectId> objects;
  for (std::size_t k = 0; k < kObjects; ++k) {
    objects.push_back(ObjectId{"obj" + std::to_string(k)});
    for (std::size_t p = 0; p < kNames.size(); ++p) {
      fed.register_object(kNames[p], objects[k], regs[p][k]);
    }
    fed.bootstrap_object(objects[k], kNames, bytes_of("genesis"));
  }

  auto propose = [&](std::size_t k, int round) {
    const std::size_t p = (k + static_cast<std::size_t>(round)) %
                          kNames.size();
    regs[p][k].value =
        bytes_of("r" + std::to_string(round) + "-o" + std::to_string(k));
    return fed.coordinator(kNames[p]).propagate_new_state(
        objects[k], regs[p][k].get_state());
  };
  auto drive = [&](std::vector<RunHandle> handles) {
    for (const RunHandle& h : handles) {
      ASSERT_TRUE(fed.run_until_done(h)) << h->diagnostic;
      EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
    }
    fed.settle();
  };

  // Round 0: one concurrent state run per object.
  {
    std::vector<RunHandle> handles;
    for (std::size_t k = 0; k < kObjects; ++k) {
      handles.push_back(propose(k, 0));
    }
    drive(std::move(handles));
  }
  // Round 1: a membership run (delta leaves obj0) rides alongside state
  // runs on the other seven shards.
  {
    std::vector<RunHandle> handles;
    handles.push_back(fed.coordinator("delta").propagate_disconnect(
        objects[0]));
    for (std::size_t k = 1; k < kObjects; ++k) {
      handles.push_back(propose(k, 1));
    }
    drive(std::move(handles));
  }
  // Round 2: delta reconnects to obj0 while the other seven run again.
  {
    std::vector<RunHandle> handles;
    handles.push_back(fed.coordinator("delta").propagate_connect(
        objects[0], PartyId{"alpha"}));
    for (std::size_t k = 1; k < kObjects; ++k) {
      handles.push_back(propose(k, 2));
    }
    drive(std::move(handles));
  }

  // Per-object convergence: identical tuples, groups and values at every
  // member (delta is back in obj0 after the reconnect).
  for (std::size_t k = 0; k < kObjects; ++k) {
    const StateTuple& agreed =
        fed.coordinator("alpha").replica(objects[k]).agreed_tuple();
    const GroupTuple& group =
        fed.coordinator("alpha").replica(objects[k]).group_tuple();
    EXPECT_EQ(agreed.sequence, k == 0 ? 1u : 3u) << objects[k].str();
    for (std::size_t p = 0; p < kNames.size(); ++p) {
      Replica& replica = fed.coordinator(kNames[p]).replica(objects[k]);
      EXPECT_TRUE(replica.connected()) << kNames[p] << "/" << objects[k].str();
      EXPECT_EQ(replica.agreed_tuple(), agreed)
          << kNames[p] << "/" << objects[k].str();
      EXPECT_EQ(replica.group_tuple(), group)
          << kNames[p] << "/" << objects[k].str();
      EXPECT_EQ(regs[p][k].value, regs[0][k].value)
          << kNames[p] << "/" << objects[k].str();
      EXPECT_GT(fed.coordinator(kNames[p])
                    .shard_stats(objects[k])
                    .messages_dispatched,
                0u)
          << kNames[p] << "/" << objects[k].str();
    }
  }
  for (const std::string& name : kNames) {
    Coordinator& coord = fed.coordinator(name);
    EXPECT_TRUE(coord.evidence().verify_chain()) << name;
    EXPECT_EQ(coord.violations_detected(), 0u) << name;
    // Lanes were on and carried the dispatch.
    EXPECT_GT(coord.router_stats().lane_posts, 0u) << name;
  }
  // The fabric really was hostile.
  const test::FabricStats fabric = test::fabric_stats(fed);
  EXPECT_GT(fabric.dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RealThreadRuntimes, ShardingStress,
    ::testing::Values(RuntimeKind::kThreaded, RuntimeKind::kReactor),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
      return test::runtime_suffix(info.param);
    });

}  // namespace
}  // namespace b2b::core
