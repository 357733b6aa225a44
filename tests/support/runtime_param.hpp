// Support for running protocol suites over all three runtimes.
//
// A suite derives its fixture from RuntimeParamTest and instantiates with
// B2B_INSTANTIATE_RUNTIME_SUITE: every TEST_P then runs once on the
// deterministic simulator and twice over real TCP sockets on localhost:
// once with every party on one socket node (one epoll loop + bounded
// pool, Reactor), and once with a node per party, each with its own
// loop, pool and clock (Threaded), as separately deployed processes.
// That shows the protocol layer depends only on the abstract runtime
// seam (eventual once-only delivery), not on the discrete-event
// substrate or the threading model underneath.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "b2b/federation.hpp"

namespace b2b::test {

/// Options preset mapping the same logical deployment (seed, loss,
/// duplication) onto whichever runtime is under test.
inline core::Federation::Options runtime_options(core::RuntimeKind kind,
                                                 std::uint64_t seed = 1,
                                                 double drop = 0.0,
                                                 double dup = 0.0) {
  core::Federation::Options options;
  options.runtime = kind;
  options.seed = seed;
  if (kind == core::RuntimeKind::kSim) {
    options.faults.drop_probability = drop;
    options.faults.duplicate_probability = dup;
    if (drop > 0.0 || dup > 0.0) {
      options.faults.min_delay_micros = 500;
      options.faults.max_delay_micros = 20'000;
      options.reliable.retransmit_interval_micros = 40'000;
    }
  } else {
    options.reactor_faults.drop_probability = drop;
    options.reactor_faults.duplicate_probability = dup;
  }
  return options;
}

/// Injected-fault counters of whichever fabric is active: the sim's
/// datagrams, or the frames of every party's socket transport.
struct FabricStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
};

inline FabricStats fabric_stats(core::Federation& fed) {
  if (fed.runtime() == core::RuntimeKind::kSim) {
    const auto& stats = fed.network().stats();
    return {stats.datagrams_dropped, stats.datagrams_duplicated};
  }
  FabricStats total;
  for (const PartyId& id : fed.party_ids()) {
    const auto stats = fed.node(id.str()).transport(id)->fabric_stats();
    total.dropped += stats.frames_dropped_injected;
    total.duplicated += stats.frames_duplicated_injected;
  }
  return total;
}

/// Base fixture for suites instantiated over every runtime.
class RuntimeParamTest : public ::testing::TestWithParam<core::RuntimeKind> {
 protected:
  core::Federation::Options options(std::uint64_t seed = 1, double drop = 0.0,
                                    double dup = 0.0) const {
    return runtime_options(GetParam(), seed, drop, dup);
  }
};

inline std::string runtime_suffix(core::RuntimeKind kind) {
  switch (kind) {
    case core::RuntimeKind::kSim:
      return "Sim";
    case core::RuntimeKind::kThreaded:
      return "Threaded";
    case core::RuntimeKind::kReactor:
      return "Reactor";
  }
  return "Unknown";
}

}  // namespace b2b::test

#define B2B_INSTANTIATE_RUNTIME_SUITE(suite)                             \
  INSTANTIATE_TEST_SUITE_P(                                              \
      Runtimes, suite,                                                   \
      ::testing::Values(b2b::core::RuntimeKind::kSim,                    \
                        b2b::core::RuntimeKind::kThreaded,               \
                        b2b::core::RuntimeKind::kReactor),               \
      [](const ::testing::TestParamInfo<b2b::core::RuntimeKind>& info) { \
        return b2b::test::runtime_suffix(info.param);                    \
      })
