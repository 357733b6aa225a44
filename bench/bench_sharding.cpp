// Experiment E19 — what per-object sharding buys (§4.1 coordinator,
// this repo's shard/router split).
//
// K independent objects are driven concurrently on the reactor runtime
// (3 organisations on one node, one state run per object per round, all
// proposed at once). Two coordinator configurations run the identical
// workload:
//
//   coarse  — LockMode::kCoarse, no dispatch lanes: every replica at a
//             party shares one mutex and inbound dispatch runs inline on
//             the transport's delivery strand, so independent objects
//             serialise (the pre-shard coordinator's behaviour).
//   sharded — LockMode::kPerObject with per-shard dispatch lanes: each
//             object owns its mutex and a strand on the node's pool, so
//             runs on distinct objects overlap end to end, as far as the
//             pool's workers allow.
//
// Table 1 models the paper's B2B deployment: each responder's validate
// upcall sleeps 10 ms (an organisation's local policy check hits its own
// back-office systems — §3's "local validation"). That is where sharding
// pays: with one lock the sleeps on distinct objects queue behind each
// other; with lanes they overlap, up to the width of the node's pool.
//
// Table 2 is the null result: the same workload with no sleep is
// RSA-bound, so overlapping it buys little (speedup ~1x).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/support/bench_util.hpp"

using namespace b2b;
using bench::WallClock;

namespace {

constexpr std::size_t kMaxObjects = 8;
constexpr int kRounds = 10;
constexpr int kValidateSleepMicros = 10'000;

core::Federation::Options make_options(bool sharded) {
  core::Federation::Options options;
  options.runtime = core::RuntimeKind::kReactor;
  options.seed = 19;
  options.lock_mode = sharded ? core::Coordinator::LockMode::kPerObject
                              : core::Coordinator::LockMode::kCoarse;
  return options;
}

/// Mean wall time (ms) of one round of K concurrent runs, one per object.
double run_config(bool sharded, std::size_t num_objects, bool sleepy) {
  const std::vector<std::string> names = {"org0", "org1", "org2"};
  // Registers outlive the federation: runtime threads stop first.
  test::TestRegister regs[3][kMaxObjects];
  core::Federation fed(names, make_options(sharded));

  std::vector<ObjectId> objects;
  for (std::size_t k = 0; k < num_objects; ++k) {
    objects.push_back(ObjectId{"obj" + std::to_string(k)});
    for (std::size_t p = 0; p < names.size(); ++p) {
      if (sleepy && p != 0) {
        // Responder-side local policy check against the organisation's
        // own back-office systems.
        regs[p][k].policy = [](BytesView, const core::ValidationContext&) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(kValidateSleepMicros));
          return core::Decision::accepted();
        };
      }
      fed.register_object(names[p], objects[k], regs[p][k]);
    }
    fed.bootstrap_object(objects[k], names, bytes_of("genesis"));
  }

  auto drive_round = [&](int round) {
    std::vector<core::RunHandle> handles;
    for (std::size_t k = 0; k < num_objects; ++k) {
      regs[0][k].value =
          bytes_of("r" + std::to_string(round) + "-o" + std::to_string(k));
      handles.push_back(fed.coordinator("org0").propagate_new_state(
          objects[k], regs[0][k].get_state()));
    }
    for (const core::RunHandle& h : handles) {
      if (!fed.run_until_done(h) ||
          h->outcome != core::RunResult::Outcome::kAgreed) {
        std::fprintf(stderr, "E19: run failed: %s\n", h->diagnostic.c_str());
        std::exit(1);
      }
    }
  };

  drive_round(-1);  // warm-up: connections + first-run costs off the clock
  WallClock wall;
  for (int round = 0; round < kRounds; ++round) drive_round(round);
  const double total_ms = wall.elapsed_us() / 1'000.0;
  fed.settle();
  return total_ms / kRounds;
}

void run_table(bool sleepy) {
  std::printf("  K | coarse ms/round | sharded ms/round | speedup\n");
  for (std::size_t k : {1u, 2u, 4u, 8u}) {
    const double coarse = run_config(/*sharded=*/false, k, sleepy);
    const double sharded = run_config(/*sharded=*/true, k, sleepy);
    std::printf("  %zu | %15.2f | %16.2f | %6.2fx\n", k, coarse, sharded,
                coarse / sharded);
  }
}

}  // namespace

int main() {
  std::printf(
      "E19 — per-object sharding: K independent objects, reactor runtime, "
      "3 orgs, %d rounds\n\n", kRounds);
  std::printf("Table 1: responder validate sleeps %d us (org-local policy "
              "check)\n", kValidateSleepMicros);
  run_table(/*sleepy=*/true);
  std::printf("\nTable 2: no validation sleep (RSA-bound)\n");
  run_table(/*sleepy=*/false);
  return 0;
}
