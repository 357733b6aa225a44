// Experiment E16 — the price of durability and the speed of recovery.
//
// Table 1: steady-state overhead of the write-ahead journal. The same
// workload (20 agreed overwrites, N=3) runs with journaling off, with
// the journal on but barriers buffered (fsync off), and with full fsync
// barriers. The gap between the last two is the physical price of
// crash-atomicity; the gap between the first two is the bookkeeping
// (framing, CRC, extra serialisation).
//
// Table 2: time-to-recover as a function of how much was in flight at
// the crash. org2 is held down so runs across k objects park at org1
// (responder runs open, awaiting a decide that cannot form under the
// unanimous rule); org1 is then crashed and the stopwatch covers its
// full restart: journal replay (Coordinator construction), object
// re-registration, and resume_recovered_runs().
//
// Table 3: restart cost as a function of history. org1 restarts after H
// agreed 1 KiB overwrites of one object; the table gives its journal's
// size on disk, its record count and the same restart stopwatch.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/support/bench_util.hpp"

using namespace b2b;
using bench::RegisterFederation;
using bench::WallClock;

namespace {

namespace fs = std::filesystem;

std::string fresh_root(const std::string& tag) {
  fs::path root = fs::temp_directory_path() / ("b2b_bench_recovery_" + tag);
  fs::remove_all(root);
  return root.string();
}

double overwrite_workload_ms(const core::Federation::Options& options) {
  constexpr int kRounds = 20;
  RegisterFederation world(3, options);
  world.agree_once(Bytes(1024, 0x01));  // warm-up
  WallClock wall;
  for (int round = 0; round < kRounds; ++round) {
    core::RunHandle h =
        world.agree_once(Bytes(1024, static_cast<uint8_t>(round + 2)));
    if (h->outcome != core::RunResult::Outcome::kAgreed) {
      std::fprintf(stderr, "bench run failed: %s\n", h->diagnostic.c_str());
      std::exit(1);
    }
  }
  return wall.elapsed_us() / 1000.0;
}

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    total += entry.file_size();
  }
  return total;
}

}  // namespace

int main() {
  bench::print_header(
      "E16a: write-ahead journal overhead "
      "(20 agreed 1 KiB overwrites, N=3)",
      "  journal | fsync |  wall ms | vs off");

  core::Federation::Options off;
  double off_ms = overwrite_workload_ms(off);
  std::printf("      off |     - | %8.2f | %5.2fx\n", off_ms, 1.0);

  for (bool fsync : {false, true}) {
    core::Federation::Options on;
    on.journal_root = fresh_root(fsync ? "fsync" : "nofsync");
    on.journal_fsync = fsync;
    double on_ms = overwrite_workload_ms(on);
    std::printf("       on |   %s | %8.2f | %5.2fx\n", fsync ? " on" : "off",
                on_ms, off_ms > 0 ? on_ms / off_ms : 0.0);
    fs::remove_all(on.journal_root);
  }

  bench::print_header(
      "E16b: time-to-recover vs. in-flight runs "
      "(org1 crashes with k responder runs parked)",
      "  in-flight | journal records |  replay+resume ms");

  for (std::size_t k : {1u, 4u, 16u, 64u}) {
    core::Federation::Options options;
    options.journal_root = fresh_root("inflight_" + std::to_string(k));
    options.seed = 42;

    std::vector<std::string> names = {"org0", "org1", "org2"};
    std::vector<std::unique_ptr<test::TestRegister>> objects;
    core::Federation fed(names, options);
    std::vector<ObjectId> ids;
    for (std::size_t i = 0; i < k; ++i) {
      ids.emplace_back("obj" + std::to_string(i));
      for (const auto& name : names) {
        objects.push_back(std::make_unique<test::TestRegister>());
        fed.register_object(name, ids.back(), *objects.back());
      }
      fed.bootstrap_object(ids.back(), names, bytes_of("genesis"));
    }

    // Park k runs: org2 is down, so unanimous agreement cannot complete;
    // org1 responds to every propose and its responder runs stay open.
    fed.crash_party("org2");
    std::size_t proposer_index = 0;
    for (const ObjectId& id : ids) {
      test::TestRegister& obj = *objects[proposer_index];
      proposer_index += names.size();
      obj.value = bytes_of("inflight-" + id.str());
      fed.coordinator("org0").propagate_new_state(id, obj.get_state());
    }
    fed.scheduler().run_until(fed.scheduler().now() + 200'000);

    fed.crash_party("org1");

    WallClock wall;
    core::Coordinator& revived = fed.recover_party("org1");
    for (std::size_t i = 0; i < k; ++i) {
      // org1's register for object i sits at index i*3 + 1.
      fed.register_object("org1", ids[i], *objects[i * names.size() + 1]);
    }
    revived.resume_recovered_runs();
    double recover_ms = wall.elapsed_us() / 1000.0;

    std::printf("  %9zu | %15zu | %17.2f\n", k,
                revived.journal()->records().size(), recover_ms);
    fs::remove_all(options.journal_root);
  }

  bench::print_header(
      "E16c: restart cost vs. history "
      "(org1 restarts after H agreed 1 KiB overwrites of one object)",
      "  history H | journal bytes | journal records |  replay+resume ms");

  for (int history : {100, 400, 1600}) {
    core::Federation::Options options;
    options.journal_root = fresh_root("history_" + std::to_string(history));
    // Barriers buffered: fsync would slow only the set-up; it changes
    // neither the journal's bytes nor its replay.
    options.journal_fsync = false;
    options.seed = 42;
    {
      RegisterFederation world(3, options);
      for (int i = 0; i < history; ++i) {
        core::RunHandle h =
            world.agree_once(Bytes(1024, static_cast<uint8_t>(i)));
        if (h->outcome != core::RunResult::Outcome::kAgreed) {
          std::fprintf(stderr, "bench run failed: %s\n",
                       h->diagnostic.c_str());
          std::exit(1);
        }
      }
      world.fed.crash_party("org1");
      const std::uintmax_t bytes =
          directory_bytes((fs::path(options.journal_root) / "org1").string());

      WallClock wall;
      core::Coordinator& revived = world.fed.recover_party("org1");
      world.fed.register_object("org1", world.object, *world.objects[1]);
      revived.resume_recovered_runs();
      double recover_ms = wall.elapsed_us() / 1000.0;

      std::printf("  %9d | %13ju | %15zu | %17.2f\n", history, bytes,
                  revived.journal()->records().size(), recover_ms);
    }
    fs::remove_all(options.journal_root);
  }

  std::printf(
      "\nNote: E16a isolates the durability tax on the happy path; the\n"
      "fsync row is the honest configuration (a barrier before every\n"
      "send). E16b's stopwatch covers journal replay, re-registration\n"
      "and the re-send of every parked run's response; E16c's covers\n"
      "the same restart with no run in flight.\n");
  return 0;
}
