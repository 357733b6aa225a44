// Experiment E17 — what the journal costs a membership run, and how fast
// an interrupted one recovers, as the group grows.
//
// Table 1: wall time of a connect+disconnect cycle (one outsider joins
// via the rotating sponsor, then leaves) at group size N, with the
// write-ahead journal off, on without fsync barriers, and on with full
// fsync. Membership runs journal more than state runs (the sponsor run
// with its request echo, every counted response, the aggregated decide,
// the subject's own request), so the durability tax is measured on this
// path separately from E16a.
//
// Table 2: the sponsor crashes at `decide.journaled` — the worst-case
// point, where the decide for the join is durable but nothing was sent —
// and the stopwatch covers its full restart: journal replay (Coordinator
// construction), object re-registration, and resume_recovered_runs()
// (which re-sends the journaled decide as-is). A second stopwatch covers
// convergence: virtual time until all N+1 parties hold the enlarged
// group tuple.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/support/bench_util.hpp"

using namespace b2b;
using bench::WallClock;

namespace {

namespace fs = std::filesystem;

const ObjectId kObj{"ledger"};

std::string fresh_root(const std::string& tag) {
  fs::path root = fs::temp_directory_path() / ("b2b_bench_mrecovery_" + tag);
  fs::remove_all(root);
  return root.string();
}

std::vector<std::string> member_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back("org" + std::to_string(i));
  return names;
}

/// One federation of n members plus an outsider ("joiner"), bootstrapped
/// on kObj.
struct MembershipWorld {
  std::vector<std::unique_ptr<test::TestRegister>> objects;
  core::Federation fed;

  MembershipWorld(std::size_t n, const core::Federation::Options& options)
      : fed(with_joiner(member_names(n)), options) {
    for (const std::string& name : with_joiner(member_names(n))) {
      objects.push_back(std::make_unique<test::TestRegister>());
      fed.register_object(name, kObj, *objects.back());
    }
    fed.bootstrap_object(kObj, member_names(n), bytes_of("genesis"));
  }

  static std::vector<std::string> with_joiner(std::vector<std::string> names) {
    names.push_back("joiner");
    return names;
  }
};

double connect_cycle_ms(std::size_t n,
                        const core::Federation::Options& options) {
  constexpr int kRounds = 5;
  MembershipWorld world(n, options);
  const std::string sponsor = "org" + std::to_string(n - 1);
  WallClock wall;
  for (int round = 0; round < kRounds; ++round) {
    core::RunHandle h = world.fed.coordinator("joiner").propagate_connect(
        kObj, PartyId{round == 0 ? sponsor : "org0"});
    if (!world.fed.run_until_done(h) ||
        h->outcome != core::RunResult::Outcome::kAgreed) {
      std::fprintf(stderr, "connect failed: %s\n", h->diagnostic.c_str());
      std::exit(1);
    }
    world.fed.settle();
    core::RunHandle d = world.fed.coordinator("joiner").propagate_disconnect(kObj);
    if (!world.fed.run_until_done(d) ||
        d->outcome != core::RunResult::Outcome::kAgreed) {
      std::fprintf(stderr, "disconnect failed: %s\n", d->diagnostic.c_str());
      std::exit(1);
    }
    world.fed.settle();
  }
  return wall.elapsed_us() / 1000.0;
}

}  // namespace

int main() {
  bench::print_header(
      "E17a: journal overhead on membership runs "
      "(5 connect+disconnect cycles of one joiner)",
      "  N | journal | fsync |  wall ms | vs off");

  for (std::size_t n : {2u, 4u, 8u}) {
    core::Federation::Options off;
    off.seed = 7;
    double off_ms = connect_cycle_ms(n, off);
    std::printf("  %zu |     off |     - | %8.2f | %5.2fx\n", n, off_ms, 1.0);
    for (bool fsync : {false, true}) {
      core::Federation::Options on;
      on.seed = 7;
      on.journal_root = fresh_root("tax_" + std::to_string(n) +
                                   (fsync ? "_fsync" : "_nofsync"));
      on.journal_fsync = fsync;
      double on_ms = connect_cycle_ms(n, on);
      std::printf("  %zu |      on |   %s | %8.2f | %5.2fx\n", n,
                  fsync ? " on" : "off", on_ms,
                  off_ms > 0 ? on_ms / off_ms : 0.0);
      fs::remove_all(on.journal_root);
    }
  }

  bench::print_header(
      "E17b: sponsor recovery from decide.journaled vs. group size",
      "  N | journal records |  replay+resume ms |  converge ms (virtual)");

  for (std::size_t n : {2u, 4u, 8u}) {
    core::Federation::Options options;
    options.seed = 42;
    options.journal_root = fresh_root("crash_" + std::to_string(n));

    MembershipWorld world(n, options);
    const std::string sponsor = "org" + std::to_string(n - 1);
    world.fed.coordinator(sponsor).arm_crash_point("decide.journaled");
    core::RunHandle h = world.fed.coordinator("joiner").propagate_connect(
        kObj, PartyId{sponsor});
    if (!world.fed.executor().run_until([&] {
          return world.fed.coordinator(sponsor).crashed();
        })) {
      std::fprintf(stderr, "crash point never hit at N=%zu\n", n);
      std::exit(1);
    }
    world.fed.crash_party(sponsor);
    world.fed.scheduler().run_until(world.fed.scheduler().now() + 100'000);

    WallClock wall;
    core::Coordinator& revived = world.fed.recover_party(sponsor);
    world.fed.register_object(sponsor, kObj, *world.objects[n - 1]);
    revived.resume_recovered_runs();
    double recover_ms = wall.elapsed_us() / 1000.0;

    net::SimTime converge_start = world.fed.scheduler().now();
    if (!world.fed.run_until_done(h) ||
        h->outcome != core::RunResult::Outcome::kAgreed) {
      std::fprintf(stderr, "join did not survive the crash at N=%zu\n", n);
      std::exit(1);
    }
    world.fed.settle();
    double converge_ms =
        (world.fed.scheduler().now() - converge_start) / 1000.0;

    std::printf("  %zu | %15zu | %17.2f | %22.2f\n", n,
                revived.journal()->records().size(), recover_ms, converge_ms);
    fs::remove_all(options.journal_root);
  }

  std::printf(
      "\nNote: E17a's fsync row is the honest configuration (a barrier\n"
      "before every send on the membership path too). E17b's first\n"
      "stopwatch is wall time for replay + re-registration + the decide\n"
      "re-send; the second is virtual time from resume to the whole\n"
      "deployment holding the (N+1)-member group tuple.\n");
  return 0;
}
