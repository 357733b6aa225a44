// Experiment E9 — the price of dependability: B2BObjects vs. plain 2PC.
//
// Both stacks run the identical workload (agreed overwrites of varying
// size across N parties) over the same simulated network. The baseline
// strips signatures, tuples, authenticators, evidence logging and
// time-stamping. Expected shape: message *counts* identical (3(N-1));
// B2BObjects pays a constant CPU factor per run dominated by RSA
// signatures (1 for the proposer, 1 per responder, and at every party one
// evidence-anchor signature plus its TSS stamp) and a per-message byte
// overhead dominated by signatures and tuples.
#include <cinttypes>

#include "baseline/plain2pc.hpp"
#include "bench/support/bench_util.hpp"
#include "net/reliable.hpp"
#include "net/scheduler.hpp"
#include "net/sim_runtime.hpp"

using namespace b2b;
using bench::RegisterFederation;
using bench::WallClock;

namespace {

struct PlainWorld {
  net::EventScheduler scheduler;
  net::SimNetwork net{scheduler, 77};
  std::vector<std::unique_ptr<net::ReliableEndpoint>> endpoints;
  std::vector<std::unique_ptr<net::SimTransport>> transports;
  std::vector<std::unique_ptr<b2b::test::TestRegister>> objects;
  std::vector<std::unique_ptr<baseline::PlainReplica>> replicas;

  explicit PlainWorld(std::size_t n) {
    std::vector<PartyId> members;
    for (std::size_t i = 0; i < n; ++i) {
      members.emplace_back("org" + std::to_string(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      endpoints.push_back(
          std::make_unique<net::ReliableEndpoint>(net, members[i]));
      transports.push_back(
          std::make_unique<net::SimTransport>(*endpoints.back()));
      objects.push_back(std::make_unique<b2b::test::TestRegister>());
      replicas.push_back(std::make_unique<baseline::PlainReplica>(
          members[i], ObjectId{"bench-object"}, *objects.back(),
          *transports.back()));
    }
    for (auto& replica : replicas) {
      replica->bootstrap(members, bytes_of("genesis"));
    }
  }

  void agree_once(Bytes state) {
    objects[0]->value = std::move(state);
    core::RunHandle h = replicas[0]->propose_state(objects[0]->get_state());
    scheduler.run();
    if (h->outcome != core::RunResult::Outcome::kAgreed) {
      std::fprintf(stderr, "baseline run failed\n");
      std::exit(1);
    }
  }

  std::uint64_t protocol_bytes() {
    std::uint64_t total = 0;
    for (auto& r : replicas) total += r->bytes_sent();
    return total;
  }
};

}  // namespace

int main() {
  constexpr int kRounds = 20;
  bench::print_header(
      "E9: dependability overhead — B2BObjects vs plain 2PC "
      "(20 agreed overwrites, N=4)",
      "  state B |  b2b wall ms | 2pc wall ms | cpu factor | b2b KB | 2pc KB "
      "| byte factor");

  for (std::size_t state_bytes : {64u, 1024u, 16384u}) {
    // --- B2BObjects ---
    RegisterFederation b2b_world(4);
    b2b_world.agree_once(Bytes(state_bytes, 0x01));  // warm-up
    b2b_world.reset_stats();
    WallClock b2b_wall;
    for (int round = 0; round < kRounds; ++round) {
      b2b_world.agree_once(Bytes(state_bytes, static_cast<uint8_t>(round + 2)));
    }
    double b2b_ms = b2b_wall.elapsed_us() / 1000.0;
    double b2b_kb =
        static_cast<double>(b2b_world.total_protocol_bytes()) / 1024.0;

    // --- plain 2PC ---
    PlainWorld plain_world(4);
    plain_world.agree_once(Bytes(state_bytes, 0x01));  // warm-up
    std::uint64_t bytes_before = plain_world.protocol_bytes();
    WallClock plain_wall;
    for (int round = 0; round < kRounds; ++round) {
      plain_world.agree_once(
          Bytes(state_bytes, static_cast<uint8_t>(round + 2)));
    }
    double plain_ms = plain_wall.elapsed_us() / 1000.0;
    double plain_kb =
        static_cast<double>(plain_world.protocol_bytes() - bytes_before) /
        1024.0;

    std::printf("  %7zu | %12.2f | %11.2f | %10.1fx | %6.1f | %6.1f | %10.2fx\n",
                state_bytes, b2b_ms, plain_ms,
                plain_ms > 0 ? b2b_ms / plain_ms : 0.0, b2b_kb, plain_kb,
                plain_kb > 0 ? b2b_kb / plain_kb : 0.0);
  }

  std::printf(
      "\nNote: the CPU factor is the cost of RSA signing/verification,\n"
      "evidence logging and each party's signed, TSS-stamped evidence\n"
      "anchor per run; the byte factor is signatures + identifier tuples\n"
      "on the wire. Message counts are identical (3(N-1) per run) by\n"
      "construction — see E6 and the baseline tests.\n");
  return 0;
}
