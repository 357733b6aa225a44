// Experiment E18 — what real kernel sockets cost.
//
// Table 1: raw transport round-trip latency. A two-party ping-pong
// (handler of b echoes back to a) over ReactorTransport on localhost:
// plain, with wire v3 session auth, and through a passive relay. The
// rows price the kernel boundary (syscalls, TCP framing, loopback
// scheduling, the hop onto the delivery pool) and what auth and the
// relay add to it.
//
// Table 2: protocol-level agreed-overwrite latency. The identical
// workload (agreed 1 KiB overwrites, N=3) on all three runtimes. The
// simulator row reports wall time of the discrete-event run (virtual
// latency is free); the socket rows (every party on one node, and a
// node per party) are honest end-to-end numbers including RSA signing,
// which dominates — so the transport gap largely disappears at the
// protocol level.
#include <atomic>
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/support/bench_util.hpp"
#include "net/intruder_proxy.hpp"
#include "net/reactor_runtime.hpp"
#include "net/wire_auth.hpp"

using namespace b2b;
using bench::WallClock;

namespace {

struct LatencyStats {
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};

LatencyStats summarize(std::vector<double> samples) {
  LatencyStats out;
  if (samples.empty()) return out;
  double total = 0;
  for (double s : samples) total += s;
  out.mean_us = total / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  out.p50_us = samples[samples.size() / 2];
  out.p99_us = samples[(samples.size() * 99) / 100];
  return out;
}

/// One ping-pong round trip measured at party a; b echoes every payload.
/// Works against any pair of transports that already know each other.
LatencyStats ping_pong(net::Transport& a, net::Transport& b,
                       const PartyId& a_id, const PartyId& b_id,
                       int rounds, std::size_t payload_bytes) {
  std::atomic<int> pongs{0};
  b.set_handler([&](const PartyId& from, const Bytes& payload) {
    b.send(from, payload);
  });
  a.set_handler([&](const PartyId&, const Bytes&) {
    pongs.fetch_add(1, std::memory_order_release);
  });

  const Bytes payload(payload_bytes, 0x5a);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(rounds));
  // Warm-up round establishes connections outside the measurement.
  a.send(b_id, payload);
  while (pongs.load(std::memory_order_acquire) < 1) {}
  for (int i = 0; i < rounds; ++i) {
    const int before = pongs.load(std::memory_order_acquire);
    WallClock wall;
    a.send(b_id, payload);
    while (pongs.load(std::memory_order_acquire) <= before) {}
    samples.push_back(wall.elapsed_us());
  }
  (void)a_id;
  return summarize(std::move(samples));
}

void print_row(const char* runtime, int rounds, const LatencyStats& stats) {
  std::printf("  %-12s | %6d | %8.1f | %8.1f | %8.1f\n", runtime, rounds,
              stats.mean_us, stats.p50_us, stats.p99_us);
}

double agreed_overwrites_ms(core::RuntimeKind kind, int rounds,
                            bool wire_auth = false) {
  core::Federation::Options options;
  options.runtime = kind;
  options.wire_auth = wire_auth;
  bench::RegisterFederation world(3, options);
  world.agree_once(Bytes(1024, 0x01));  // warm-up
  WallClock wall;
  for (int round = 0; round < rounds; ++round) {
    core::RunHandle h =
        world.agree_once(Bytes(1024, static_cast<uint8_t>(round + 2)));
    if (h->outcome != core::RunResult::Outcome::kAgreed) {
      std::fprintf(stderr, "bench run failed: %s\n", h->diagnostic.c_str());
      std::exit(1);
    }
  }
  return wall.elapsed_us() / 1000.0;
}

const char* runtime_name(core::RuntimeKind kind) {
  switch (kind) {
    case core::RuntimeKind::kSim: return "sim";
    case core::RuntimeKind::kThreaded: return "per-party";
    case core::RuntimeKind::kReactor: return "reactor";
  }
  return "?";
}

/// The loop-level counters are defined across every Transport but only a
/// reactor-backed one moves them.
void print_loop_stats(const char* runtime, const net::Transport::Stats& s) {
  std::printf(
      "  %-8s | epoll_wakeups=%llu timers_fired=%llu "
      "executor_queue_peak=%llu\n",
      runtime, static_cast<unsigned long long>(s.epoll_wakeups),
      static_cast<unsigned long long>(s.timers_fired),
      static_cast<unsigned long long>(s.executor_queue_peak));
}

/// Adversarial-pressure counters (DESIGN.md §11): a clean bench run
/// documents the zero; any non-zero here means the wire saw hostility.
/// Printed for EVERY row — the counters exist on every Transport, and a
/// uniform report is what lets a reader spot the one row that moved.
void print_adversarial_stats(const char* runtime,
                             const net::Transport::Stats& s) {
  std::printf(
      "  %-12s | frames_rejected_auth=%llu replays_suppressed=%llu "
      "duplicates_suppressed=%llu\n",
      runtime, static_cast<unsigned long long>(s.frames_rejected_auth),
      static_cast<unsigned long long>(s.replays_suppressed),
      static_cast<unsigned long long>(s.duplicates_suppressed));
}

/// Wire v3 session auth for the two bench parties, keyed from the
/// federation's deterministic pool ("a" → 0, "b" → 1). The pool entries
/// live for the process, so non-owning aliases are safe.
net::WireAuth bench_auth(const PartyId& self_id) {
  const std::string self = self_id.str();
  auto key_index = [](const std::string& name) -> std::size_t {
    return name == "a" ? 0 : 1;
  };
  net::WireAuth auth;
  auth.enabled = true;
  auth.private_key = std::shared_ptr<const crypto::RsaPrivateKey>(
      std::shared_ptr<const void>{},
      &core::Federation::shared_keypair(512, key_index(self)));
  auth.peer_key = [key_index](const PartyId& peer)
      -> std::shared_ptr<const crypto::RsaPublicKey> {
    return std::make_shared<crypto::RsaPublicKey>(
        core::Federation::shared_keypair(512, key_index(peer.str()))
            .public_key());
  };
  return auth;
}

}  // namespace

int main() {
  constexpr int kRounds = 2000;
  constexpr std::size_t kPayload = 1024;

  bench::print_header(
      "E18a: transport round-trip latency "
      "(1 KiB ping-pong, ack/dedup stack)",
      "  runtime      | rounds |  mean us |  p50 us  |  p99 us");

  // One reactor bundle (loop, pool, both parties) per socket row.
  // `auth` turns wire v3 session authentication on, `mitm` relays every
  // byte through a passive IntruderProxy with both parties interposed.
  auto socket_row = [&](const char* name, bool auth, bool mitm) {
    auto directory = std::make_shared<net::PeerDirectory>();
    net::IntruderProxy::Config pconfig;
    pconfig.active = false;
    net::IntruderProxy proxy(directory, pconfig);
    net::ReactorRuntime::Options options;
    options.directory = directory;
    if (auth) options.wire_auth = bench_auth;
    net::ReactorRuntime runtime(options);
    net::Transport& a = runtime.add_party(PartyId{"a"});
    net::Transport& b = runtime.add_party(PartyId{"b"});
    if (mitm) {
      proxy.interpose(PartyId{"a"});
      proxy.interpose(PartyId{"b"});
    }
    print_row(name, kRounds,
              ping_pong(a, b, PartyId{"a"}, PartyId{"b"}, kRounds, kPayload));
    if (!auth && !mitm) print_loop_stats(name, a.stats());
    print_adversarial_stats(name, a.stats());
    runtime.shutdown();
    proxy.shutdown();
  };
  socket_row("reactor", /*auth=*/false, /*mitm=*/false);
  // E22 overhead row: per-connection HMAC keys negotiated at the hello,
  // every data/ack frame MAC'd and verified. The delta against "reactor"
  // is the per-frame price of the authenticated wire (two HMAC-SHA256
  // passes per hop; the RSA handshake happened once, outside the
  // measurement).
  socket_row("reactor+auth", /*auth=*/true, /*mitm=*/false);
  // E21 overhead row: the delta against "reactor" is the campaign
  // harness tax of the passive relay, not an attack cost.
  socket_row("reactor+mitm", /*auth=*/false, /*mitm=*/true);
  // E22: the authenticated wire through the passive MITM. The relay
  // cannot tell a MAC'd frame from a plain one (it only re-frames), so
  // the delta against "reactor+mitm" isolates the MAC cost under relay
  // conditions.
  socket_row("reactor+auth+mitm", /*auth=*/true, /*mitm=*/true);

  bench::print_header(
      "E18b: agreed 1 KiB overwrites, N=3 (20 runs, wall ms total)",
      "  runtime      |  wall ms | ms/run");
  for (core::RuntimeKind kind :
       {core::RuntimeKind::kSim, core::RuntimeKind::kThreaded,
        core::RuntimeKind::kReactor}) {
    const double ms = agreed_overwrites_ms(kind, 20);
    std::printf("  %-12s | %8.2f | %6.2f\n", runtime_name(kind), ms,
                ms / 20.0);
  }
  {
    // E22: the same protocol workload on a session-authenticated reactor
    // federation. RSA signing dominates the run; the MAC tax is expected
    // to vanish at this level.
    const double ms = agreed_overwrites_ms(core::RuntimeKind::kReactor, 20,
                                           /*wire_auth=*/true);
    std::printf("  %-12s | %8.2f | %6.2f\n", "reactor+auth", ms, ms / 20.0);
  }
  return 0;
}
