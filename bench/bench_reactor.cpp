// Experiment E20 — what the event loop buys (and that it changes nothing).
//
// Table a: C10K-style fan-in. N sender parties push a burst of payloads
// each into one hub party — thousands of concurrent exchanges in flight —
// over ReactorTransport (every party on ONE epoll loop plus a small
// executor pool). The columns that matter: the process thread count,
// which stays flat as N grows, and the loop-level counters
// (epoll_wakeups / timers_fired / executor_queue_peak).
//
// Table b: equivalence. The identical scripted sequence of agreed
// overwrites (same seed, same payloads, N=3) on RuntimeKind::kSim and
// RuntimeKind::kReactor must install byte-identical agreed tuples
// (SN, H(r), H(state)) on every party. The runtime is a swap below the
// coordinator; any digest divergence from the deterministic simulator is
// a bug, so the harness exits non-zero on mismatch.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/support/bench_util.hpp"
#include "common/bytes.hpp"
#include "net/reactor_runtime.hpp"
#include "net/wire_auth.hpp"

using namespace b2b;
using bench::WallClock;

namespace {

/// Live thread count of this process (field "Threads:" of
/// /proc/self/status).
int thread_count() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

struct FanInResult {
  double wall_ms = 0;
  int threads = 0;
  net::Transport::Stats hub_stats;
  bool ok = false;
};

/// Wire v3 session auth for the fan-in parties: the hub keys as pool
/// index 0, every sender as index 1 (a bench needs the per-frame MAC
/// cost, not 500 distinct RSA keygens — sharing the senders' keypair
/// changes neither the handshake count nor the per-frame work).
net::WireAuth fan_in_auth(const std::string& self) {
  auto key_index = [](const std::string& name) -> std::size_t {
    return name == "hub" ? 0 : 1;
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

/// N senders, `burst` payloads each, all into one hub on one reactor loop
/// and pool; returns once the hub delivered everything and every sender
/// drained its ack window. `auth` turns wire v3 session auth on.
FanInResult fan_in(int n_senders, int burst, bool auth) {
  auto directory = std::make_shared<net::PeerDirectory>();
  net::Reactor reactor;
  auto pool = std::make_shared<net::TaskPool>(4);
  auto make = [&](const std::string& name) {
    net::ReactorTransport::Config config;
    if (auth) config.auth = fan_in_auth(name);
    auto t = std::make_unique<net::ReactorTransport>(
        PartyId{name}, "127.0.0.1", std::uint16_t{0}, directory, config,
        reactor, pool);
    directory->set(PartyId{name}, net::PeerAddress{"127.0.0.1", t->port()});
    return t;
  };
  auto hub = make("hub");
  std::vector<std::unique_ptr<net::ReactorTransport>> senders;
  senders.reserve(static_cast<std::size_t>(n_senders));
  for (int i = 0; i < n_senders; ++i) {
    senders.push_back(make("s" + std::to_string(i)));
  }

  std::atomic<std::uint64_t> delivered{0};
  hub->set_handler([&](const PartyId&, const Bytes&) {
    delivered.fetch_add(1, std::memory_order_release);
  });

  const auto want =
      static_cast<std::uint64_t>(n_senders) * static_cast<std::uint64_t>(burst);
  const Bytes payload(64, 0x5a);
  FanInResult out;
  WallClock wall;
  for (auto& sender : senders) {
    for (int i = 0; i < burst; ++i) sender->send(PartyId{"hub"}, payload);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(120);
  auto drained = [&] {
    if (delivered.load(std::memory_order_acquire) < want) return false;
    for (auto& sender : senders) {
      if (sender->unacked() != 0) return false;
    }
    return true;
  };
  while (!drained()) {
    if (std::chrono::steady_clock::now() > deadline) {
      out.wall_ms = wall.elapsed_us() / 1000.0;
      out.threads = thread_count();
      out.hub_stats = hub->stats();
      return out;  // ok stays false
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.wall_ms = wall.elapsed_us() / 1000.0;
  out.threads = thread_count();  // sampled at peak, before teardown
  out.hub_stats = hub->stats();
  out.ok = true;
  return out;
}

void print_fan_in_row(const char* stack, int n, int burst,
                      const FanInResult& r) {
  std::printf(
      "  %-12s | %5d | %8llu | %8.1f | %7d | %12llu | %11llu | %10llu\n",
      stack, n,
      static_cast<unsigned long long>(n) * static_cast<unsigned long long>(
                                               burst),
      r.wall_ms, r.threads,
      static_cast<unsigned long long>(r.hub_stats.epoll_wakeups),
      static_cast<unsigned long long>(r.hub_stats.timers_fired),
      static_cast<unsigned long long>(r.hub_stats.executor_queue_peak));
  // Adversarial-pressure counters (DESIGN.md §11) at the hub, printed on
  // every row: a clean fan-in documents the zero; any non-zero means
  // hostile bytes arrived (or a MAC-verifying wire rejected some).
  std::printf(
      "  %-12s | hub: frames_rejected_auth=%llu replays_suppressed=%llu\n",
      stack, static_cast<unsigned long long>(r.hub_stats.frames_rejected_auth),
      static_cast<unsigned long long>(r.hub_stats.replays_suppressed));
  if (!r.ok) {
    std::fprintf(stderr, "E20a: %s fan-in at N=%d did not drain\n", stack, n);
    std::exit(1);
  }
}

/// The agreed-tuple script of one runtime: for each scripted overwrite,
/// every party's installed (SN, H(r), H(state)) tuple, hex-encoded. The
/// run aborts if parties within one runtime ever disagree.
std::vector<std::string> tuple_script(core::RuntimeKind kind, int rounds) {
  core::Federation::Options options;
  options.runtime = kind;
  options.seed = 42;
  bench::RegisterFederation world(3, options);
  std::vector<std::string> script;
  for (int round = 0; round < rounds; ++round) {
    core::RunHandle h =
        world.agree_once(Bytes(256, static_cast<uint8_t>(round + 1)));
    if (h->outcome != core::RunResult::Outcome::kAgreed) {
      std::fprintf(stderr, "E20b: run %d failed: %s\n", round,
                   h->diagnostic.c_str());
      std::exit(1);
    }
    std::string hex;
    for (const std::string& name : world.names) {
      const core::StateTuple& tuple =
          world.fed.coordinator(name).replica(world.object).agreed_tuple();
      std::string party_hex = to_hex(tuple.encode());
      if (hex.empty()) {
        hex = party_hex;
      } else if (hex != party_hex) {
        std::fprintf(stderr, "E20b: intra-runtime divergence at round %d\n",
                     round);
        std::exit(1);
      }
    }
    script.push_back(std::move(hex));
  }
  return script;
}

}  // namespace

int main() {
  constexpr int kBurst = 20;

  bench::print_header(
      "E20a: fan-in, N senders x 20 payloads into one hub "
      "(one epoll loop + 4 pool workers)",
      "  stack    |   N   | payloads |  wall ms | threads | "
      "epoll_wakeups | timers_fired | queue_peak");

  // The first fan-in in a process pays one-off start-up costs (~40 ms at
  // N=50 on one 4-vCPU host, against ~10 ms for the same row run again);
  // an untimed warm-up keeps them out of the table.
  fan_in(50, kBurst, false);
  for (int n : {50, 200, 500}) {
    print_fan_in_row("reactor", n, kBurst, fan_in(n, kBurst, false));
  }

  // E22: the fan-in under wire v3 session authentication — N RSA
  // handshakes at connect, then two HMAC-SHA256 passes per frame hop.
  // The delta against the matching "reactor" row is the MAC tax at
  // C10K-style concurrency.
  for (int n : {50, 200}) {
    print_fan_in_row("reactor+auth", n, kBurst, fan_in(n, kBurst, true));
  }

  bench::print_header(
      "E20b: agreed-tuple digest equivalence, 10 scripted overwrites "
      "(seed 42, N=3)",
      "  round | tuple (SN, H(r), H(state)) identical on sim and reactor");
  const std::vector<std::string> sim_script =
      tuple_script(core::RuntimeKind::kSim, 10);
  const std::vector<std::string> reactor_script =
      tuple_script(core::RuntimeKind::kReactor, 10);
  bool equal = sim_script.size() == reactor_script.size();
  for (std::size_t i = 0; equal && i < sim_script.size(); ++i) {
    equal = sim_script[i] == reactor_script[i];
  }
  if (!equal) {
    std::fprintf(stderr, "E20b: DIGEST MISMATCH between sim and reactor\n");
    for (std::size_t i = 0;
         i < std::max(sim_script.size(), reactor_script.size()); ++i) {
      std::fprintf(stderr, "  round %zu\n    sim:     %s\n    reactor: %s\n",
                   i, i < sim_script.size() ? sim_script[i].c_str() : "-",
                   i < reactor_script.size() ? reactor_script[i].c_str()
                                             : "-");
    }
    return 1;
  }
  for (std::size_t i = 0; i < sim_script.size(); ++i) {
    std::printf("  %5zu | %.24s... ok\n", i, sim_script[i].c_str());
  }
  std::printf("  all %zu rounds byte-identical across runtimes\n",
              sim_script.size());
  return 0;
}
