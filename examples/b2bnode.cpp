// b2bnode: one organisation's coordinator as its own OS process.
//
// Where the other examples assemble a whole federation inside one process,
// this daemon runs exactly ONE party over the reactor runtime (one epoll
// loop, real TCP sockets) and finds its peers through a PeerDirectory
// file, so a federation can span real processes and hosts. Two
// cooperating b2bnode processes play the paper's §5.1 Tic-Tac-Toe game
// to completion; each prints a canonical FINAL line and exits 0 only if
// its own evidence chain verifies and the agreed game reached the
// expected terminal state, so a driver script can assert cross-process
// agreement from exit codes and output alone.
//
// Address bootstrap: each node binds an ephemeral port and publishes it as
// <port-dir>/<party>.port; peers listed with port 0 are resolved by
// polling for their port files. A restarted node binds a NEW port and
// republishes; surviving peers watch the port file and refresh their
// directory entry, so retransmissions dial the new address.
//
// --crash-after K makes the process _Exit (no destructors, no flush —
// a real crash) right after its K-th own move is agreed. Restarting with
// the same --journal directory replays the write-ahead journal, resumes
// any in-flight runs, and continues the game from the recovered state.
//
// --deal switches to the §12 deal demo instead of the game: the first
// party (name order) drives four scripted two-leg deals across two
// shared registers — a commit, a deal the peer vetoes (all legs roll
// back), a commit, a final commit — and both processes print the same
// canonical FINAL line. In deal mode --crash-after K arms the
// deal-decide.journaled crash point before the K-th deal, so the
// process dies with the signed decision journaled but NOT replicated;
// the restart resumes the deal from the journal and must drive it to
// the same all-or-nothing outcome the decision fixed.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/tictactoe.hpp"
#include "b2b/coordinator.hpp"
#include "b2b/federation.hpp"
#include "net/reactor_runtime.hpp"

using namespace b2b;
using apps::Board;
using apps::GameStatus;
using apps::Mark;
using apps::TicTacToeObject;

namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr auto kWaitBudget = 120s;

struct Args {
  std::string party;
  std::string peers_file;
  std::string port_dir;
  std::string journal_root;
  std::size_t rsa_bits = 512;
  std::uint64_t seed = 1;
  int crash_after = 0;  // 0 = never crash
  bool auth = false;  // wire v3 session authentication
  bool deal = false;  // §12 deal demo instead of the game
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --party NAME --peers FILE --port-dir DIR"
               " [--journal DIR] [--rsa-bits N] [--seed N]"
               " [--crash-after K] [--auth] [--deal]\n";
  return 1;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--auth") {  // boolean flag: takes no value token
      args.auth = true;
      continue;
    }
    if (flag == "--deal") {
      args.deal = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--party") {
      args.party = value;
    } else if (flag == "--peers") {
      args.peers_file = value;
    } else if (flag == "--port-dir") {
      args.port_dir = value;
    } else if (flag == "--journal") {
      args.journal_root = value;
    } else if (flag == "--rsa-bits") {
      args.rsa_bits = static_cast<std::size_t>(std::stoul(value));
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--crash-after") {
      args.crash_after = std::stoi(value);
    } else {
      return false;
    }
  }
  return !args.party.empty() && !args.peers_file.empty() &&
         !args.port_dir.empty();
}

/// Spin until `predicate` holds; false on budget exhaustion.
bool wait_for(const std::function<bool()>& predicate) {
  auto deadline = std::chrono::steady_clock::now() + kWaitBudget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return predicate();
}

void publish_port(const fs::path& dir, const std::string& party,
                  std::uint16_t port) {
  // Write-then-rename so a polling peer never reads a torn file.
  fs::path tmp = dir / (party + ".port.tmp");
  fs::path final_path = dir / (party + ".port");
  std::ofstream out(tmp);
  out << port << "\n";
  out.close();
  fs::rename(tmp, final_path);
}

std::uint16_t poll_port(const fs::path& dir, const std::string& party) {
  fs::path path = dir / (party + ".port");
  unsigned port = 0;
  wait_for([&] {
    std::ifstream in(path);
    return static_cast<bool>(in >> port) && port != 0;
  });
  return static_cast<std::uint16_t>(port);
}

/// Keeps the peer's directory entry in sync with its port file. A node
/// that crashes and restarts comes back on a NEW ephemeral port; its
/// outbound handshake reaches us only once it has traffic to send, so a
/// waiting proposer must also refresh its dial target (ReactorTransport
/// re-reads the directory on every dial attempt).
struct DirectoryRefresher {
  std::shared_ptr<net::PeerDirectory> directory;
  fs::path port_file;
  PartyId peer;
  std::string host;
  std::atomic<bool> stop{false};
  std::thread thread;

  DirectoryRefresher(std::shared_ptr<net::PeerDirectory> dir, fs::path file,
                     PartyId peer_id, std::string peer_host)
      : directory(std::move(dir)),
        port_file(std::move(file)),
        peer(std::move(peer_id)),
        host(std::move(peer_host)),
        thread([this] { loop(); }) {}

  ~DirectoryRefresher() {
    stop = true;
    thread.join();
  }

  void loop() {
    while (!stop) {
      unsigned port = 0;
      std::ifstream in(port_file);
      if (in >> port && port != 0) {
        auto current = directory->lookup(peer);
        if (!current || current->port != port) {
          directory->set(peer, net::PeerAddress{
                                   host, static_cast<std::uint16_t>(port)});
        }
      }
      std::this_thread::sleep_for(100ms);
    }
  }
};

std::string board_fingerprint(const Board& board) {
  std::string out;
  for (int row = 0; row < 3; ++row) {
    for (int col = 0; col < 3; ++col) {
      out += static_cast<char>('0' + static_cast<int>(board.at(row, col)));
    }
  }
  return out;
}

/// A minimal shared register for the deal demo: opaque bytes plus an
/// optional local veto policy (set before registration). The main thread
/// reads the value while a shard lane may apply a retransmitted decide,
/// so the value sits behind a mutex.
class DemoRegister : public core::B2BObject {
 public:
  std::function<core::Decision(BytesView)> policy;

  Bytes get_state() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_;
  }
  void apply_state(BytesView state) override {
    std::lock_guard<std::mutex> lock(mutex_);
    value_.assign(state.begin(), state.end());
  }
  core::Decision validate_state(BytesView proposed,
                                const core::ValidationContext&) override {
    if (policy) return policy(proposed);
    return core::Decision::accepted();
  }

  std::string str() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::string(value_.begin(), value_.end());
  }

 private:
  mutable std::mutex mutex_;
  Bytes value_;
};

/// Order the main thread's setup writes (bootstrap or journal replay)
/// before the shard lane that handles the peer's first message. The peer
/// cannot send before it reads our port file, but that ordering runs
/// through another process, which a race detector cannot see; a lock
/// round on every shard here makes it explicit.
void publish_when_ready(const Args& args, core::Coordinator& coordinator,
                        std::uint16_t listen_port) {
  coordinator.synchronize();
  publish_port(args.port_dir, args.party, listen_port);
}

/// The --deal demo (DESIGN.md §12). The first roster party initiates
/// four scripted two-leg deals over "ledger" and "orders"; the second
/// participates, vetoing any orders state containing "bad". In the
/// crash phase the initiator dies between journaling the signed commit
/// decision and replicating it; the restart must finish that deal from
/// the journal before the script moves on.
int run_deal_demo(const Args& args, core::Coordinator& coordinator,
                  net::Transport& transport,
                  const std::vector<PartyId>& roster, const PartyId& self,
                  const PartyId& peer,
                  const std::shared_ptr<net::PeerDirectory>& directory,
                  std::uint16_t listen_port, DemoRegister& ledger_obj,
                  DemoRegister& orders_obj) {
  const ObjectId ledger{"ledger"};
  const ObjectId orders{"orders"};
  const bool initiator = (self == roster[0]);
  if (!initiator) {
    orders_obj.policy = [](BytesView proposed) {
      const std::string value(proposed.begin(), proposed.end());
      if (value.find("bad") != std::string::npos) {
        return core::Decision::rejected("orders policy refuses " + value);
      }
      return core::Decision::accepted();
    };
  }
  coordinator.register_object(ledger, ledger_obj);
  coordinator.register_object(orders, orders_obj);

  const bool recovered = coordinator.recovered();
  if (!recovered) {
    coordinator.replica(ledger).bootstrap(roster, bytes_of("L0"));
    coordinator.replica(orders).bootstrap(roster, bytes_of("O0"));
  }

  publish_when_ready(args, coordinator, listen_port);
  std::uint16_t peer_port = poll_port(args.port_dir, peer.str());
  auto peer_address = directory->lookup(peer);
  const std::string peer_host =
      peer_address ? peer_address->host : "127.0.0.1";
  directory->set(peer, net::PeerAddress{peer_host, peer_port});
  DirectoryRefresher refresher(
      directory, fs::path(args.port_dir) / (peer.str() + ".port"), peer,
      peer_host);
  std::cout << "[" << args.party << "] listening on " << listen_port << " ("
            << (args.auth ? "auth, " : "") << "deal demo), peer "
            << peer.str() << " on " << peer_port << std::endl;

  struct DealStep {
    const char* ledger_value;
    const char* orders_value;
    bool veto;
  };
  const std::vector<DealStep> kDeals = {
      {"L1", "O1", false},
      {"L2", "O2-bad", true},  // the peer's orders policy vetoes
      {"L3", "O3", false},     // the crash phase dies mid-decision here
      {"L4", "O4", false},
  };

  if (initiator) {
    if (recovered) {
      std::cout << "[" << args.party
                << "] recovered from journal, resuming in-flight deals"
                << std::endl;
      for (const core::RunHandle& handle :
           coordinator.resume_recovered_runs()) {
        if (!wait_for([&] { return handle->done(); })) {
          std::cerr << "[" << args.party << "] resumed deal never finished\n";
          return 3;
        }
      }
    }
    // Where the script resumes: the highest step whose ledger value is
    // already installed (vetoed steps install nothing, so the value
    // identifies the last COMMITTED step).
    std::size_t next = 0;
    for (std::size_t i = 0; i < kDeals.size(); ++i) {
      if (ledger_obj.str() == kDeals[i].ledger_value) next = i + 1;
    }
    for (std::size_t i = next; i < kDeals.size(); ++i) {
      if (!recovered && args.crash_after > 0 &&
          static_cast<std::size_t>(args.crash_after) == i + 1) {
        coordinator.arm_crash_point("deal-decide.journaled");
      }
      core::DealCoordinator::DealSpec spec;
      for (const auto& [object, value] :
           {std::pair{ledger, kDeals[i].ledger_value},
            std::pair{orders, kDeals[i].orders_value}}) {
        core::DealCoordinator::LegSpec leg;
        leg.object = object;
        leg.new_state = bytes_of(value);
        leg.payload = leg.new_state;
        leg.is_update = false;
        spec.legs.push_back(std::move(leg));
      }
      core::RunHandle handle = coordinator.start_deal(std::move(spec));
      if (!wait_for([&] { return handle->done() || coordinator.crashed(); })) {
        std::cerr << "[" << args.party << "] deal " << i + 1 << " wedged\n";
        return 3;
      }
      if (coordinator.crashed()) {
        std::cout << "[" << args.party << "] CRASH mid-deal " << i + 1
                  << " (decision journaled, not replicated)" << std::endl;
        std::_Exit(42);  // no destructors, no flush: a real process crash
      }
      const auto want = kDeals[i].veto ? core::RunResult::Outcome::kVetoed
                                       : core::RunResult::Outcome::kAgreed;
      if (handle->outcome != want) {
        std::cerr << "[" << args.party << "] deal " << i + 1
                  << " unexpected outcome: " << handle->diagnostic << "\n";
        return 2;
      }
      std::cout << "[" << args.party << "] deal " << i + 1 << " "
                << (kDeals[i].veto ? "vetoed, all legs rolled back"
                                   : "committed")
                << std::endl;
    }
    // The peer installs asynchronously: drain our send queue so every
    // final decide is acked before this process exits.
    if (!wait_for([&] { return transport.unacked() == 0; })) {
      std::cerr << "[" << args.party << "] final decides never acked\n";
      return 3;
    }
  } else {
    if (!wait_for([&] {
          coordinator.synchronize();
          return ledger_obj.str() == "L4" && orders_obj.str() == "O4";
        })) {
      std::cerr << "[" << args.party << "] timed out waiting for final deal\n";
      return 3;
    }
  }

  coordinator.synchronize();
  const bool chain_ok = coordinator.evidence().verify_chain();
  const std::uint64_t violations = coordinator.violations_detected();
  std::cout << "[" << args.party
            << "] evidence records: " << coordinator.evidence().size()
            << ", chain intact: " << std::boolalpha << chain_ok
            << ", violations: " << violations << std::endl;
  // The canonical line the driver script compares across processes.
  std::cout << "FINAL deal " << ledger_obj.str() << "/" << orders_obj.str()
            << " chain=" << std::boolalpha << chain_ok
            << " violations=" << violations << std::endl;
  return (chain_ok && violations == 0 && ledger_obj.str() == "L4" &&
          orders_obj.str() == "O4")
             ? 0
             : 4;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage(argv[0]);

  // The peers file fixes the federation roster AND the deterministic
  // keypair assignment: parties are numbered in directory (name) order,
  // which every process derives identically, exactly as an in-process
  // Federation numbers its parties. This stands in for the out-of-band
  // PKI exchange between organisations.
  auto directory = std::make_shared<net::PeerDirectory>(
      net::PeerDirectory::load_file(args.peers_file));
  std::vector<PartyId> roster;
  std::size_t self_index = ~std::size_t{0};
  for (const auto& [party, address] : directory->entries()) {
    if (party.str() == args.party) self_index = roster.size();
    roster.push_back(party);
  }
  if (self_index == ~std::size_t{0}) {
    std::cerr << args.party << ": not in " << args.peers_file << "\n";
    return 1;
  }
  if (roster.size() != 2) {
    std::cerr << "expected exactly two parties in " << args.peers_file
              << "\n";
    return 1;
  }
  const PartyId self{args.party};
  const PartyId cross = roster[0];
  const PartyId nought = roster[1];
  const PartyId peer = (self == cross) ? nought : cross;

  // Wire v3 session authentication (--auth): both processes derive the
  // same name-ordered key assignment from the peers file, so the MAC'd
  // wire needs no out-of-band state beyond the roster the PKI already
  // fixed. An --auth node refuses unauthenticated hellos (and vice
  // versa), so the flag must match across the federation.
  net::WireAuth wire_auth;
  if (args.auth) {
    wire_auth.enabled = true;
    wire_auth.private_key = std::shared_ptr<const crypto::RsaPrivateKey>(
        std::shared_ptr<const void>{},
        &core::Federation::shared_keypair(args.rsa_bits, self_index));
    const std::vector<PartyId> key_roster = roster;
    const std::size_t bits = args.rsa_bits;
    wire_auth.peer_key = [key_roster, bits](const PartyId& who)
        -> std::shared_ptr<const crypto::RsaPublicKey> {
      for (std::size_t i = 0; i < key_roster.size(); ++i) {
        if (key_roster[i] == who) {
          return std::make_shared<crypto::RsaPublicKey>(
              core::Federation::shared_keypair(bits, i).public_key());
        }
      }
      return nullptr;  // fail closed: unknown peers get no session
    };
  }

  // The replicated objects are declared before the runtime and the
  // coordinator, so they outlive every thread that applies into them.
  TicTacToeObject object{cross, nought};
  DemoRegister ledger_obj, orders_obj;

  // One epoll loop, one bounded pool and this party's transport. The
  // party's peers-file entry (port 0) binds an ephemeral port, which
  // add_party writes back to the directory; it is published below.
  net::ReactorRuntime::Options runtime_options;
  runtime_options.directory = directory;
  runtime_options.transport.retransmit_interval_micros = 20'000;
  if (args.auth) {
    runtime_options.wire_auth = [wire_auth](const PartyId&) {
      return wire_auth;
    };
  }
  net::ReactorRuntime runtime(runtime_options);
  net::Transport& transport = runtime.add_party(self);
  const std::uint16_t listen_port = runtime.transport(self)->port();

  core::Coordinator::Config config;
  config.self = self;
  config.key = core::Federation::shared_keypair(args.rsa_bits, self_index);
  config.rng_seed = args.seed * 1000003 + self_index;
  if (!args.journal_root.empty()) {
    config.journal_dir = args.journal_root + "/" + args.party;
  }
  config.run_probe_interval_micros = 200'000;
  config.max_run_probes = 100;
  // Real deployment: per-object dispatch lanes, strands on the runtime's
  // executor pool, so a slow run on one shared object never delays
  // another object's runs.
  config.lane_pool = runtime.pool();
  core::Coordinator coordinator(config, transport, runtime.clock(), nullptr);
  // Teardown on every return path is the two-stage barrier
  // Federation::~Federation uses: stop the runtime (transport, loop,
  // pool) so nothing new reaches a shard lane, then stop the lanes, and
  // only then let the coordinator and the objects die.
  class Teardown {
   public:
    Teardown(net::ReactorRuntime& runtime, core::Coordinator& coordinator)
        : runtime_(runtime), coordinator_(coordinator) {}
    Teardown(const Teardown&) = delete;
    Teardown& operator=(const Teardown&) = delete;
    ~Teardown() {
      runtime_.shutdown();
      coordinator_.stop_lanes();
    }

   private:
    net::ReactorRuntime& runtime_;
    core::Coordinator& coordinator_;
  } teardown{runtime, coordinator};
  for (std::size_t i = 0; i < roster.size(); ++i) {
    if (roster[i] == self) continue;
    coordinator.add_known_party(
        roster[i],
        core::Federation::shared_keypair(args.rsa_bits, i).public_key());
  }

  if (args.deal) {
    return run_deal_demo(args, coordinator, transport, roster, self, peer,
                         directory, listen_port, ledger_obj, orders_obj);
  }

  const ObjectId game{"tictactoe"};
  coordinator.register_object(game, object);
  const bool recovered = coordinator.recovered();
  if (recovered) {
    std::cout << "[" << args.party << "] recovered from journal, board:\n"
              << object.board().render();
    for (const core::RunHandle& handle :
         coordinator.resume_recovered_runs()) {
      wait_for([&] { return handle->done(); });
    }
  } else {
    coordinator.replica(game).bootstrap(roster, Board{}.encode());
  }

  // Only now is this node ready to serve; publishing the port is the
  // "open for business" signal peers wait on.
  publish_when_ready(args, coordinator, listen_port);
  std::uint16_t peer_port = poll_port(args.port_dir, peer.str());
  auto peer_address = directory->lookup(peer);
  const std::string peer_host =
      peer_address ? peer_address->host : "127.0.0.1";
  directory->set(peer, net::PeerAddress{peer_host, peer_port});
  // Track peer restarts (new port file contents) for the rest of the run.
  DirectoryRefresher refresher(
      directory, fs::path(args.port_dir) / (peer.str() + ".port"), peer,
      peer_host);
  std::cout << "[" << args.party << "] listening on " << listen_port
            << (args.auth ? " (auth)" : "") << ", peer " << peer.str()
            << " on " << peer_port << std::endl;

  // The scripted game: X top row in three, O answering twice.
  struct Move {
    int row, col;
  };
  const std::vector<Move> kMoves = {
      {0, 0}, {1, 1}, {0, 1}, {2, 2}, {0, 2}};
  const Mark my_mark = (self == cross) ? Mark::kCross : Mark::kNought;
  int own_agreed = 0;

  for (std::size_t i = 0; i < kMoves.size(); ++i) {
    const bool my_turn = (i % 2 == 0) == (self == cross);
    // Wait until every earlier move is on the local agreed board.
    if (!wait_for([&] {
          coordinator.synchronize();
          return object.board().move_count() >=
                 static_cast<int>(i);
        })) {
      std::cerr << "[" << args.party << "] timed out waiting for move " << i
                << "\n";
      return 3;
    }
    coordinator.synchronize();
    if (object.board().move_count() > static_cast<int>(i)) {
      continue;  // already played (recovered from the journal)
    }
    if (!my_turn) {
      continue;  // the next wait_for picks up the opponent's move
    }

    Board next = object.board();
    if (!next.play(kMoves[i].row, kMoves[i].col, my_mark)) {
      std::cerr << "[" << args.party << "] illegal scripted move " << i
                << "\n";
      return 2;
    }
    object.board() = next;
    core::RunHandle handle =
        coordinator.propagate_new_state(game, object.get_state());
    if (!wait_for([&] { return handle->done(); }) ||
        handle->outcome != core::RunResult::Outcome::kAgreed) {
      std::cerr << "[" << args.party << "] move " << i
                << " not agreed: " << handle->diagnostic << "\n";
      return 2;
    }
    ++own_agreed;
    std::cout << "[" << args.party << "] move " << i << " agreed"
              << std::endl;
    if (args.crash_after > 0 && own_agreed == args.crash_after) {
      std::cout << "[" << args.party << "] CRASH after " << own_agreed
                << " own moves" << std::endl;
      std::_Exit(42);  // no destructors, no flush: a real process crash
    }
  }

  if (!wait_for([&] {
        coordinator.synchronize();
        return object.board().move_count() == 5;
      })) {
    std::cerr << "[" << args.party << "] timed out waiting for game end\n";
    return 3;
  }

  coordinator.synchronize();
  const bool chain_ok = coordinator.evidence().verify_chain();
  const GameStatus status = object.board().status();
  std::cout << object.board().render();
  std::cout << "[" << args.party << "] evidence records: "
            << coordinator.evidence().size()
            << ", chain intact: " << std::boolalpha << chain_ok << std::endl;
  // The canonical line the driver script compares across processes.
  std::cout << "FINAL " << board_fingerprint(object.board()) << " status="
            << static_cast<int>(status) << " chain=" << chain_ok
            << std::endl;
  return (chain_ok && status == GameStatus::kCrossWins) ? 0 : 4;
}
