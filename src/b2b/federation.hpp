// Federation: a ready-made multi-organisation deployment harness.
//
// Assembles everything a B2BObjects deployment needs — a runtime bundle
// (clock, per-party transports, an executor to drive progress), a trusted
// time-stamping service, one Coordinator per organisation with a shared
// PKI — and provides the out-of-band genesis step that stands in for the
// initial business agreement between organisations. Tests, examples and
// benches all build on this instead of re-plumbing the stack.
//
// Three runtimes are available (Options::runtime):
//  * RuntimeKind::kSim      — the deterministic discrete-event stack
//    (net::SimRuntime). Seeded runs reproduce bit-for-bit; the
//    simulator-only instruments (partitions, Dolev-Yao intruder,
//    virtual-time stepping) are reachable via scheduler()/network()/
//    endpoint().
//  * RuntimeKind::kReactor  — every party's transport speaks real TCP on
//    localhost (net::ReactorRuntime): kernel sockets, framing,
//    reconnects, with every party hosted on ONE socket node (one epoll
//    loop with a timer wheel and a bounded executor pool), so thread
//    count stays flat no matter how many parties/connections the
//    federation holds (DESIGN.md §10).
//  * RuntimeKind::kThreaded — the same socket runtime with one node per
//    party, plus one for the trusted services (the termination TTP and
//    the time-stamping service's clock), over a shared PeerDirectory.
//    Each node has its own loop, pool and wheel clock, so every party
//    runs on threads of its own and the parties share nothing but the
//    directory and TCP: the shape of separately deployed b2bnode
//    processes (examples/b2bnode.cpp), in one process.
// On both socket runtimes the coordinator shard lanes run as strands on
// the pool of the party's node; scheduler()/network()/endpoint() throw
// there — use transport()/node() instead.
//
// The Federation never builds a protocol stack of its own; all
// protocol-layer plumbing goes through the abstract Runtime seam.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "b2b/controller.hpp"
#include "b2b/termination.hpp"
#include "b2b/coordinator.hpp"
#include "crypto/timestamp.hpp"
#include "net/reactor_runtime.hpp"
#include "net/sim_runtime.hpp"

namespace b2b::core {

/// Which substrate a Federation assembles its parties on. The values are
/// fixed, since parameterised test names print them: 2 belonged to the
/// retired thread-per-peer TCP runtime. kThreaded is the socket runtime
/// with one node per party (see the header comment).
enum class RuntimeKind { kSim, kThreaded, kReactor = 3 };

class Federation {
 public:
  struct Options {
    /// RSA modulus size for every party (512 keeps simulations fast;
    /// benches may use 1024/2048).
    std::size_t rsa_bits = 512;
    /// Master seed: all randomness (keys aside) derives from it.
    std::uint64_t seed = 1;
    /// Runtime substrate: deterministic simulator, or real sockets on
    /// one shared node or on one node per party.
    RuntimeKind runtime = RuntimeKind::kSim;
    /// Default link fault model (sim runtime).
    net::LinkFaults faults{};
    /// Reliable-channel configuration (sim runtime).
    net::ReliableEndpoint::Config reliable{};
    /// Party address book (socket runtimes). Leave null for a fresh
    /// directory of localhost ephemeral ports; pass one to pin
    /// addresses.
    std::shared_ptr<net::PeerDirectory> tcp_directory;
    /// Wire v3 session authentication (socket runtimes): every
    /// transport derives fresh per-connection per-direction MAC keys at
    /// each handshake (wire_auth.hpp), built on the federation's shared
    /// keypair pool — the same PKI the coordinators already sign with.
    /// Parties key by roster index; the termination TTP is covered too.
    bool wire_auth = false;
    /// Fault model injected at the socket layer (socket runtimes).
    net::TcpFaults reactor_faults{};
    /// Transport configuration (socket runtimes).
    net::ReactorTransport::Config reactor_transport{};
    /// Executor pool width of each socket node: deliveries, shard-lane
    /// dispatch and clock callbacks all share these workers.
    std::size_t reactor_workers = 4;
    /// Provide a trusted time-stamping service to all parties: it stamps
    /// every evidence anchor (DESIGN.md §13(c)). Without it anchors are
    /// party-signed but unstamped.
    bool use_tss = true;
    /// Sponsor selection policy applied federation-wide.
    SponsorPolicy sponsor_policy = SponsorPolicy::kRotating;
    /// Group decision rule applied federation-wide.
    DecisionRule decision_rule = DecisionRule::kUnanimous;
    /// Root directory for per-party write-ahead journals (each party
    /// journals into `<journal_root>/<party name>`). Empty disables
    /// journaling — and with it crash_party()/recover_party() recovery.
    std::string journal_root;
    /// Honour journal barriers with a real fsync (bench knob).
    bool journal_fsync = true;
    /// In-flight-run probe cadence (see Coordinator::Config).
    std::uint64_t run_probe_interval_micros = 1'000'000;
    int max_run_probes = 12;
    /// Coordinator shard locking (see Coordinator::LockMode). kCoarse
    /// reproduces the pre-shard single-lock contention profile — the
    /// baseline for the sharding bench and equivalence suite. With
    /// kPerObject on a socket runtime, every object gets a dispatch lane
    /// (a strand on its party's node pool); the sim stays single-threaded
    /// and inline, so seeded runs reproduce bit-for-bit. The federation
    /// registers a lane-idle quiescence probe per party with its node,
    /// so settle() keeps meaning "nothing left to do anywhere".
    Coordinator::LockMode lock_mode = Coordinator::LockMode::kPerObject;
    /// Run pipelining (DESIGN.md §13): enables propagate_batch at every
    /// party.
    bool pipeline = false;
  };

  /// Create a federation of the named organisations.
  explicit Federation(std::vector<std::string> party_names);
  Federation(std::vector<std::string> party_names, const Options& options);
  ~Federation();

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  // --- infrastructure access ---------------------------------------------------

  RuntimeKind runtime() const { return runtime_; }

  /// The federation's clock (the sim's, or that of the node the TTP and
  /// the TSS run on), and the executor that drives or awaits every party.
  net::Clock& clock();
  net::Executor& executor();

  /// Simulator-only instruments. Throw b2b::Error on the socket runtimes.
  net::EventScheduler& scheduler();
  net::SimNetwork& network();

  /// The socket node hosting party `name` (epoll loop, wheel, executor
  /// pool, ports, fault counters, transports): the one node every party
  /// shares on kReactor, the party's own on kThreaded. Throws b2b::Error
  /// on the sim.
  net::ReactorRuntime& node(const std::string& name);

  const crypto::TimestampService* tss() const { return tss_.get(); }

  // --- parties --------------------------------------------------------------------

  std::size_t size() const { return parties_.size(); }
  std::vector<PartyId> party_ids() const;
  Coordinator& coordinator(const std::string& name);

  // --- crash / recovery fabric --------------------------------------------------

  /// Kill a party's coordinator as a process crash would: the node is
  /// marked dead on the network fabric (frames sent to it during the
  /// downtime are dropped un-acked and will be retransmitted), the
  /// transport handler is detached synchronously, and the Coordinator is
  /// destroyed. The transport itself — and with it the reliable channel's
  /// dedup/retransmission state, which the paper's model keeps in
  /// persistent storage — survives.
  void crash_party(const std::string& name);

  /// Restart a crashed party: the node rejoins the fabric and a fresh
  /// Coordinator is built from the same per-party configuration. With
  /// Options::journal_root set, its constructor replays the journal;
  /// callers then re-register objects and call resume_recovered_runs().
  Coordinator& recover_party(const std::string& name);

  /// The party's transport, whatever the runtime. Misbehaviour tests that
  /// hijack a party use this (set_handler + send work on both runtimes).
  net::Transport& transport(const std::string& name);

  /// Simulator-only: the raw reliable endpoint under the transport.
  /// Throws b2b::Error on the socket runtimes.
  net::ReliableEndpoint& endpoint(const std::string& name);

  /// Process-wide deterministic keypair pool (keys are expensive; reusing
  /// them across federations keeps tests and benches fast).
  static const crypto::RsaPrivateKey& shared_keypair(std::size_t bits,
                                                     std::size_t index);

  /// The keypair assigned to a party. Intended for misbehaviour tests that
  /// need to *play* a dishonest-but-properly-keyed organisation; a real
  /// deployment never shares private keys.
  const crypto::RsaPrivateKey& keypair(const std::string& name) const;

  // --- object setup ------------------------------------------------------------------

  /// Register `impl` as `name`'s replica implementation of `object`.
  Replica& register_object(const std::string& name, const ObjectId& object,
                           B2BObject& impl);

  /// Genesis: bootstrap `object` at every listed party (join order =
  /// list order) with the given initial state. All listed parties must
  /// have registered the object first.
  void bootstrap_object(const ObjectId& object,
                        const std::vector<std::string>& member_names,
                        const Bytes& initial_state);

  /// Convenience: a Controller for `name`'s view of `object`.
  Controller make_controller(const std::string& name, const ObjectId& object,
                             Controller::Mode mode = Controller::Mode::kSync);

  // --- runtime driving ----------------------------------------------------------

  /// Make progress until `handle` completes; returns false if the
  /// progress budget (event budget / real-time timeout) ran out first
  /// (the run is blocked).
  bool run_until_done(const RunHandle& handle);

  /// Make progress until the deployment is quiescent. On the real-thread
  /// runtimes this additionally synchronises with every coordinator, so
  /// state read afterwards is up to date.
  void settle();

  /// An EvidenceVerifier loaded with every party's public key.
  EvidenceVerifier make_verifier() const;

  // --- TTP-certified termination (§7 extension) -------------------------------

  /// The federation's termination TTP (created on first use, attached to
  /// the runtime under the id "termination-ttp" with every party's key).
  TerminationTtp& termination_ttp();

  /// Enable deadline-based certified termination of `object` at every
  /// party (deadline in microseconds of the federation's clock).
  void enable_ttp_termination(const ObjectId& object,
                              std::uint64_t deadline_micros);

  // --- deals (DESIGN.md §12) ----------------------------------------------------

  /// Start a multi-object deal with `name` as initiator.
  RunHandle start_deal(const std::string& name,
                       DealCoordinator::DealSpec spec);

  /// Route every party's deal commits through atomic TTP registration
  /// (creates the federation TTP on first use). Typically paired with
  /// enable_ttp_termination on the leg objects so parked participants
  /// have their own escape.
  void enable_deal_escape();

 private:
  struct Party {
    PartyId id;
    net::ReactorRuntime* node = nullptr;  // socket runtimes only
    net::Transport* transport = nullptr;  // owned by the runtime bundle
    std::unique_ptr<Coordinator> coordinator;
  };

  Party& find_party(const std::string& name);
  std::size_t party_index(const std::string& name) const;
  /// Start one more socket node on the shared directory.
  net::ReactorRuntime& add_node();
  /// The Coordinator::Config party `index` was (and on recovery, is
  /// again) constructed with.
  Coordinator::Config party_config(std::size_t index) const;

  Options options_;
  std::unique_ptr<crypto::TimestampService> tss_;  // refs the runtime clock
  std::vector<std::unique_ptr<Party>> parties_;
  std::unique_ptr<TerminationTtp> termination_ttp_;
  /// Socket runtimes: what every node is built with, and an executor
  /// that waits until every node is quiescent.
  net::ReactorRuntime::Options node_options_;
  net::ThreadedExecutor node_executor_;
  // Declared last, destroyed first: every runtime thread (loops, pools)
  // stops before the coordinators and TTP those threads deliver into
  // die. Either sim_ is set, or nodes_ holds the socket nodes: the
  // shared one (kReactor), or the trusted services' node followed by
  // one per party (kThreaded).
  std::unique_ptr<net::SimRuntime> sim_;
  std::vector<std::unique_ptr<net::ReactorRuntime>> nodes_;

  RuntimeKind runtime_ = RuntimeKind::kSim;
  std::size_t rsa_bits_ = 512;
};

}  // namespace b2b::core
