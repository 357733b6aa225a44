// Coordinator: the per-organisation B2BCoordinator (Figure 4).
//
// One Coordinator runs at each organisation. It owns the party's replicas
// (one per shared object), the certificate directory (party -> public key),
// the non-repudiation log (anchored by trusted time-stamps, and indexed by
// run label: it is also the store of every protocol message, §4.2) and
// the write-ahead journal, and it connects the replicas to the reliable
// transport. Its propagate_* methods are the paper's
// B2BCoordinatorLocal propagation interface: they insulate the application
// (the Controller) from protocol-specific detail.
//
// Concurrency architecture (DESIGN.md §9): the coordinator is sharded by
// ObjectId. Each registered object lives in an ObjectShard that owns the
// replica, a per-shard mutex serialising everything that touches that
// replica (message dispatch, propagate_*, timers), and — when the
// coordinator is given a lane pool — a dispatch strand on that pool, so
// a slow or stalled run on one object never delays another object's
// runs. A thin router (a shared_mutex-guarded map) dispatches
// inbound protocol messages to the owning shard; read-only lookups on
// distinct objects never contend. A small global section remains for
// membership-wide state: the certificate directory and suspect set
// (global_mutex_), the hash-chained evidence log (evidence_mutex_, which
// also fixes the journal-append order of evidence records), protocol
// stats (stats_mutex_) and the single append-only journal stream
// (journal_mutex_). Lock order: shard -> {global | evidence | stats} ->
// journal; no path takes a shard mutex while holding any of the narrower
// ones.
//
// Runtime seam: the coordinator depends only on the abstract Transport /
// Clock / Rng interfaces (net/runtime.hpp), never on the simulator. On the
// deterministic runtime every call arrives on one thread, there are no
// lanes, and every mutex is uncontended, so seeded runs reproduce the
// pre-shard behaviour bit-for-bit (the sharding equivalence suite pins
// this).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "b2b/deal.hpp"
#include "b2b/replica.hpp"
#include "crypto/timestamp.hpp"
#include "net/reactor.hpp"  // TaskPool / Strand (shard lanes)
#include "net/runtime.hpp"
#include "store/evidence_log.hpp"
#include "store/journal.hpp"
#include "wire/codec.hpp"

namespace b2b::core {

class Coordinator {
 public:
  /// How shard state is locked. kPerObject is the production mode: one
  /// mutex per object, independent objects coordinate in parallel.
  /// kCoarse points every shard at one shared mutex (and disables lanes),
  /// reproducing the pre-shard single-lock contention profile — the
  /// baseline the sharding bench and equivalence suite compare against.
  enum class LockMode { kPerObject, kCoarse };

  struct Config {
    PartyId self;
    crypto::RsaPrivateKey key;
    /// Seed for the default DeterministicRng. Ignored if `rng` is set.
    std::uint64_t rng_seed = 0;
    /// Optional injected randomness source (the Rng seam); defaults to a
    /// DeterministicRng derived from `rng_seed` and `self`. Shared across
    /// shards behind an internal lock, so the draw order on the sim
    /// runtime is unchanged from the pre-shard coordinator.
    std::shared_ptr<net::Rng> rng;
    /// Sponsor selection for membership protocols; must match federation-
    /// wide (§4.5.1 and its footnote 2).
    SponsorPolicy sponsor_policy = SponsorPolicy::kRotating;
    /// Group decision rule (§7 majority-resolution extension); must match
    /// federation-wide.
    DecisionRule decision_rule = DecisionRule::kUnanimous;
    /// Directory of the write-ahead journal. Empty disables journaling
    /// entirely (the protocol then behaves exactly as without this
    /// feature: no durability, no idempotent duplicate handling, no run
    /// probes). Non-empty: the journal is opened (replaying any previous
    /// incarnation's records) and every evidence entry, run record and
    /// replica snapshot is journaled before the action it precedes.
    std::string journal_dir;
    /// Honour journal barriers with a real fsync (bench knob).
    bool journal_fsync = true;
    /// Journal-gated liveness probe cadence for in-flight runs (see
    /// Replica::set_run_probe).
    std::uint64_t run_probe_interval_micros = 1'000'000;
    int max_run_probes = 12;
    /// Shard locking mode (see LockMode).
    LockMode lock_mode = LockMode::kPerObject;
    /// When set (with kPerObject), each shard gets a dispatch lane: a
    /// FIFO strand on this bounded pool. Inbound messages and timer
    /// callbacks are posted to the owning shard's lane instead of
    /// running on the transport/clock thread, and thread count stays
    /// flat in the number of objects. A replica blocked in validation
    /// holds one of the pool's workers, which it shares with the
    /// transports' delivery strands and the clock (a socket node's pool
    /// has ReactorRuntime::Options::workers, 4 by default). So it cannot
    /// stall deliveries to other objects only while fewer validations
    /// block at once than the pool has workers; past that, the others
    /// wait for a worker (DESIGN.md §9, E19a). Leave null on the
    /// deterministic simulator (inline dispatch preserves bit-for-bit
    /// event order). Shared ownership: a queued drain task survives the
    /// coordinator.
    std::shared_ptr<net::TaskPool> lane_pool;
    /// Run pipelining (DESIGN.md §13): enables propagate_batch. Must
    /// match federation-wide, like the decision rule.
    bool pipeline = false;
  };

  /// Per-message-type send counters (protocol-level, before transport
  /// retransmission), used by the message-complexity benches (E6).
  struct ProtocolStats {
    std::map<MsgType, std::uint64_t> sent_by_type;
    std::uint64_t envelopes_sent = 0;
    std::uint64_t envelope_bytes_sent = 0;
  };

  /// Router-level counters (Transport::Stats-style): how object lookups
  /// and message dispatch hit the shard map. Concurrent read-only lookups
  /// take the map's shared lock only; map_exclusive_locks counts shard
  /// creation (register_object), the only writer.
  struct RouterStats {
    std::uint64_t lookups = 0;
    std::uint64_t map_exclusive_locks = 0;
    std::uint64_t messages_routed = 0;
    std::uint64_t lane_posts = 0;
  };

  /// Per-shard dispatch counters.
  struct ShardStats {
    std::uint64_t messages_dispatched = 0;
    std::uint64_t timer_fires = 0;
    std::uint64_t lane_posts = 0;
  };

  /// `tss` may be null (evidence anchors then carry no trusted stamp).
  /// `transport` and `clock` must outlive the coordinator.
  Coordinator(Config config, net::Transport& transport, net::Clock& clock,
              const crypto::TimestampService* tss);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  const PartyId& self() const { return self_; }
  const crypto::RsaPublicKey& public_key() const {
    return key_.public_key();
  }

  // --- certificate management ------------------------------------------------

  void add_known_party(const PartyId& party, crypto::RsaPublicKey key);
  const crypto::RsaPublicKey* key_of(const PartyId& party) const;
  /// Snapshot of the directory (for building an EvidenceVerifier).
  std::map<PartyId, crypto::RsaPublicKey> key_directory() const;

  // --- objects ------------------------------------------------------------------

  /// Create (and own) the replica for `object`, wrapping `impl`. The
  /// caller keeps ownership of `impl` and must outlive the coordinator.
  Replica& register_object(const ObjectId& object, B2BObject& impl);
  Replica& replica(const ObjectId& object);
  const Replica& replica(const ObjectId& object) const;
  bool has_object(const ObjectId& object) const;

  /// Enable TTP-certified termination (§7 extension) for one object.
  void enable_ttp_termination(const ObjectId& object,
                              Replica::TtpConfig config);

  // --- deals (DESIGN.md §12) ------------------------------------------------------

  /// Start an atomic multi-object deal as initiator. The handle completes
  /// once every leg has been driven to the all-or-nothing outcome.
  RunHandle start_deal(DealCoordinator::DealSpec spec) {
    return deals_->start_deal(std::move(spec));
  }
  /// The deal layer (TTP escape configuration, stats, verification).
  DealCoordinator& deals() { return *deals_; }
  const DealCoordinator& deals() const { return *deals_; }

  // --- B2BCoordinatorLocal propagation interface (§5) -------------------------

  RunHandle propagate_new_state(const ObjectId& object, Bytes new_state);
  RunHandle propagate_update(const ObjectId& object, Bytes update,
                             Bytes new_state);
  /// Pipeline a hash-chained batch of state changes through ONE
  /// propose/respond/decide round (DESIGN.md §13); a batch of one is the
  /// paper's plain run. Requires Config::pipeline; aborts otherwise.
  RunHandle propagate_batch(const ObjectId& object,
                            std::vector<Replica::BatchOp> ops);
  RunHandle propagate_connect(const ObjectId& object, const PartyId& via);
  RunHandle propagate_disconnect(const ObjectId& object);
  RunHandle propagate_eviction(const ObjectId& object,
                               std::vector<PartyId> subjects);

  // --- stores & evidence ---------------------------------------------------------

  /// On the real-thread runtimes, read these only at quiescence (the lock
  /// acquisition orders prior handler-side writes before the read).
  const store::EvidenceLog& evidence() const {
    std::lock_guard<std::mutex> lock(evidence_mutex_);
    return evidence_;
  }
  /// Compatibility accessor for the benchmark's correctness gate: the
  /// evidence log is the message store. Removed by the benchmark-only
  /// change that switches the gate to evidence().
  const store::MessageStore& messages() const { return evidence(); }

  /// Evidence payloads are framed as {original payload, optional TSS
  /// stamp}; this unpacks one. Only evidence anchors carry a stamp
  /// (DESIGN.md §13(c)).
  struct EvidencePayload {
    Bytes payload;
    std::optional<crypto::Timestamp> timestamp;
  };
  static EvidencePayload decode_evidence_payload(BytesView framed);

  // --- observation -----------------------------------------------------------------

  /// Observer invoked for every CoordEvent from any replica. The observer
  /// runs under the owning shard's mutex plus the observer lock (events
  /// from different shards are serialised with each other); it must not
  /// call back into the coordinator's blocking APIs.
  void set_observer(std::function<void(const CoordEvent&)> observer) {
    std::lock_guard<std::mutex> lock(observer_mutex_);
    observer_ = std::move(observer);
  }

  ProtocolStats protocol_stats() const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return protocol_stats_;
  }
  void reset_protocol_stats() {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    protocol_stats_ = ProtocolStats{};
  }

  RouterStats router_stats() const;
  /// Dispatch counters of one shard (throws for unknown objects).
  ShardStats shard_stats(const ObjectId& object) const;

  /// Total violations detected across all replicas.
  std::uint64_t violations_detected() const;

  /// Memory-barrier helper for external observers on the real-thread
  /// runtimes: drains every shard lane, then acquires and releases each
  /// shard's mutex (and the global/evidence/stats locks), so every prior
  /// handler-side write is ordered before the caller's subsequent reads.
  void synchronize() const;

  /// True when every shard lane has an empty queue and no task running
  /// (vacuously true without lanes). Quiescence probes on the real-thread
  /// runtimes poll this: a message acked by the transport may still be
  /// queued on a lane.
  bool lanes_idle() const;

  /// Teardown barrier: stop every shard lane, discarding queued tasks
  /// (idempotent; the destructor calls it too). Harnesses that are about
  /// to destroy the transport this coordinator sends on call this first —
  /// after stopping the runtime threads that feed the lanes — so no lane
  /// task can touch a dying transport.
  void stop_lanes();

  // --- crash recovery & fault injection ----------------------------------------

  /// The write-ahead journal, or nullptr when journaling is disabled.
  const store::Journal* journal() const { return journal_.get(); }

  /// True when the journal replay at construction found records from a
  /// previous incarnation (i.e. this coordinator is a restart).
  bool recovered() const {
    std::lock_guard<std::mutex> lock(global_mutex_);
    return recovered_any_;
  }

  /// Redo-and-resend phase of recovery: call once after every object has
  /// been re-registered. Returns handles of runs resumed in flight.
  std::vector<RunHandle> resume_recovered_runs();

  /// Arm a named crash point (see the names in replica.cpp): the next
  /// time protocol processing passes it, a SimulatedCrash unwinds to the
  /// coordinator entry point and the coordinator goes permanently inert
  /// (as if the process had been killed). Empty disarms.
  void arm_crash_point(std::string point) {
    std::lock_guard<std::mutex> lock(global_mutex_);
    armed_crash_point_ = std::move(point);
  }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Peers the transport reported as unreachable (max_retransmits
  /// exhausted on some frame). Evidence-logged as "peer.suspect".
  std::set<PartyId> suspected_peers() const {
    std::lock_guard<std::mutex> lock(global_mutex_);
    return suspects_;
  }

 private:
  /// The deal layer drives legs through shard entry points and journals
  /// coordinator-scoped records; it is part of the coordinator's
  /// implementation, split into its own class (deal.hpp).
  friend class DealCoordinator;

  /// Shared anchor for callbacks that can outlive the coordinator
  /// (clock timers, the transport's delivery-failure handler). The
  /// callback locks the anchor, null-checks, and only then touches the
  /// coordinator; ~Coordinator nulls the pointer under the anchor mutex,
  /// which blocks until any in-flight callback has finished.
  struct TimerAnchor {
    std::mutex mutex;
    Coordinator* coordinator = nullptr;
  };

  /// Everything one object needs to coordinate independently: the
  /// replica, the mutex serialising it, the optional lane, and dispatch
  /// counters. Shards are created by register_object and never erased, so
  /// raw ObjectShard pointers stay valid for the coordinator's lifetime
  /// (lane tasks and timers hold them across map growth).
  struct ObjectShard {
    ObjectId id;
    /// Points at own_mutex (kPerObject) or the coordinator's shared
    /// coarse_mutex_ (kCoarse). Recursive for parity with the pre-shard
    /// lock: replica callbacks may re-enter coordinator methods while a
    /// dispatch holds it.
    std::recursive_mutex* mutex = nullptr;
    std::recursive_mutex own_mutex;
    std::unique_ptr<Replica> replica;
    /// FIFO, one task at a time, stop discards the queue.
    std::unique_ptr<net::Strand> lane;
    std::atomic<std::uint64_t> messages_dispatched{0};
    std::atomic<std::uint64_t> timer_fires{0};
    std::atomic<std::uint64_t> lane_posts{0};
  };

  /// Serialises a shared Rng across shards without changing the stream.
  class LockedRng final : public net::Rng {
   public:
    explicit LockedRng(net::Rng& inner) : inner_(inner) {}
    void fill(std::uint8_t* out, std::size_t len) override {
      std::lock_guard<std::mutex> lock(mutex_);
      inner_.fill(out, len);
    }

   private:
    std::mutex mutex_;
    net::Rng& inner_;
  };

  /// Router lookup: shared lock on the shard map only. Returns nullptr
  /// for unknown objects.
  ObjectShard* find_shard(const ObjectId& object) const;
  ObjectShard& find_shard_or_throw(const ObjectId& object) const;

  /// Run `fn` on the shard: post to its lane when one exists, else
  /// inline. Either way `fn` executes under the shard mutex with the
  /// crashed check and SimulatedCrash containment of the pre-shard entry
  /// points.
  void run_on_shard(ObjectShard& shard, std::function<void()> fn);
  void exec_on_shard(ObjectShard& shard, const std::function<void()>& fn);
  /// Propagation entry: lock the shard, check crashed, call `fn` (which
  /// returns the run handle), containing SimulatedCrash as an abort.
  RunHandle propagate_on_shard(const ObjectId& object,
                               const std::function<RunHandle(Replica&)>& fn);

  void replay_journal();
  void replay_object_record(std::uint8_t type, const ObjectId& object,
                            Replica::RecoveredObjectState& rec,
                            wire::Decoder& dec);
  void handle_delivery_failure(const PartyId& to);
  static RunHandle aborted_handle(std::string diagnostic);
  void on_message(const PartyId& from, const Bytes& payload);
  /// Append one evidence record, filed under each of `run_labels` (the
  /// runs whose transcript the record belongs to; empty for records that
  /// are not protocol messages).
  void record_evidence(const std::string& kind, const Bytes& payload,
                       const std::vector<std::string>& run_labels = {});
  /// The unwrapped payloads of the evidence records of `kind` filed under
  /// `run_label`, in chain order (Replica::Callbacks::run_evidence).
  std::vector<Bytes> run_evidence(const std::string& run_label,
                                  const std::string& kind) const;
  /// Seal the evidence log (DESIGN.md §13(c)): append a signed anchor
  /// over the head record, carrying the TSS stamp of the anchor's signed
  /// bytes. Called wherever a run closes at this party; a no-op when
  /// nothing was appended since the last seal.
  void seal_evidence();
  /// Journal (when journaling) and append one framed evidence record.
  /// Caller holds evidence_mutex_.
  void append_evidence_locked(const std::string& kind, Bytes framed,
                              const std::vector<std::string>& run_labels);
  void send(const PartyId& to, const Envelope& envelope);

  PartyId self_;
  crypto::RsaPrivateKey key_;
  std::shared_ptr<net::Rng> rng_;
  std::unique_ptr<LockedRng> locked_rng_;  // wraps *rng_ for all shards
  net::Transport& transport_;
  net::Clock& clock_;
  const crypto::TimestampService* tss_;

  LockMode lock_mode_;
  /// Pipeline mode (DESIGN.md §13): batch proposals.
  bool pipeline_ = false;
  /// Backing pool of the shard lanes (null = no lanes, inline dispatch).
  std::shared_ptr<net::TaskPool> lane_pool_;
  SponsorPolicy sponsor_policy_;
  DecisionRule decision_rule_;

  /// The router: object -> shard. Shared lock for lookups and dispatch,
  /// exclusive only while register_object inserts.
  mutable std::shared_mutex shard_map_mutex_;
  std::unordered_map<ObjectId, std::unique_ptr<ObjectShard>> shards_;
  /// The single lock every shard shares in LockMode::kCoarse.
  std::recursive_mutex coarse_mutex_;

  /// Membership-wide state: certificate directory, suspect set, armed
  /// crash point.
  mutable std::mutex global_mutex_;
  std::map<PartyId, crypto::RsaPublicKey> known_keys_;
  std::set<PartyId> suspects_;
  std::string armed_crash_point_;
  bool recovered_any_ = false;

  /// The hash-chained evidence log and its run index. Held across the
  /// journal append of each kEvidence record AND the in-memory append, so
  /// the journaled order equals the chain order (recovery rebuilds the
  /// identical chain and index), and across every index read.
  mutable std::mutex evidence_mutex_;
  store::EvidenceLog evidence_;
  /// A record was appended after the head the newest seal covers.
  bool unsealed_ = false;

  /// Serialises every append/sync on the single journal stream
  /// (DESIGN.md §9: a dedicated lock rather than per-shard buffers, so
  /// the journal-then-act discipline keeps its "journaled before sent"
  /// meaning across shards).
  mutable std::mutex journal_mutex_;
  std::unique_ptr<store::Journal> journal_;

  mutable std::mutex stats_mutex_;
  ProtocolStats protocol_stats_;

  mutable std::mutex observer_mutex_;
  std::function<void(const CoordEvent&)> observer_;

  // --- router stats -------------------------------------------------------------
  mutable std::atomic<std::uint64_t> stat_lookups_{0};
  mutable std::atomic<std::uint64_t> stat_map_exclusive_{0};
  mutable std::atomic<std::uint64_t> stat_messages_routed_{0};
  mutable std::atomic<std::uint64_t> stat_lane_posts_{0};

  // --- deals --------------------------------------------------------------------
  /// Initiator-side deal driver (constructed after journal replay).
  std::unique_ptr<DealCoordinator> deals_;
  /// Deal-layer journal state from replay, consumed by the deal resume in
  /// resume_recovered_runs.
  RecoveredDealState recovered_deals_;

  // --- crash recovery & fault injection ----------------------------------------
  std::shared_ptr<TimerAnchor> anchor_;
  /// Per-object state reconstructed by the journal replay, consumed by
  /// register_object (single-threaded: constructor, then under the
  /// exclusive shard-map lock).
  std::unordered_map<ObjectId, Replica::RecoveredObjectState> recovered_;
  std::atomic<bool> crashed_{false};
  std::uint64_t run_probe_interval_micros_;
  int max_run_probes_;
};

}  // namespace b2b::core
