#include "b2b/coordinator.hpp"

#include <algorithm>
#include <vector>

#include "b2b/recovery.hpp"
#include "b2b/termination.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "wire/codec.hpp"

namespace b2b::core {

// ---------------------------------------------------------------------------
// ShardLane
// ---------------------------------------------------------------------------

Coordinator::ShardLane::ShardLane() {
  worker_ = std::thread([this] { worker_loop(); });
}

Coordinator::ShardLane::ShardLane(std::shared_ptr<net::TaskPool> pool)
    : strand_(std::make_unique<net::Strand>(std::move(pool))) {}

Coordinator::ShardLane::~ShardLane() { stop(); }

void Coordinator::ShardLane::post(std::function<void()> task) {
  if (strand_) {
    strand_->post(std::move(task));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    queue_.push_back(std::move(task));
  }
  cv_.notify_all();
}

bool Coordinator::ShardLane::idle() const {
  if (strand_) return strand_->idle();
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty() && !running_;
}

void Coordinator::ShardLane::wait_idle() const {
  if (strand_) {
    strand_->wait_idle();
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return (queue_.empty() && !running_) || stopping_; });
}

void Coordinator::ShardLane::stop() {
  if (strand_) {
    strand_->stop();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    queue_.clear();  // the coordinator is dying; queued work is discarded
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void Coordinator::ShardLane::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (stopping_) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    running_ = true;
    lock.unlock();
    task();
    lock.lock();
    running_ = false;
    if (queue_.empty()) cv_.notify_all();  // wake wait_idle / quiescence
  }
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

Coordinator::Coordinator(Config config, net::Transport& transport,
                         net::Clock& clock,
                         const crypto::TimestampService* tss)
    : self_(std::move(config.self)),
      key_(std::move(config.key)),
      rng_(config.rng ? std::move(config.rng)
                      : std::make_shared<net::DeterministicRng>(
                            config.rng_seed ^
                            std::hash<std::string>{}(self_.str()))),
      transport_(transport),
      clock_(clock),
      tss_(tss),
      lock_mode_(config.lock_mode),
      shard_lanes_(config.shard_lanes &&
                   config.lock_mode == LockMode::kPerObject),
      lane_pool_(config.lane_pool),
      sponsor_policy_(config.sponsor_policy),
      decision_rule_(config.decision_rule),
      run_probe_interval_micros_(config.run_probe_interval_micros),
      max_run_probes_(config.max_run_probes) {
  pipeline_ = config.pipeline;
  anchor_ = std::make_shared<TimerAnchor>();
  anchor_->coordinator = this;
  if (!config.journal_dir.empty()) {
    store::Journal::Options jopts;
    jopts.fsync = config.journal_fsync;
    journal_ =
        std::make_unique<store::Journal>(config.journal_dir, std::move(jopts));
    if (journal_->incarnation() > 1 && !config.rng) {
      // A restarted party must never reuse its previous incarnation's
      // authenticator randomness (the preimages it committed to are
      // potentially already on the wire): mix the incarnation into the
      // seed. Incarnation 1 keeps the exact original stream.
      rng_ = std::make_shared<net::DeterministicRng>(
          (config.rng_seed ^ std::hash<std::string>{}(self_.str())) *
              0x9e3779b97f4a7c15ULL +
          journal_->incarnation());
    }
    replay_journal();
    // Anchor whatever the previous incarnation left unsealed (it may have
    // died between closing a run and sealing it).
    seal_evidence();
  }
  locked_rng_ = std::make_unique<LockedRng>(*rng_);
  known_keys_.emplace(self_, key_.public_key());
  // The deal layer exists before the transport handler is installed: a
  // TTP verdict can arrive as soon as messages flow.
  deals_ = std::make_unique<DealCoordinator>(*this);
  transport_.set_handler([this](const PartyId& from, const Bytes& payload) {
    on_message(from, payload);
  });
  transport_.set_delivery_failure_handler(
      [anchor = anchor_](const PartyId& to) {
        std::lock_guard<std::mutex> guard(anchor->mutex);
        if (anchor->coordinator == nullptr) return;
        anchor->coordinator->handle_delivery_failure(to);
      });
}

Coordinator::~Coordinator() {
  {
    // Block until any in-flight timer / delivery-failure callback drains,
    // then make all future ones no-ops.
    std::lock_guard<std::mutex> guard(anchor_->mutex);
    anchor_->coordinator = nullptr;
  }
  // With the anchor cleared no timer can post new lane work; stop every
  // lane (joining its worker, discarding queued tasks) while all members
  // are still alive for any task caught mid-dispatch.
  stop_lanes();
}

void Coordinator::stop_lanes() {
  std::vector<ObjectShard*> shards;
  {
    std::shared_lock<std::shared_mutex> lock(shard_map_mutex_);
    shards.reserve(shards_.size());
    for (const auto& [object, shard] : shards_) shards.push_back(shard.get());
  }
  for (ObjectShard* shard : shards) {
    if (shard->lane) shard->lane->stop();
  }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

Coordinator::ObjectShard* Coordinator::find_shard(
    const ObjectId& object) const {
  stat_lookups_.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(shard_map_mutex_);
  auto it = shards_.find(object);
  return it == shards_.end() ? nullptr : it->second.get();
}

Coordinator::ObjectShard& Coordinator::find_shard_or_throw(
    const ObjectId& object) const {
  ObjectShard* shard = find_shard(object);
  if (shard == nullptr) {
    throw Error("unknown object: " + object.str());
  }
  return *shard;
}

void Coordinator::exec_on_shard(ObjectShard& shard,
                                const std::function<void()>& fn) {
  std::lock_guard<std::recursive_mutex> lock(*shard.mutex);
  if (crashed_.load(std::memory_order_acquire)) return;
  try {
    fn();
  } catch (const SimulatedCrash& crash) {
    B2B_DEBUG(self_, ": simulated crash at ", crash.point);
    crashed_.store(true, std::memory_order_release);
  }
}

void Coordinator::run_on_shard(ObjectShard& shard, std::function<void()> fn) {
  if (shard.lane) {
    shard.lane_posts.fetch_add(1, std::memory_order_relaxed);
    stat_lane_posts_.fetch_add(1, std::memory_order_relaxed);
    shard.lane->post(
        [this, &shard, fn = std::move(fn)] { exec_on_shard(shard, fn); });
  } else {
    exec_on_shard(shard, fn);
  }
}

// ---------------------------------------------------------------------------
// Certificates
// ---------------------------------------------------------------------------

void Coordinator::add_known_party(const PartyId& party,
                                  crypto::RsaPublicKey key) {
  std::lock_guard<std::mutex> lock(global_mutex_);
  auto it = known_keys_.find(party);
  if (it != known_keys_.end() && it->second.encode() == key.encode()) {
    // Re-learning an identical key is a no-op (no journal record, no
    // reassignment) so pointers handed out by key_of stay stable while
    // other shards verify signatures. Genuinely changing a party's key
    // requires quiescence.
    return;
  }
  if (journal_) {
    wire::Encoder enc;
    enc.str(party.str()).blob(key.encode());
    std::lock_guard<std::mutex> jlock(journal_mutex_);
    journal_->append(walrec::kPartyKey, std::move(enc).take());
  }
  known_keys_[party] = std::move(key);
}

const crypto::RsaPublicKey* Coordinator::key_of(const PartyId& party) const {
  std::lock_guard<std::mutex> lock(global_mutex_);
  auto it = known_keys_.find(party);
  return it == known_keys_.end() ? nullptr : &it->second;
}

std::map<PartyId, crypto::RsaPublicKey> Coordinator::key_directory() const {
  std::lock_guard<std::mutex> lock(global_mutex_);
  return known_keys_;
}

// ---------------------------------------------------------------------------
// Objects
// ---------------------------------------------------------------------------

Replica& Coordinator::register_object(const ObjectId& object,
                                      B2BObject& impl) {
  // The exclusive shard-map lock is the only writer-side lock in the
  // router; it also keeps message dispatch for the new object out until
  // the shard is fully built (including recovery restoration).
  std::unique_lock<std::shared_mutex> map_lock(shard_map_mutex_);
  stat_map_exclusive_.fetch_add(1, std::memory_order_relaxed);
  if (shards_.contains(object)) {
    throw Error("register_object: object already registered: " + object.str());
  }
  auto shard = std::make_unique<ObjectShard>();
  shard->id = object;
  shard->mutex = lock_mode_ == LockMode::kCoarse ? &coarse_mutex_
                                                 : &shard->own_mutex;
  ObjectShard* shard_ptr = shard.get();

  Replica::Callbacks callbacks;
  callbacks.send = [this](const PartyId& to, const Envelope& envelope) {
    send(to, envelope);
  };
  callbacks.now = [this] { return clock_.now_micros(); };
  callbacks.record_evidence = [this](const std::string& kind,
                                     const Bytes& payload,
                                     const std::string& run_label) {
    if (run_label.empty()) {
      record_evidence(kind, payload);
    } else {
      record_evidence(kind, payload, {run_label});
    }
  };
  callbacks.run_evidence = [this](const std::string& run_label,
                                  const std::string& kind) {
    return run_evidence(run_label, kind);
  };
  callbacks.seal_evidence = [this] { seal_evidence(); };
  callbacks.key_of = [this](const PartyId& party) { return key_of(party); };
  callbacks.learn_key = [this](const PartyId& party,
                               const crypto::RsaPublicKey& key) {
    add_known_party(party, key);
  };
  callbacks.notify = [this](const CoordEvent& event) {
    // Events from different shards are serialised with each other, as
    // with the pre-shard single lock.
    std::lock_guard<std::mutex> lock(observer_mutex_);
    if (observer_) observer_(event);
  };
  callbacks.schedule = [this, anchor = anchor_, shard_ptr](
                           std::uint64_t delay, std::function<void()> fn) {
    // Timers fire on the clock's thread: anchor-check (the coordinator
    // may have been destroyed, e.g. by a crash-recovery test), then route
    // to the owning shard — its lane when one exists (so a deadline
    // handler blocked on one object cannot stall the shared clock
    // thread), inline under the shard mutex otherwise. A simulated crash
    // inside a timer marks the coordinator crashed, exactly like one
    // inside a message handler.
    clock_.schedule_after(delay, [anchor, shard_ptr, fn = std::move(fn)] {
      std::lock_guard<std::mutex> guard(anchor->mutex);
      Coordinator* coordinator = anchor->coordinator;
      if (coordinator == nullptr) return;
      shard_ptr->timer_fires.fetch_add(1, std::memory_order_relaxed);
      coordinator->run_on_shard(*shard_ptr, fn);
    });
  };
  if (journal_) {
    callbacks.journal_record = [this, object](std::uint8_t type,
                                              const Bytes& payload) {
      wire::Encoder enc;
      enc.str(object.str()).raw(payload);
      std::lock_guard<std::mutex> lock(journal_mutex_);
      journal_->append(type, std::move(enc).take());
    };
    callbacks.journal_barrier = [this] {
      std::lock_guard<std::mutex> lock(journal_mutex_);
      journal_->sync();
    };
    callbacks.crash_point = [this](const char* point) {
      std::lock_guard<std::mutex> lock(global_mutex_);
      if (!armed_crash_point_.empty() && armed_crash_point_ == point) {
        throw SimulatedCrash{point};
      }
    };
  }
  shard->replica = std::make_unique<Replica>(self_, object, impl, key_,
                                             *locked_rng_, std::move(callbacks));
  shard->replica->set_sponsor_policy(sponsor_policy_);
  shard->replica->set_decision_rule(decision_rule_);
  shard->replica->set_run_probe(run_probe_interval_micros_, max_run_probes_);
  shard->replica->set_deal_hooks(deals_->make_hooks());
  if (shard_lanes_) {
    shard->lane = lane_pool_ ? std::make_unique<ShardLane>(lane_pool_)
                             : std::make_unique<ShardLane>();
  }
  Replica& ref = *shard->replica;
  if (auto it = recovered_.find(object); it != recovered_.end()) {
    std::lock_guard<std::recursive_mutex> lock(*shard_ptr->mutex);
    ref.restore_recovered(it->second);
    recovered_.erase(it);
  }
  shards_.emplace(object, std::move(shard));
  return ref;
}

std::vector<RunHandle> Coordinator::resume_recovered_runs() {
  std::vector<RunHandle> handles;
  if (crashed_.load(std::memory_order_acquire)) return handles;
  std::vector<ObjectShard*> shards;
  {
    std::shared_lock<std::shared_mutex> lock(shard_map_mutex_);
    shards.reserve(shards_.size());
    for (const auto& [object, shard] : shards_) shards.push_back(shard.get());
  }
  for (ObjectShard* shard : shards) {
    std::lock_guard<std::recursive_mutex> lock(*shard->mutex);
    try {
      std::vector<RunHandle> resumed = shard->replica->resume_recovered_runs();
      handles.insert(handles.end(), resumed.begin(), resumed.end());
    } catch (const SimulatedCrash&) {
      crashed_.store(true, std::memory_order_release);
      break;
    }
  }
  // Deal resume runs after per-run resume (which redoes journaled decides
  // and clears their staged flags), so the deal layer sees the final
  // per-leg picture.
  if (!crashed_.load(std::memory_order_acquire)) {
    try {
      std::vector<RunHandle> deal_handles =
          deals_->resume(std::move(recovered_deals_));
      handles.insert(handles.end(), deal_handles.begin(), deal_handles.end());
    } catch (const SimulatedCrash&) {
      crashed_.store(true, std::memory_order_release);
    }
    recovered_deals_ = RecoveredDealState{};
    // Recovery appended its own records ("recovery" per object), and a
    // party whose runs had all closed resumes nothing that would seal.
    seal_evidence();
  }
  return handles;
}

Replica& Coordinator::replica(const ObjectId& object) {
  // Read-only router lookup: shared map lock only, no shard contention.
  return *find_shard_or_throw(object).replica;
}

const Replica& Coordinator::replica(const ObjectId& object) const {
  return *find_shard_or_throw(object).replica;
}

bool Coordinator::has_object(const ObjectId& object) const {
  return find_shard(object) != nullptr;
}

void Coordinator::enable_ttp_termination(const ObjectId& object,
                                         Replica::TtpConfig config) {
  ObjectShard& shard = find_shard_or_throw(object);
  std::lock_guard<std::recursive_mutex> lock(*shard.mutex);
  shard.replica->enable_ttp_termination(std::move(config));
}

// ---------------------------------------------------------------------------
// Propagation interface
// ---------------------------------------------------------------------------

RunHandle Coordinator::aborted_handle(std::string diagnostic) {
  auto handle = std::make_shared<RunResult>();
  handle->diagnostic = std::move(diagnostic);
  handle->outcome.store(RunResult::Outcome::kAborted);
  return handle;
}

RunHandle Coordinator::propagate_on_shard(
    const ObjectId& object, const std::function<RunHandle(Replica&)>& fn) {
  ObjectShard& shard = find_shard_or_throw(object);
  std::lock_guard<std::recursive_mutex> lock(*shard.mutex);
  if (crashed_.load(std::memory_order_acquire)) {
    return aborted_handle("coordinator crashed");
  }
  try {
    return fn(*shard.replica);
  } catch (const SimulatedCrash& crash) {
    crashed_.store(true, std::memory_order_release);
    return aborted_handle(std::string("simulated crash at ") + crash.point);
  }
}

RunHandle Coordinator::propagate_new_state(const ObjectId& object,
                                           Bytes new_state) {
  return propagate_on_shard(object, [&](Replica& replica) {
    return replica.propose_state(std::move(new_state));
  });
}

RunHandle Coordinator::propagate_update(const ObjectId& object, Bytes update,
                                        Bytes new_state) {
  return propagate_on_shard(object, [&](Replica& replica) {
    return replica.propose_update(std::move(update), std::move(new_state));
  });
}

RunHandle Coordinator::propagate_batch(const ObjectId& object,
                                       std::vector<Replica::BatchOp> ops) {
  if (!pipeline_) {
    return aborted_handle("pipelining disabled (Config::pipeline)");
  }
  return propagate_on_shard(object, [&](Replica& replica) {
    return replica.propose_batch(std::move(ops));
  });
}

RunHandle Coordinator::propagate_connect(const ObjectId& object,
                                         const PartyId& via) {
  return propagate_on_shard(
      object, [&](Replica& replica) { return replica.request_connect(via); });
}

RunHandle Coordinator::propagate_disconnect(const ObjectId& object) {
  return propagate_on_shard(
      object, [&](Replica& replica) { return replica.request_disconnect(); });
}

RunHandle Coordinator::propagate_eviction(const ObjectId& object,
                                          std::vector<PartyId> subjects) {
  return propagate_on_shard(object, [&](Replica& replica) {
    return replica.propose_eviction(std::move(subjects));
  });
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Coordinator::on_message(const PartyId& from, const Bytes& payload) {
  if (crashed_.load(std::memory_order_acquire)) return;
  Envelope envelope;
  try {
    envelope = Envelope::decode(payload);
  } catch (const CodecError& e) {
    B2B_DEBUG(self_, ": undecodable envelope from ", from, ": ", e.what());
    record_evidence(evidence_kind::kViolation,
                    bytes_of("undecodable envelope from " + from.str()));
    return;
  }
  if (envelope.type == MsgType::kDealTerminationVerdict) {
    // Deal-level verdicts are coordinator-scoped, not object-scoped:
    // route to the deal layer (with the same SimulatedCrash containment
    // as shard dispatch) instead of a shard.
    try {
      deals_->on_ttp_verdict(from, envelope);
    } catch (const SimulatedCrash& crash) {
      B2B_DEBUG(self_, ": simulated crash at ", crash.point);
      crashed_.store(true, std::memory_order_release);
    }
    return;
  }
  ObjectShard* shard = find_shard(envelope.object);
  if (shard == nullptr) {
    B2B_DEBUG(self_, ": message for unknown object ", envelope.object);
    return;
  }
  stat_messages_routed_.fetch_add(1, std::memory_order_relaxed);
  run_on_shard(*shard,
               [this, shard, from, envelope = std::move(envelope)] {
                 shard->messages_dispatched.fetch_add(
                     1, std::memory_order_relaxed);
                 shard->replica->handle(from, envelope);
               });
}

void Coordinator::handle_delivery_failure(const PartyId& to) {
  if (crashed_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(global_mutex_);
    if (!suspects_.insert(to).second) return;
  }
  record_evidence("peer.suspect", bytes_of(to.str()));
  // At most once per peer (the suspect set only grows), so no sender can
  // make this seal repeat.
  seal_evidence();
}

void Coordinator::record_evidence(const std::string& kind,
                                  const Bytes& payload,
                                  const std::vector<std::string>& run_labels) {
  // No per-record trusted stamp: the anchor that seals the run covers this
  // record through the hash chain (seal_evidence), so the stamp slot of
  // the framing stays empty.
  wire::Encoder framed;
  framed.blob(payload);
  framed.blob({});
  std::lock_guard<std::mutex> lock(evidence_mutex_);
  append_evidence_locked(kind, std::move(framed).take(), run_labels);
  unsealed_ = true;
}

std::vector<Bytes> Coordinator::run_evidence(const std::string& run_label,
                                             const std::string& kind) const {
  std::vector<Bytes> out;
  std::lock_guard<std::mutex> lock(evidence_mutex_);
  for (const store::EvidenceRecord* record : evidence_.run(run_label)) {
    if (record->kind == kind) {
      out.push_back(decode_evidence_payload(record->payload).payload);
    }
  }
  return out;
}

void Coordinator::append_evidence_locked(
    const std::string& kind, Bytes framed,
    const std::vector<std::string>& run_labels) {
  // One lock covers timestamping-by-clock, the journal append and the
  // in-memory append, so the journaled order of kEvidence records equals
  // the chain's append order (recovery rebuilds the identical chain).
  const std::uint64_t now = clock_.now_micros();
  if (journal_) {
    wire::Encoder enc;
    enc.str(kind).blob(framed).u64(now);
    for (const std::string& label : run_labels) enc.str(label);
    std::lock_guard<std::mutex> jlock(journal_mutex_);
    journal_->append(walrec::kEvidence, std::move(enc).take());
  }
  evidence_.append(kind, std::move(framed), now, run_labels);
}

void Coordinator::seal_evidence() {
  // Linked time-stamping (DESIGN.md §13(c)): sign the head record's chain
  // hash and have the TSS stamp the signed bytes; the anchor joins the
  // chain like any other record, so the next record's hash depends on
  // the stamp. The head is claimed under the lock, the two RSA
  // operations run outside it (shards seal in parallel), and the append
  // takes it again.
  EvidenceAnchor anchor;
  {
    std::lock_guard<std::mutex> lock(evidence_mutex_);
    if (!unsealed_) return;
    unsealed_ = false;
    const store::EvidenceRecord& head = evidence_.at(evidence_.size() - 1);
    anchor.index = head.index;
    anchor.head_hash = head.record_hash;
  }
  const Bytes signed_bytes = anchor.signed_bytes();
  anchor.signature = key_.sign(signed_bytes);
  wire::Encoder framed;
  framed.blob(anchor.encode());
  framed.blob(tss_ != nullptr ? tss_->stamp(signed_bytes).encode() : Bytes{});
  std::lock_guard<std::mutex> lock(evidence_mutex_);
  append_evidence_locked(evidence_kind::kEvidenceAnchor,
                         std::move(framed).take(), {});
}

// ---------------------------------------------------------------------------
// Journal replay
// ---------------------------------------------------------------------------

void Coordinator::replay_journal() {
  for (const store::JournalRecord& record : journal_->records()) {
    recovered_any_ = true;
    wire::Decoder dec{record.payload};
    switch (record.type) {
      case walrec::kPartyKey: {
        PartyId party{dec.str()};
        Bytes key = dec.blob();
        dec.expect_done();
        known_keys_[party] = crypto::RsaPublicKey::decode(key);
        break;
      }
      case walrec::kEvidence: {
        std::string kind = dec.str();
        Bytes framed = dec.blob();
        std::uint64_t time = dec.u64();
        std::vector<std::string> run_labels;
        while (!dec.done()) run_labels.push_back(dec.str());
        // Unsealed until an anchor follows (the seal after replay
        // anchors what a crash left between a run's close and its seal).
        unsealed_ = kind != evidence_kind::kEvidenceAnchor;
        evidence_.append(std::move(kind), std::move(framed), time,
                         run_labels);
        break;
      }
      case walrec::kRetiredMessage:
        // A previous version's copy of a protocol message, now held only
        // by the evidence log. Its first field is a run label, not an
        // object id: it must not reach the object-scoped default branch.
        break;
      case walrec::kDealOpen: {
        DealEnlistMsg enlist = DealEnlistMsg::decode(record.payload);
        recovered_deals_.open[enlist.proposal.deal_id] = record.payload;
        break;
      }
      case walrec::kDealDecided: {
        // Last one wins: the TTP-abort path journals an overriding abort
        // after the commit decision.
        DealDecisionMsg decision = DealDecisionMsg::decode(record.payload);
        recovered_deals_.decisions[decision.decision.deal_id] =
            record.payload;
        break;
      }
      case walrec::kDealClosed: {
        std::string deal_id = dec.str();
        dec.expect_done();
        recovered_deals_.open.erase(deal_id);
        recovered_deals_.decisions.erase(deal_id);
        recovered_deals_.ttp_submitted.erase(deal_id);
        recovered_deals_.ttp_verdicts.erase(deal_id);
        break;
      }
      case walrec::kDealTtpSubmitted: {
        std::string deal_id = dec.str();
        dec.expect_done();
        recovered_deals_.ttp_submitted.insert(std::move(deal_id));
        break;
      }
      case walrec::kDealVerdictDelivered: {
        Bytes signature;
        DealTerminationVerdict verdict =
            DealTerminationVerdict::decode_fields(record.payload, &signature);
        recovered_deals_.ttp_verdicts[verdict.deal_id] = record.payload;
        break;
      }
      default: {
        // Object-scoped replica record: first field is the object id.
        // Each object's shard is rebuilt independently from its own
        // record subsequence; register_object hands the result to the
        // object's replica.
        ObjectId object{dec.str()};
        replay_object_record(record.type, object, recovered_[object], dec);
        break;
      }
    }
  }
}

namespace {

/// Every item of a journaled run enters replay protection and the
/// sequence watermark.
void note_run_items(Replica::RecoveredObjectState& rec,
                    const RunPropose& propose) {
  for (const std::string& label : propose.labels()) {
    rec.seen_labels.insert(label);
  }
  rec.max_sequence = std::max(rec.max_sequence, propose.sequence());
}

}  // namespace

void Coordinator::replay_object_record(std::uint8_t type,
                                       const ObjectId& object,
                                       Replica::RecoveredObjectState& rec,
                                       wire::Decoder& dec) {
  switch (type) {
    case walrec::kSnapshot: {
      // Snapshots are taken at every durable-state mutation; runs opened
      // before this snapshot stay open (proposer snapshots precede the
      // run-closed record).
      rec.snapshot = ReplicaSnapshot::decode(dec.blob());
      dec.expect_done();
      break;
    }
    case walrec::kProposerRun: {
      auto run = Replica::ProposerRunRecord::decode(dec.blob());
      dec.expect_done();
      note_run_items(rec, run.propose);
      // The sponsor of a membership run re-answers (never re-runs) a
      // duplicate of the request it acted on.
      if (const MembershipProposeMsg* m = run.propose.membership()) {
        rec.processed_nonces.insert(to_hex(m->proposal.request.request_nonce));
      }
      rec.proposer_run = std::move(run);
      rec.proposer_responses.clear();
      rec.proposer_decide.reset();
      break;
    }
    case walrec::kResponseReceived: {
      RunResponse response = RunResponse::decode_from(dec);
      dec.expect_done();
      if (!rec.proposer_run.has_value() ||
          !response.answers(rec.proposer_run->propose)) {
        break;  // response for an already-closed run
      }
      rec.proposer_responses.emplace(response.responder(), response);
      break;
    }
    case walrec::kDecideSent: {
      RunDecide decide = RunDecide::decode_from(dec);
      dec.expect_done();
      if (rec.proposer_run.has_value() &&
          decide.label() == rec.proposer_run->propose.label()) {
        rec.proposer_decide = std::move(decide);
      }
      break;
    }
    case walrec::kProposerClosed: {
      std::string label = dec.str();
      dec.expect_done();
      rec.seen_labels.insert(label);
      if (rec.proposer_run.has_value() &&
          rec.proposer_run->propose.label() == label) {
        rec.proposer_run.reset();
        rec.proposer_responses.clear();
        rec.proposer_decide.reset();
      }
      rec.termination_submissions.erase(label);
      rec.verdicts.erase(label);
      rec.staged_runs.erase(label);
      break;
    }
    case walrec::kResponderRun: {
      auto run = Replica::ResponderRunRecord::decode(dec.blob());
      dec.expect_done();
      note_run_items(rec, run.propose);
      const std::string label = run.propose.label();
      rec.responder_runs.insert_or_assign(label, std::move(run));
      break;
    }
    case walrec::kDecideDelivered: {
      RunDecide decide = RunDecide::decode_from(dec);
      dec.expect_done();
      const std::string label = decide.label();
      if (rec.responder_runs.contains(label)) {
        rec.responder_decides.insert_or_assign(label, std::move(decide));
      }
      break;
    }
    case walrec::kResponderClosed: {
      std::string label = dec.str();
      dec.expect_done();
      rec.seen_labels.insert(label);
      rec.responder_runs.erase(label);
      rec.responder_decides.erase(label);
      rec.termination_submissions.erase(label);
      rec.verdicts.erase(label);
      break;
    }
    case walrec::kSubjectRequest: {
      auto request = Replica::SubjectRequestRecord::decode(dec.blob());
      dec.expect_done();
      rec.subject_request = std::move(request);
      break;
    }
    case walrec::kSubjectAnswer: {
      std::string nonce_key = dec.str();
      const auto type = static_cast<MsgType>(dec.u8());
      Bytes body = dec.blob();
      dec.expect_done();
      rec.subject_answers.insert_or_assign(
          std::move(nonce_key), std::make_pair(type, std::move(body)));
      break;
    }
    case walrec::kSubjectClosed: {
      std::string nonce_key = dec.str();
      dec.expect_done();
      if (rec.subject_request.has_value() &&
          to_hex(rec.subject_request->request.request_nonce) == nonce_key) {
        rec.subject_request.reset();
      }
      break;
    }
    case walrec::kTerminationSubmitted: {
      std::string label = dec.str();
      bool as_proposer = dec.u8() != 0;
      dec.expect_done();
      rec.termination_submissions.insert_or_assign(label, as_proposer);
      break;
    }
    case walrec::kVerdictDelivered: {
      Bytes body = dec.blob();
      dec.expect_done();
      Bytes signature;
      TerminationVerdict verdict =
          TerminationVerdict::decode_fields(body, &signature);
      rec.verdicts.insert_or_assign(verdict.proposed.label(),
                                    std::move(body));
      break;
    }
    case walrec::kDealStaged: {
      std::string label = dec.str();
      std::string deal_id = dec.str();
      dec.expect_done();
      rec.staged_runs.insert_or_assign(std::move(label), std::move(deal_id));
      break;
    }
    case walrec::kDealEnlisted: {
      Bytes body = dec.blob();
      dec.expect_done();
      DealEnlistMsg enlist = DealEnlistMsg::decode(body);
      for (const DealLeg& leg : enlist.proposal.legs) {
        if (leg.object == object) {
          rec.deal_enlists.insert_or_assign(leg.proposed.label(), body);
        }
      }
      break;
    }
    default:
      // Unknown record type: written by a newer version, or a retired one
      // (3, 13–19, 31–34; 4 is skipped before it gets here). The CRC
      // vouched for its integrity; skipping it is the conservative choice.
      break;
  }
}

Coordinator::EvidencePayload Coordinator::decode_evidence_payload(
    BytesView framed) {
  wire::Decoder dec{framed};
  EvidencePayload out;
  out.payload = dec.blob();
  Bytes stamp = dec.blob();
  dec.expect_done();
  if (!stamp.empty()) {
    out.timestamp = crypto::Timestamp::decode(stamp);
  }
  return out;
}

void Coordinator::send(const PartyId& to, const Envelope& envelope) {
  Bytes encoded = envelope.encode();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++protocol_stats_.envelopes_sent;
    ++protocol_stats_.sent_by_type[envelope.type];
    protocol_stats_.envelope_bytes_sent += encoded.size();
  }
  transport_.send(to, std::move(encoded));
}

// ---------------------------------------------------------------------------
// Observation & synchronisation
// ---------------------------------------------------------------------------

Coordinator::RouterStats Coordinator::router_stats() const {
  RouterStats stats;
  stats.lookups = stat_lookups_.load(std::memory_order_relaxed);
  stats.map_exclusive_locks = stat_map_exclusive_.load(std::memory_order_relaxed);
  stats.messages_routed = stat_messages_routed_.load(std::memory_order_relaxed);
  stats.lane_posts = stat_lane_posts_.load(std::memory_order_relaxed);
  return stats;
}

Coordinator::ShardStats Coordinator::shard_stats(const ObjectId& object) const {
  const ObjectShard& shard = find_shard_or_throw(object);
  ShardStats stats;
  stats.messages_dispatched =
      shard.messages_dispatched.load(std::memory_order_relaxed);
  stats.timer_fires = shard.timer_fires.load(std::memory_order_relaxed);
  stats.lane_posts = shard.lane_posts.load(std::memory_order_relaxed);
  return stats;
}

std::uint64_t Coordinator::violations_detected() const {
  std::vector<ObjectShard*> shards;
  {
    std::shared_lock<std::shared_mutex> lock(shard_map_mutex_);
    shards.reserve(shards_.size());
    for (const auto& [object, shard] : shards_) shards.push_back(shard.get());
  }
  std::uint64_t total = 0;
  for (ObjectShard* shard : shards) {
    std::lock_guard<std::recursive_mutex> lock(*shard->mutex);
    total += shard->replica->violations_detected();
  }
  return total;
}

bool Coordinator::lanes_idle() const {
  std::shared_lock<std::shared_mutex> lock(shard_map_mutex_);
  for (const auto& [object, shard] : shards_) {
    if (shard->lane && !shard->lane->idle()) return false;
  }
  return true;
}

void Coordinator::synchronize() const {
  std::vector<ObjectShard*> shards;
  {
    std::shared_lock<std::shared_mutex> lock(shard_map_mutex_);
    shards.reserve(shards_.size());
    for (const auto& [object, shard] : shards_) shards.push_back(shard.get());
  }
  for (ObjectShard* shard : shards) {
    if (shard->lane) shard->lane->wait_idle();
  }
  for (ObjectShard* shard : shards) {
    std::lock_guard<std::recursive_mutex> lock(*shard->mutex);
  }
  { std::lock_guard<std::mutex> lock(global_mutex_); }
  { std::lock_guard<std::mutex> lock(evidence_mutex_); }
  { std::lock_guard<std::mutex> lock(stats_mutex_); }
}

}  // namespace b2b::core
