#include "b2b/replica.hpp"

#include <algorithm>

#include "b2b/recovery.hpp"
#include "b2b/termination.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace b2b::core {

Replica::Replica(PartyId self, ObjectId object, B2BObject& impl,
                 const crypto::RsaPrivateKey& key, net::Rng& rng,
                 Callbacks callbacks, store::CheckpointStore& checkpoints,
                 store::MessageStore& messages)
    : self_(std::move(self)),
      object_(std::move(object)),
      impl_(impl),
      key_(key),
      rng_(rng),
      callbacks_(std::move(callbacks)),
      checkpoints_(checkpoints),
      messages_(messages) {}

// ---------------------------------------------------------------------------
// Bootstrap
// ---------------------------------------------------------------------------

void Replica::bootstrap(std::vector<PartyId> members,
                        const Bytes& initial_state) {
  if (std::find(members.begin(), members.end(), self_) == members.end()) {
    throw Error("bootstrap: member list must include self");
  }
  members_ = std::move(members);
  // Genesis tuples are computed deterministically from the object identity
  // so that every bootstrapped party derives the identical view.
  Bytes genesis_seed = concat({bytes_of("b2b.genesis."), bytes_of(object_.str())});
  group_tuple_ = GroupTuple{0, crypto::Sha256::hash(genesis_seed),
                            hash_members(members_)};
  agreed_tuple_ = StateTuple{0, crypto::Sha256::hash(genesis_seed),
                             crypto::Sha256::hash(initial_state)};
  agreed_state_ = initial_state;
  impl_.apply_state(initial_state);
  last_seen_seq_ = 0;
  connected_ = true;
  checkpoints_.put(object_, store::Checkpoint{0, agreed_tuple_.encode(),
                                              agreed_state_,
                                              callbacks_.now()});
  journal_snapshot();
}

// ---------------------------------------------------------------------------
// Journaling helpers (no-ops when the hosting coordinator has no journal)
// ---------------------------------------------------------------------------

void Replica::journal_record(std::uint8_t type, const Bytes& payload) {
  if (callbacks_.journal_record) callbacks_.journal_record(type, payload);
}

void Replica::journal_barrier() {
  if (callbacks_.journal_barrier) callbacks_.journal_barrier();
}

void Replica::hit_crash_point(const char* point) {
  if (callbacks_.crash_point) callbacks_.crash_point(point);
}

void Replica::journal_snapshot() {
  if (!journaling()) return;
  wire::Encoder enc;
  enc.blob(export_snapshot().encode());
  journal_record(walrec::kSnapshot, std::move(enc).take());
  journal_barrier();
}

void Replica::journal_run_closed(std::uint8_t type, const std::string& label) {
  if (!journaling()) return;
  wire::Encoder enc;
  enc.str(label);
  journal_record(type, std::move(enc).take());
  journal_barrier();
}

bool Replica::maybe_resend_decide(const std::string& label,
                                  const PartyId& to) {
  if (!journaling()) return false;
  for (const auto& stored : messages_.run(label)) {
    if (stored.direction == "sent" && stored.kind == "decide") {
      record_anomaly("re-sent decide of closed run " + label, to);
      send_envelope(to, MsgType::kDecide, stored.payload);
      return true;
    }
  }
  return false;
}

void Replica::arm_run_probe(const std::string& label, bool as_proposer,
                            int attempt) {
  if (!journaling() || !callbacks_.schedule ||
      run_probe_interval_micros_ == 0 || attempt > max_run_probes_) {
    return;
  }
  callbacks_.schedule(
      run_probe_interval_micros_, [this, label, as_proposer, attempt] {
        if (as_proposer) {
          if (!proposer_run_.has_value() ||
              proposer_run_->propose.proposal.proposed.label() != label) {
            return;  // run concluded; probe dies
          }
          // Re-drive recipients whose responses are still missing: either
          // our propose or their response was acked-then-lost in a crash
          // window, and retransmission alone cannot recover an acked frame.
          const bool batch = proposer_run_->batch.has_value();
          Bytes encoded = batch ? proposer_run_->batch->propose.encode()
                                : proposer_run_->propose.encode();
          for (const PartyId& recipient : proposer_run_->recipients) {
            if (!proposer_run_->responses.contains(recipient)) {
              send_envelope(recipient,
                            batch ? MsgType::kBatchPropose : MsgType::kPropose,
                            encoded);
            }
          }
        } else {
          auto it = responder_runs_.find(label);
          if (it == responder_runs_.end()) return;
          send_envelope(it->second.propose.proposal.proposer,
                        MsgType::kRespond, it->second.my_response.encode());
        }
        arm_run_probe(label, as_proposer, attempt + 1);
      });
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

std::uint64_t Replica::next_sequence() { return last_seen_seq_ + 1; }

bool Replica::group_accepts(std::size_t accepts,
                            std::size_t recipients) const {
  if (decision_rule_ == DecisionRule::kUnanimous) {
    return accepts == recipients;
  }
  // Majority of the FULL group: recipients + the proposer, whose own
  // accept is implicit (invariant 2: its current state is the proposal).
  std::size_t group = recipients + 1;
  return (accepts + 1) * 2 > group;
}

void Replica::note_sequence(std::uint64_t sequence) {
  last_seen_seq_ = std::max(last_seen_seq_, sequence);
}

Bytes Replica::fresh_random() { return rng_.bytes(32); }

void Replica::record_violation(const std::string& what,
                               const PartyId& suspect) {
  B2B_DEBUG(self_, " VIOLATION on ", object_, ": ", what, " (", suspect, ")");
  ++violations_detected_;
  wire::Encoder enc;
  enc.str(what).str(suspect.str());
  callbacks_.record_evidence(evidence_kind::kViolation,
                             std::move(enc).take());
  CoordEvent event;
  event.kind = CoordEvent::Kind::kViolationDetected;
  event.object = object_;
  event.party = suspect;
  event.detail = what;
  impl_.coord_callback(event);
  if (callbacks_.notify) callbacks_.notify(event);
  B2B_INFO(self_, " detected violation: ", what, " (suspect ", suspect, ")");
}

void Replica::record_anomaly(const std::string& what, const PartyId& party) {
  wire::Encoder enc;
  enc.str(what).str(party.str());
  callbacks_.record_evidence("anomaly", std::move(enc).take());
  B2B_DEBUG(self_, " noted anomaly: ", what, " (", party, ")");
}

void Replica::send_envelope(const PartyId& to, MsgType type, Bytes body) {
  Envelope env;
  env.type = type;
  env.object = object_;
  env.body = std::move(body);
  callbacks_.send(to, env);
}

bool Replica::is_member(const PartyId& party) const {
  return std::find(members_.begin(), members_.end(), party) != members_.end();
}

void Replica::install_agreed_state(const StateTuple& tuple, Bytes state,
                                   bool apply_to_object, bool bookkeep) {
  if (agreed_tuple_ == tuple && agreed_state_ == state) {
    // Recovery redo of an already-installed state: installation is
    // idempotent, so neither checkpoint nor evidence is duplicated.
    if (apply_to_object) impl_.apply_state(agreed_state_);
    return;
  }
  agreed_tuple_ = tuple;
  agreed_state_ = std::move(state);
  if (apply_to_object) impl_.apply_state(agreed_state_);
  if (!bookkeep) return;
  checkpoints_.put(object_,
                   store::Checkpoint{tuple.sequence, tuple.encode(),
                                     agreed_state_, callbacks_.now()});
  callbacks_.record_evidence(evidence_kind::kStateInstalled, tuple.encode());
  journal_snapshot();
}

void Replica::complete(const RunHandle& handle, RunResult::Outcome outcome,
                       std::string diagnostic, std::vector<PartyId> vetoers,
                       std::uint64_t sequence, const std::string& label) {
  handle->diagnostic = std::move(diagnostic);
  handle->vetoers = std::move(vetoers);
  handle->sequence = sequence;
  handle->run_label = label;
  // Store the outcome last: done() pollers on other threads must observe
  // the fields above once they see a non-pending outcome.
  handle->outcome = outcome;
  if (handle->on_complete) handle->on_complete(*handle);
}

PartyId Replica::connect_sponsor() const {
  if (members_.empty()) throw Error("connect_sponsor: empty group");
  return sponsor_policy_ == SponsorPolicy::kRotating ? members_.back()
                                                     : members_.front();
}

PartyId Replica::disconnect_sponsor(const PartyId& subject) const {
  if (members_.empty()) throw Error("disconnect_sponsor: empty group");
  if (members_.size() < 2 && members_.front() == subject) {
    throw Error("disconnect_sponsor: subject is the only member");
  }
  if (sponsor_policy_ == SponsorPolicy::kRotating) {
    if (members_.back() != subject) return members_.back();
    return members_[members_.size() - 2];
  }
  // Fixed policy: the initial member sponsors unless it is the subject,
  // in which case responsibility passes to the next oldest (footnote 2).
  if (members_.front() != subject) return members_.front();
  return members_[1];
}

std::vector<std::string> Replica::active_run_labels() const {
  std::vector<std::string> out;
  if (proposer_run_.has_value()) {
    out.push_back(proposer_run_->propose.proposal.proposed.label());
  }
  for (const auto& [label, run] : responder_runs_) out.push_back(label);
  if (sponsor_run_.has_value()) {
    out.push_back(sponsor_run_->propose.proposal.new_group.label());
  }
  for (const auto& [label, run] : membership_responder_runs_) {
    out.push_back(label);
  }
  return out;
}

bool Replica::busy() const {
  // NB: a pending subject request (our own connect/disconnect awaiting its
  // sponsor) deliberately does NOT make us busy: it locks no local state,
  // and counting it would deadlock two concurrent departures whose
  // removal runs each need the other subject's response.
  return proposer_run_.has_value() || sponsor_run_.has_value() ||
         accept_lock_.has_value() || !membership_responder_runs_.empty();
}

bool Replica::resolve_blocked_run(const std::string& run_label) {
  wire::Encoder note;
  note.str(run_label).str(self_.str());
  if (proposer_run_.has_value() &&
      proposer_run_->propose.proposal.proposed.label() == run_label) {
    // Abandoning our own proposal: roll the object back to agreed state.
    impl_.apply_state(agreed_state_);
    callbacks_.record_evidence(evidence_kind::kStateRolledBack,
                               std::move(note).take());
    complete(proposer_run_->result, RunResult::Outcome::kAborted,
             "abandoned by extra-protocol resolution", {},
             proposer_run_->propose.proposal.proposed.sequence, run_label);
    proposer_run_.reset();
    journal_run_closed(walrec::kProposerClosed, run_label);
    return true;
  }
  if (auto it = responder_runs_.find(run_label); it != responder_runs_.end()) {
    callbacks_.record_evidence("run.abandoned", std::move(note).take());
    if (accept_lock_ == run_label) accept_lock_.reset();
    responder_runs_.erase(it);
    journal_run_closed(walrec::kResponderClosed, run_label);
    drain_deferred_membership();
    return true;
  }
  if (auto it = membership_responder_runs_.find(run_label);
      it != membership_responder_runs_.end()) {
    callbacks_.record_evidence("run.abandoned", std::move(note).take());
    membership_responder_runs_.erase(it);
    return true;
  }
  if (sponsor_run_.has_value() &&
      sponsor_run_->propose.proposal.new_group.label() == run_label) {
    callbacks_.record_evidence("run.abandoned", std::move(note).take());
    complete(sponsor_run_->result, RunResult::Outcome::kAborted,
             "abandoned by extra-protocol resolution", {},
             sponsor_run_->propose.proposal.new_group.sequence, run_label);
    sponsor_run_.reset();
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

Bytes ReplicaSnapshot::encode() const {
  wire::Encoder enc;
  enc.boolean(connected);
  enc.varint(members.size());
  for (const PartyId& member : members) enc.str(member.str());
  group_tuple.encode_into(enc);
  agreed_tuple.encode_into(enc);
  enc.blob(agreed_state).u64(last_seen_sequence);
  enc.varint(seen_run_labels.size());
  for (const std::string& label : seen_run_labels) enc.str(label);
  return std::move(enc).take();
}

ReplicaSnapshot ReplicaSnapshot::decode(BytesView data) {
  wire::Decoder dec{data};
  ReplicaSnapshot snap;
  snap.connected = dec.boolean();
  std::uint64_t n = dec.varint();
  snap.members.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) snap.members.emplace_back(dec.str());
  snap.group_tuple = GroupTuple::decode_from(dec);
  snap.agreed_tuple = StateTuple::decode_from(dec);
  snap.agreed_state = dec.blob();
  snap.last_seen_sequence = dec.u64();
  std::uint64_t labels = dec.varint();
  snap.seen_run_labels.reserve(labels);
  for (std::uint64_t i = 0; i < labels; ++i) {
    snap.seen_run_labels.push_back(dec.str());
  }
  dec.expect_done();
  return snap;
}

ReplicaSnapshot Replica::export_snapshot() const {
  ReplicaSnapshot snap;
  snap.connected = connected_;
  snap.members = members_;
  snap.group_tuple = group_tuple_;
  snap.agreed_tuple = agreed_tuple_;
  snap.agreed_state = agreed_state_;
  snap.last_seen_sequence = last_seen_seq_;
  snap.seen_run_labels.assign(seen_run_labels_.begin(),
                              seen_run_labels_.end());
  return snap;
}

void Replica::restore_snapshot(const ReplicaSnapshot& snapshot) {
  connected_ = snapshot.connected;
  members_ = snapshot.members;
  group_tuple_ = snapshot.group_tuple;
  agreed_tuple_ = snapshot.agreed_tuple;
  agreed_state_ = snapshot.agreed_state;
  last_seen_seq_ = snapshot.last_seen_sequence;
  seen_run_labels_.clear();
  seen_run_labels_.insert(snapshot.seen_run_labels.begin(),
                          snapshot.seen_run_labels.end());
  // Volatile run state did not survive the crash.
  if (proposer_run_.has_value()) {
    complete(proposer_run_->result, RunResult::Outcome::kAborted,
             "lost in crash", {}, 0, "");
    proposer_run_.reset();
  }
  if (sponsor_run_.has_value()) {
    complete(sponsor_run_->result, RunResult::Outcome::kAborted,
             "lost in crash", {}, 0, "");
    sponsor_run_.reset();
  }
  responder_runs_.clear();
  membership_responder_runs_.clear();
  accept_lock_.reset();
  subject_request_.reset();
  relayed_eviction_result_.reset();
  pending_subject_record_.reset();
  recovered_membership_decide_.reset();
  pending_redo_membership_decides_.clear();
  recovered_termination_submissions_.clear();
  pending_redo_verdicts_.clear();

  if (connected_) impl_.apply_state(agreed_state_);
  callbacks_.record_evidence("recovery", agreed_tuple_.encode());
}

// ---------------------------------------------------------------------------
// Journal-based recovery
// ---------------------------------------------------------------------------

Bytes Replica::ProposerRunRecord::encode() const {
  wire::Encoder enc;
  enc.blob(propose.encode()).blob(authenticator).blob(new_state);
  enc.varint(recipients.size());
  for (const PartyId& recipient : recipients) enc.str(recipient.str());
  return std::move(enc).take();
}

Replica::ProposerRunRecord Replica::ProposerRunRecord::decode(BytesView data) {
  wire::Decoder dec{data};
  ProposerRunRecord record;
  record.propose = ProposeMsg::decode(dec.blob());
  record.authenticator = dec.blob();
  record.new_state = dec.blob();
  std::uint64_t n = dec.varint();
  record.recipients.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) record.recipients.emplace_back(dec.str());
  dec.expect_done();
  return record;
}

Bytes Replica::ResponderRunRecord::encode() const {
  wire::Encoder enc;
  enc.blob(propose.encode()).blob(pending_state).blob(my_response.encode());
  enc.varint(members_at_response.size());
  for (const PartyId& member : members_at_response) enc.str(member.str());
  return std::move(enc).take();
}

Replica::ResponderRunRecord Replica::ResponderRunRecord::decode(
    BytesView data) {
  wire::Decoder dec{data};
  ResponderRunRecord record;
  record.propose = ProposeMsg::decode(dec.blob());
  record.pending_state = dec.blob();
  record.my_response = RespondMsg::decode(dec.blob());
  std::uint64_t n = dec.varint();
  record.members_at_response.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    record.members_at_response.emplace_back(dec.str());
  }
  dec.expect_done();
  return record;
}

Bytes Replica::SponsorRunRecord::encode() const {
  wire::Encoder enc;
  enc.blob(propose.encode()).blob(authenticator);
  enc.varint(recipients.size());
  for (const PartyId& recipient : recipients) enc.str(recipient.str());
  return std::move(enc).take();
}

Replica::SponsorRunRecord Replica::SponsorRunRecord::decode(BytesView data) {
  wire::Decoder dec{data};
  SponsorRunRecord record;
  record.propose = MembershipProposeMsg::decode(dec.blob());
  record.authenticator = dec.blob();
  std::uint64_t n = dec.varint();
  record.recipients.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    record.recipients.emplace_back(dec.str());
  }
  dec.expect_done();
  return record;
}

Bytes Replica::MembershipResponderRunRecord::encode() const {
  wire::Encoder enc;
  enc.blob(propose.encode()).blob(my_response.encode());
  enc.varint(members_at_response.size());
  for (const PartyId& member : members_at_response) enc.str(member.str());
  return std::move(enc).take();
}

Replica::MembershipResponderRunRecord
Replica::MembershipResponderRunRecord::decode(BytesView data) {
  wire::Decoder dec{data};
  MembershipResponderRunRecord record;
  record.propose = MembershipProposeMsg::decode(dec.blob());
  record.my_response = MembershipRespondMsg::decode(dec.blob());
  std::uint64_t n = dec.varint();
  record.members_at_response.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    record.members_at_response.emplace_back(dec.str());
  }
  dec.expect_done();
  return record;
}

Bytes Replica::SubjectRequestRecord::encode() const {
  wire::Encoder enc;
  enc.blob(request.encode()).blob(signature).str(sent_to.str());
  enc.u8(relayed_eviction ? 1 : 0);
  return std::move(enc).take();
}

Replica::SubjectRequestRecord Replica::SubjectRequestRecord::decode(
    BytesView data) {
  wire::Decoder dec{data};
  SubjectRequestRecord record;
  record.request = MembershipRequest::decode(dec.blob());
  record.signature = dec.blob();
  record.sent_to = PartyId{dec.str()};
  record.relayed_eviction = dec.u8() != 0;
  dec.expect_done();
  return record;
}

Bytes Replica::BatchProposerRunRecord::encode() const {
  wire::Encoder enc;
  enc.blob(propose.encode());
  enc.varint(authenticators.size());
  for (const Bytes& authenticator : authenticators) enc.blob(authenticator);
  enc.varint(states.size());
  for (const Bytes& state : states) enc.blob(state);
  enc.varint(recipients.size());
  for (const PartyId& recipient : recipients) enc.str(recipient.str());
  return std::move(enc).take();
}

Replica::BatchProposerRunRecord Replica::BatchProposerRunRecord::decode(
    BytesView data) {
  wire::Decoder dec{data};
  BatchProposerRunRecord record;
  record.propose = BatchProposeMsg::decode(dec.blob());
  std::uint64_t n = dec.varint();
  record.authenticators.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) record.authenticators.push_back(dec.blob());
  n = dec.varint();
  record.states.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) record.states.push_back(dec.blob());
  n = dec.varint();
  record.recipients.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) record.recipients.emplace_back(dec.str());
  dec.expect_done();
  return record;
}

Bytes Replica::BatchResponderRunRecord::encode() const {
  wire::Encoder enc;
  enc.blob(propose.encode());
  enc.varint(pending_states.size());
  for (const Bytes& state : pending_states) enc.blob(state);
  enc.blob(my_response.encode());
  enc.varint(members_at_response.size());
  for (const PartyId& member : members_at_response) enc.str(member.str());
  return std::move(enc).take();
}

Replica::BatchResponderRunRecord Replica::BatchResponderRunRecord::decode(
    BytesView data) {
  wire::Decoder dec{data};
  BatchResponderRunRecord record;
  record.propose = BatchProposeMsg::decode(dec.blob());
  std::uint64_t n = dec.varint();
  record.pending_states.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) record.pending_states.push_back(dec.blob());
  record.my_response = RespondMsg::decode(dec.blob());
  n = dec.varint();
  record.members_at_response.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    record.members_at_response.emplace_back(dec.str());
  }
  dec.expect_done();
  return record;
}

void Replica::restore_recovered(const RecoveredObjectState& recovered) {
  if (recovered.snapshot.has_value()) {
    const ReplicaSnapshot& snap = *recovered.snapshot;
    connected_ = snap.connected;
    members_ = snap.members;
    group_tuple_ = snap.group_tuple;
    agreed_tuple_ = snap.agreed_tuple;
    agreed_state_ = snap.agreed_state;
    last_seen_seq_ = snap.last_seen_sequence;
    seen_run_labels_.insert(snap.seen_run_labels.begin(),
                            snap.seen_run_labels.end());
    if (connected_) impl_.apply_state(agreed_state_);
  }
  // Replay protection must cover every run the journal has ever seen,
  // snapshotted or not: a replayed label is a replay even after recovery.
  seen_run_labels_.insert(recovered.seen_labels.begin(),
                          recovered.seen_labels.end());
  note_sequence(recovered.max_sequence);

  if (recovered.proposer_run.has_value()) {
    const ProposerRunRecord& record = *recovered.proposer_run;
    ProposerRun run;
    run.propose = record.propose;
    run.authenticator = record.authenticator;
    run.new_state = record.new_state;
    run.recipients = record.recipients;
    run.result = std::make_shared<RunResult>();
    for (const RespondMsg& resp : recovered.proposer_responses) {
      run.responses.emplace(resp.response.responder, resp);
    }
    // Invariant 2: while our proposal is open the local object holds the
    // proposed state, not the agreed one.
    if (connected_) impl_.apply_state(run.new_state);
    const std::string run_label = record.propose.proposal.proposed.label();
    auto staged = recovered.staged_runs.find(run_label);
    if (staged != recovered.staged_runs.end()) {
      run.deal_staged = true;
      run.deal_id = staged->second;
    }
    proposer_run_ = std::move(run);
    recovered_decide_ = recovered.proposer_decide;
  }

  if (recovered.batch_proposer_run.has_value()) {
    // At most one proposer run (batch or plain) is open at a time; the
    // journal replay guarantees mutual exclusion via kProposerClosed.
    const BatchProposerRunRecord& record = *recovered.batch_proposer_run;
    ProposerRun run;
    run.propose.proposal = record.propose.proposal;
    run.propose.signature = record.propose.signature;
    run.recipients = record.recipients;
    run.result = std::make_shared<RunResult>();
    run.batch = BatchProposerState{record.propose, record.authenticators,
                                   record.states};
    for (const RespondMsg& resp : recovered.proposer_responses) {
      run.responses.emplace(resp.response.responder, resp);
    }
    // Invariant 2: the object holds the batch's final proposed state.
    if (connected_ && !record.states.empty()) {
      impl_.apply_state(record.states.back());
    }
    proposer_run_ = std::move(run);
    recovered_batch_decide_ = recovered.batch_proposer_decide;
  }

  for (const auto& [label, record] : recovered.batch_responder_runs) {
    ResponderRun run;
    run.propose.proposal = record.propose.proposal;
    run.propose.signature = record.propose.signature;
    if (!record.pending_states.empty()) {
      run.pending_state = record.pending_states.back();
    }
    run.my_response = record.my_response;
    run.my_decision = record.my_response.response.decision;
    run.members_at_response = record.members_at_response;
    run.batch = BatchResponderState{record.propose, record.pending_states};
    if (run.my_decision.accept) accept_lock_ = label;
    responder_runs_.emplace(label, std::move(run));
  }
  pending_redo_batch_decides_ = recovered.batch_responder_decides;

  for (const auto& [label, encoded] : recovered.deal_enlists) {
    try {
      deal_enlists_.emplace(label, DealEnlistMsg::decode(encoded));
    } catch (const CodecError&) {
      record_anomaly("undecodable journaled deal enlist for run " + label,
                     self_);
    }
  }

  for (const auto& [label, record] : recovered.responder_runs) {
    ResponderRun run;
    run.propose = record.propose;
    run.pending_state = record.pending_state;
    run.my_response = record.my_response;
    run.my_decision = record.my_response.response.decision;
    run.members_at_response = record.members_at_response;
    if (run.my_decision.accept) accept_lock_ = label;
    responder_runs_.emplace(label, std::move(run));
  }
  pending_redo_decides_ = recovered.responder_decides;
  restore_recovered_membership(recovered);

  callbacks_.record_evidence("recovery", agreed_tuple_.encode());
}

std::vector<RunHandle> Replica::resume_recovered_runs() {
  std::vector<RunHandle> handles;

  // TTP verdicts journaled as delivered but possibly not acted on: redo
  // them first — they may close runs outright, before any re-drive.
  if (!pending_redo_verdicts_.empty()) {
    auto verdicts = std::move(pending_redo_verdicts_);
    pending_redo_verdicts_.clear();
    for (auto& [label, body] : verdicts) {
      if (!ttp_.has_value()) {
        record_anomaly(
            "journaled TTP verdict dropped: no TTP configured after "
            "recovery for run " + label,
            self_);
        continue;
      }
      handle_termination_verdict(ttp_->ttp, body);
    }
  }

  // Responder-side redo: a decide that was journaled as delivered but
  // whose installation may have been interrupted. conclude is idempotent
  // (install_agreed_state skips an already-installed state).
  for (auto& [label, decide] : pending_redo_decides_) {
    auto it = responder_runs_.find(label);
    if (it == responder_runs_.end()) continue;
    ResponderRun run = std::move(it->second);
    responder_runs_.erase(it);
    conclude_responder_run(label, std::move(run), decide.responses,
                           decide.proposer);
  }
  pending_redo_decides_.clear();

  // Batch-responder redo, same discipline: a batch decide journaled as
  // delivered is concluded again (per-item installation is idempotent).
  for (auto& [label, decide] : pending_redo_batch_decides_) {
    auto it = responder_runs_.find(label);
    if (it == responder_runs_.end()) continue;
    ResponderRun run = std::move(it->second);
    responder_runs_.erase(it);
    conclude_batch_responder_run(label, std::move(run), decide,
                                 decide.proposer);
  }
  pending_redo_batch_decides_.clear();

  // Batch proposer side (DESIGN.md §13): a half-decided batch finishes to
  // the journaled outcome — the journaled batch decide carries the exact
  // response set our previous incarnation decided from.
  if (proposer_run_.has_value() && proposer_run_->batch.has_value()) {
    handles.push_back(proposer_run_->result);
    const std::string label =
        proposer_run_->propose.proposal.proposed.label();
    if (recovered_batch_decide_.has_value()) {
      BatchDecideMsg decide = std::move(*recovered_batch_decide_);
      recovered_batch_decide_.reset();
      proposer_run_->responses.clear();
      for (const RespondMsg& resp : decide.responses) {
        proposer_run_->responses.emplace(resp.response.responder, resp);
      }
      finish_batch_run_as_proposer();
    } else if (proposer_run_->responses.size() ==
               proposer_run_->recipients.size()) {
      finish_batch_run_as_proposer();
    } else {
      Bytes encoded = proposer_run_->batch->propose.encode();
      for (const PartyId& recipient : proposer_run_->recipients) {
        if (!proposer_run_->responses.contains(recipient)) {
          send_envelope(recipient, MsgType::kBatchPropose, encoded);
        }
      }
      arm_run_probe(label, /*as_proposer=*/true, 1);
    }
  }

  // Proposer side.
  if (proposer_run_.has_value() && !proposer_run_->batch.has_value()) {
    handles.push_back(proposer_run_->result);
    const std::string label =
        proposer_run_->propose.proposal.proposed.label();
    if (recovered_decide_.has_value()) {
      // The decide phase was journaled: redo it from the journaled
      // response set. Re-sent decides are deduplicated by recipients.
      // For a deal leg this only happens after the deal decision itself
      // was journaled (commit_staged_run runs the same decide phase), so
      // redoing it unconditionally is correct — clear the staging flag.
      proposer_run_->deal_staged = false;
      DecideMsg decide = std::move(*recovered_decide_);
      recovered_decide_.reset();
      proposer_run_->responses.clear();
      for (const RespondMsg& resp : decide.responses) {
        proposer_run_->responses.emplace(resp.response.responder, resp);
      }
      finish_state_run_as_proposer();
    } else if (proposer_run_->deal_staged) {
      // A staged deal leg is resumed by the deal layer (which re-drives
      // or aborts the whole deal), not by the per-run resume: neither
      // auto-finish nor re-send here.
    } else if (proposer_run_->responses.size() ==
               proposer_run_->recipients.size()) {
      finish_state_run_as_proposer();
    } else {
      // Still collecting responses: re-drive the silent recipients (our
      // propose, or their response, may have died with us) and re-arm
      // the capped probe.
      Bytes encoded = proposer_run_->propose.encode();
      for (const PartyId& recipient : proposer_run_->recipients) {
        if (!proposer_run_->responses.contains(recipient)) {
          send_envelope(recipient, MsgType::kPropose, encoded);
        }
      }
      arm_run_probe(label, /*as_proposer=*/true, 1);
      arm_deadline(label, /*as_proposer=*/true);
    }
  }

  // Responder runs still awaiting a decide: re-send our response (the
  // proposer may never have seen it) and re-arm the probe.
  for (const auto& [label, run] : responder_runs_) {
    send_envelope(run.propose.proposal.proposer, MsgType::kRespond,
                  run.my_response.encode());
    arm_run_probe(label, /*as_proposer=*/false, 1);
    arm_deadline(label, /*as_proposer=*/false);
  }

  resume_recovered_membership(handles);

  // Re-fetch TTP decisions for referrals our previous incarnation had
  // journaled: the TTP caches exactly one verdict per run, so a
  // resubmission is a re-fetch of whatever it already decided, never a
  // second decision.
  if (!recovered_termination_submissions_.empty()) {
    auto submissions = std::move(recovered_termination_submissions_);
    recovered_termination_submissions_.clear();
    for (const auto& [label, as_proposer] : submissions) {
      bool still_active =
          as_proposer
              ? (proposer_run_.has_value() &&
                 proposer_run_->propose.proposal.proposed.label() == label)
              : responder_runs_.contains(label);
      if (!still_active) continue;
      if (!ttp_.has_value()) {
        record_anomaly(
            "journaled TTP referral dropped: no TTP configured after "
            "recovery for run " + label,
            self_);
        continue;
      }
      request_termination(label, as_proposer);
    }
  }

  return handles;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Replica::handle(const PartyId& from, const Envelope& envelope) {
  try {
    switch (envelope.type) {
      case MsgType::kPropose:
        handle_propose(from, envelope.body);
        break;
      case MsgType::kRespond:
        handle_respond(from, envelope.body);
        break;
      case MsgType::kDecide:
        handle_decide(from, envelope.body);
        break;
      case MsgType::kBatchPropose:
        handle_batch_propose(from, envelope.body);
        break;
      case MsgType::kBatchDecide:
        handle_batch_decide(from, envelope.body);
        break;
      case MsgType::kConnectRequest:
        handle_connect_request(from, envelope.body);
        break;
      case MsgType::kMembershipPropose:
        handle_membership_propose(from, envelope.body);
        break;
      case MsgType::kMembershipRespond:
        handle_membership_respond(from, envelope.body);
        break;
      case MsgType::kMembershipDecide:
        handle_membership_decide(from, envelope.body);
        break;
      case MsgType::kConnectWelcome:
        handle_connect_welcome(from, envelope.body);
        break;
      case MsgType::kConnectReject:
        handle_connect_reject(from, envelope.body);
        break;
      case MsgType::kDisconnectRequest:
        handle_disconnect_request(from, envelope.body);
        break;
      case MsgType::kDisconnectConfirm:
        handle_disconnect_confirm(from, envelope.body);
        break;
      case MsgType::kTerminationVerdict:
        handle_termination_verdict(from, envelope.body);
        break;
      case MsgType::kDealEnlist:
        handle_deal_enlist(from, envelope.body);
        break;
      case MsgType::kDealDecision:
        handle_deal_decision(from, envelope.body);
        break;
      default:
        record_violation("unknown message type", from);
    }
  } catch (const CodecError& e) {
    // Malformed content is itself evidence of misbehaviour (§4.4): the
    // reliable layer guarantees the bytes arrived as sent by `from`.
    record_violation(std::string("malformed message: ") + e.what(), from);
  }
}

// ---------------------------------------------------------------------------
// State coordination — proposer side (§4.3)
// ---------------------------------------------------------------------------

RunHandle Replica::propose_state(Bytes new_state) {
  Bytes payload = new_state;
  return start_state_run(/*is_update=*/false, std::move(payload),
                         std::move(new_state));
}

RunHandle Replica::propose_update(Bytes update, Bytes new_state) {
  return start_state_run(/*is_update=*/true, std::move(update),
                         std::move(new_state));
}

RunHandle Replica::start_state_run(bool is_update, Bytes payload,
                                   Bytes new_state) {
  auto handle = std::make_shared<RunResult>();
  if (!connected_) {
    complete(handle, RunResult::Outcome::kAborted, "not connected", {}, 0, "");
    return handle;
  }
  if (busy()) {
    // The caller already mutated the object for this (aborted) proposal;
    // restore what the object must hold: our own still-active proposal's
    // state (invariant 2) if one is in flight, else the agreed state.
    impl_.apply_state(proposer_run_.has_value() ? proposer_run_->new_state
                                                : agreed_state_);
    complete(handle, RunResult::Outcome::kAborted,
             "busy: another coordination run is active", {}, 0, "");
    return handle;
  }
  crypto::Digest new_state_hash = crypto::Sha256::hash(new_state);
  if (!is_update && new_state_hash == agreed_tuple_.state_hash) {
    complete(handle, RunResult::Outcome::kAborted, "null state transition", {},
             0, "");
    return handle;
  }

  ProposerRun run;
  run.authenticator = fresh_random();
  run.new_state = std::move(new_state);
  run.result = handle;

  Proposal& prop = run.propose.proposal;
  prop.proposer = self_;
  prop.object = object_;
  prop.group = group_tuple_;
  prop.agreed = agreed_tuple_;
  prop.proposed = StateTuple{next_sequence(),
                             crypto::Sha256::hash(run.authenticator),
                             new_state_hash};
  prop.is_update = is_update;
  prop.payload_hash = crypto::Sha256::hash(payload);
  run.propose.payload = std::move(payload);
  run.propose.signature = key_.sign(prop.signed_bytes());

  note_sequence(prop.proposed.sequence);
  const std::string label = prop.proposed.label();
  seen_run_labels_.insert(label);

  for (const PartyId& member : members_) {
    if (member != self_) run.recipients.push_back(member);
  }

  Bytes encoded = run.propose.encode();
  hit_crash_point("propose.pre-journal");
  if (journaling()) {
    ProposerRunRecord record{run.propose, run.authenticator, run.new_state,
                             run.recipients};
    wire::Encoder enc;
    enc.blob(record.encode());
    journal_record(walrec::kProposerRun, std::move(enc).take());
  }
  callbacks_.record_evidence(evidence_kind::kProposeSent, encoded);
  journal_barrier();
  hit_crash_point("propose.journaled");

  if (run.recipients.empty()) {
    // Singleton group: trivially unanimous.
    install_agreed_state(prop.proposed, run.new_state,
                         /*apply_to_object=*/false);
    journal_run_closed(walrec::kProposerClosed, label);
    complete(handle, RunResult::Outcome::kAgreed, "", {},
             prop.proposed.sequence, label);
    return handle;
  }

  bool first_send = true;
  for (const PartyId& recipient : run.recipients) {
    messages_.add(label, {"sent", "propose", recipient.str(), encoded});
    send_envelope(recipient, MsgType::kPropose, encoded);
    if (first_send) {
      first_send = false;
      hit_crash_point("propose.mid-send");
    }
  }
  proposer_run_ = std::move(run);
  arm_deadline(label, /*as_proposer=*/true);
  arm_run_probe(label, /*as_proposer=*/true, 1);
  hit_crash_point("propose.sent");
  return handle;
}

void Replica::handle_respond(const PartyId& from, const Bytes& body) {
  RespondMsg msg = RespondMsg::decode(body);
  const Response& resp = msg.response;

  if (resp.responder != from) {
    record_violation("response sender does not match responder field", from);
    return;
  }
  if (!proposer_run_.has_value() ||
      proposer_run_->propose.proposal.proposed != resp.proposed) {
    const std::string stray_label = resp.proposed.label();
    if (journaling() && seen_run_labels_.contains(stray_label)) {
      // A responder re-probing a run we already closed (it may have lost
      // our decide in its crash window): re-send the stored decide so it
      // can conclude, instead of branding a legitimate retry a replay.
      // Aborted deal legs have no decide — re-answer with the stored
      // signed deal decision instead.
      if (maybe_resend_decide(stray_label, from)) return;
      if (maybe_resend_batch_decide(stray_label, from)) return;
      if (maybe_resend_deal_decision(stray_label, from)) return;
      record_anomaly("response for closed run " + stray_label, from);
      return;
    }
    record_violation("response for no active run (stray or replayed)", from);
    return;
  }
  ProposerRun& run = *proposer_run_;
  if (std::find(run.recipients.begin(), run.recipients.end(), from) ==
      run.recipients.end()) {
    record_violation("response from non-recipient", from);
    return;
  }
  const crypto::RsaPublicKey* pub = callbacks_.key_of(from);
  if (pub == nullptr || !pub->verify(resp.signed_bytes(), msg.signature)) {
    record_violation("bad signature on response", from);
    return;
  }
  const std::string label = resp.proposed.label();
  auto existing = run.responses.find(from);
  if (existing != run.responses.end()) {
    if (!(existing->second == msg)) {
      // Two different signed responses from the same party for the same
      // run: equivocation. Both are kept as evidence.
      callbacks_.record_evidence(evidence_kind::kRespondReceived,
                                 msg.encode());
      record_violation("equivocating responses", from);
    }
    return;
  }

  hit_crash_point("response.pre-journal");
  if (journaling()) {
    wire::Encoder enc;
    enc.blob(msg.encode());
    journal_record(walrec::kResponseReceived, std::move(enc).take());
  }
  messages_.add(label, {"received", "respond", from.str(), body});
  callbacks_.record_evidence(evidence_kind::kRespondReceived, msg.encode());
  journal_barrier();
  hit_crash_point("response.journaled");
  run.responses.emplace(from, std::move(msg));

  if (run.responses.size() == run.recipients.size()) {
    if (run.deal_staged) {
      // Deal leg: the prepare is complete — park the response set
      // undecided and let the deal layer decide across all legs
      // (DESIGN.md §12). The hook runs under this shard's lock and may
      // only touch deal-internal state / schedule work.
      std::vector<PartyId> vetoers;
      bool all_accept = true;
      for (const PartyId& recipient : run.recipients) {
        const Response& r = run.responses.at(recipient).response;
        const Proposal& prop = run.propose.proposal;
        if (!r.decision.accept || r.agreed_view != prop.agreed ||
            r.current_view != prop.agreed || r.group_view != prop.group ||
            r.payload_integrity != prop.payload_hash) {
          all_accept = false;
          vetoers.push_back(recipient);
        }
      }
      callbacks_.record_evidence(evidence_kind::kDealPrepared,
                                 run.propose.proposal.proposed.encode());
      if (deal_hooks_.on_leg_prepared) {
        deal_hooks_.on_leg_prepared(object_, label, all_accept, vetoers);
      }
    } else if (run.batch.has_value()) {
      finish_batch_run_as_proposer();
    } else {
      finish_state_run_as_proposer();
    }
  }
}

void Replica::finish_state_run_as_proposer() {
  ProposerRun run = std::move(*proposer_run_);
  proposer_run_.reset();
  const Proposal& prop = run.propose.proposal;
  const std::string label = prop.proposed.label();

  DecideMsg decide;
  decide.proposer = self_;
  decide.object = object_;
  decide.proposed = prop.proposed;
  decide.authenticator = run.authenticator;
  std::vector<PartyId> vetoers;
  std::string first_diagnostic;
  std::size_t consistent_accepts = 0;
  for (const PartyId& recipient : run.recipients) {
    const RespondMsg& resp = run.responses.at(recipient);
    decide.responses.push_back(resp);
    const Response& r = resp.response;
    if (!r.decision.accept) {
      vetoers.push_back(recipient);
      if (first_diagnostic.empty()) first_diagnostic = r.decision.diagnostic;
    } else if (r.agreed_view != prop.agreed || r.current_view != prop.agreed ||
               r.group_view != prop.group ||
               r.payload_integrity != prop.payload_hash) {
      // An accept whose view fields contradict the proposal is internally
      // inconsistent content (§4.4): it cannot count towards agreement.
      record_violation("inconsistent accept response", recipient);
      vetoers.push_back(recipient);
      if (first_diagnostic.empty()) {
        first_diagnostic =
            "inconsistent accept response from " + recipient.str();
      }
    } else {
      ++consistent_accepts;
    }
  }
  bool agreed = group_accepts(consistent_accepts, run.recipients.size());

  Bytes encoded = decide.encode();
  hit_crash_point("decide.pre-journal");
  if (journaling()) {
    wire::Encoder enc;
    enc.blob(encoded);
    journal_record(walrec::kDecideSent, std::move(enc).take());
  }
  callbacks_.record_evidence(evidence_kind::kDecideSent, encoded);
  journal_barrier();
  hit_crash_point("decide.journaled");
  bool first_send = true;
  for (const PartyId& recipient : run.recipients) {
    messages_.add(label, {"sent", "decide", recipient.str(), encoded});
    send_envelope(recipient, MsgType::kDecide, encoded);
    if (first_send) {
      first_send = false;
      hit_crash_point("decide.mid-send");
    }
  }
  hit_crash_point("decide.sent");

  CoordEvent event;
  event.object = object_;
  event.party = self_;
  event.sequence = prop.proposed.sequence;
  if (agreed) {
    // The proposer's object already holds the new state (invariant 2);
    // record it as agreed and checkpoint.
    install_agreed_state(prop.proposed, std::move(run.new_state),
                         /*apply_to_object=*/false);
    event.kind = CoordEvent::Kind::kStateAgreed;
    impl_.coord_callback(event);
    if (callbacks_.notify) callbacks_.notify(event);
    // Under the majority rule, `vetoers` lists overridden dissenters.
    complete(run.result, RunResult::Outcome::kAgreed, "", std::move(vetoers),
             prop.proposed.sequence, label);
  } else {
    impl_.apply_state(agreed_state_);
    callbacks_.record_evidence(evidence_kind::kStateRolledBack,
                               prop.proposed.encode());
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.detail = first_diagnostic;
    impl_.coord_callback(event);
    if (callbacks_.notify) callbacks_.notify(event);
    complete(run.result, RunResult::Outcome::kVetoed, first_diagnostic,
             std::move(vetoers), prop.proposed.sequence, label);
  }
  journal_run_closed(walrec::kProposerClosed, label);
  hit_crash_point("decide.installed");
  drain_deferred_membership();
}

// ---------------------------------------------------------------------------
// State coordination — responder side (§4.3, checks of §4.4)
// ---------------------------------------------------------------------------

void Replica::handle_propose(const PartyId& from, const Bytes& body) {
  ProposeMsg msg = ProposeMsg::decode(body);
  const Proposal& prop = msg.proposal;

  if (prop.proposer != from) {
    record_violation("proposal sender does not match proposer field", from);
    return;
  }
  const crypto::RsaPublicKey* pub = callbacks_.key_of(from);
  if (pub == nullptr || !pub->verify(prop.signed_bytes(), msg.signature)) {
    record_violation("bad signature on proposal", from);
    return;
  }
  if (!is_member(from) || !connected_) {
    // Either a verifiable proposal from a party outside the current group
    // (typically an evicted member with a stale view — §4.5.4: "any
    // subsequent coordination request will reveal inconsistencies"), or we
    // have ourselves departed and the proposer has not yet learnt it. Send
    // a signed reject so the proposer's run terminates as vetoed instead
    // of blocking, and record the event.
    if (!is_member(from)) record_anomaly("proposal from non-member", from);
    Response stale;
    stale.responder = self_;
    stale.object = object_;
    stale.proposed = prop.proposed;
    stale.agreed_view = agreed_tuple_;
    stale.current_view = agreed_tuple_;
    stale.group_view = group_tuple_;
    stale.payload_integrity = crypto::Sha256::hash(msg.payload);
    stale.decision = Decision::rejected(
        connected_ ? "inconsistent group view"
                   : "recipient has disconnected from this group");
    RespondMsg out;
    out.response = stale;
    out.signature = key_.sign(stale.signed_bytes());
    callbacks_.record_evidence(evidence_kind::kRespondSent, out.encode());
    send_envelope(from, MsgType::kRespond, out.encode());
    return;
  }
  if (prop.object != object_) {
    record_violation("proposal for wrong object", from);
    return;
  }
  const std::string label = prop.proposed.label();
  if (seen_run_labels_.contains(label)) {
    if (journaling()) {
      // With a journal behind us a duplicate proposal is the expected
      // trace of a crashed-and-recovered proposer re-driving its run, not
      // prima facie replay: answer it idempotently. (Journal-less
      // deployments keep the strict §4.4 replay stance below.)
      auto it = responder_runs_.find(label);
      if (it != responder_runs_.end() &&
          it->second.propose.proposal.proposer == from) {
        record_anomaly("duplicate proposal re-answered " + label, from);
        send_envelope(from, MsgType::kRespond,
                      it->second.my_response.encode());
        return;
      }
      if (it == responder_runs_.end()) {
        record_anomaly("duplicate proposal for closed run " + label, from);
        return;
      }
    }
    // §4.4: T_prop uniquely labels a run; a re-appearance is a replay.
    record_violation("replayed proposal " + label, from);
    return;
  }
  seen_run_labels_.insert(label);
  note_sequence(prop.proposed.sequence);
  hit_crash_point("respond.pre-journal");
  callbacks_.record_evidence(evidence_kind::kProposeReceived, msg.encode());
  messages_.add(label, {"received", "propose", from.str(), body});

  Bytes pending_state;
  Decision decision = evaluate_proposal(msg, &pending_state);

  Response resp;
  resp.responder = self_;
  resp.object = object_;
  resp.proposed = prop.proposed;
  resp.agreed_view = agreed_tuple_;
  resp.current_view = proposer_run_.has_value()
                          ? proposer_run_->propose.proposal.proposed
                          : agreed_tuple_;
  resp.group_view = group_tuple_;
  resp.payload_integrity = crypto::Sha256::hash(msg.payload);
  resp.decision = decision;

  RespondMsg out;
  out.response = resp;
  out.signature = key_.sign(resp.signed_bytes());

  ResponderRun run;
  run.propose = msg;
  run.pending_state = std::move(pending_state);
  run.my_decision = decision;
  run.my_response = out;
  run.members_at_response = members_;

  Bytes encoded = out.encode();
  if (journaling()) {
    ResponderRunRecord record{run.propose, run.pending_state,
                              run.my_response, run.members_at_response};
    wire::Encoder enc;
    enc.blob(record.encode());
    journal_record(walrec::kResponderRun, std::move(enc).take());
  }
  responder_runs_.emplace(label, std::move(run));
  if (decision.accept) accept_lock_ = label;

  callbacks_.record_evidence(evidence_kind::kRespondSent, encoded);
  messages_.add(label, {"sent", "respond", from.str(), encoded});
  journal_barrier();
  hit_crash_point("respond.journaled");
  send_envelope(from, MsgType::kRespond, encoded);
  arm_deadline(label, /*as_proposer=*/false);
  arm_run_probe(label, /*as_proposer=*/false, 1);
  hit_crash_point("respond.sent");
}

Decision Replica::evaluate_proposal(const ProposeMsg& msg,
                                    Bytes* new_state_out) {
  const Proposal& prop = msg.proposal;

  if (prop.group != group_tuple_) {
    return Decision::rejected("inconsistent group view");
  }
  if (prop.agreed != agreed_tuple_) {
    return Decision::rejected("inconsistent agreed-state view");
  }
  if (prop.proposed.sequence <= agreed_tuple_.sequence) {
    return Decision::rejected("sequence number did not advance");
  }
  if (crypto::Sha256::hash(msg.payload) != prop.payload_hash) {
    // The unsigned payload was modified in flight or at source (§4.4).
    record_violation("payload does not match signed hash", prop.proposer);
    return Decision::rejected("payload integrity failure");
  }
  if (!prop.is_update) {
    if (prop.proposed.state_hash != prop.payload_hash) {
      record_violation("overwrite proposal internally inconsistent",
                       prop.proposer);
      return Decision::rejected("proposal internally inconsistent");
    }
    if (prop.proposed.state_hash == agreed_tuple_.state_hash) {
      // §4.4: any member can detect and reject a null state transition.
      return Decision::rejected("null state transition");
    }
  }
  if (busy()) {
    return Decision::rejected("busy: concurrent coordination in progress");
  }

  ValidationContext ctx;
  ctx.local_party = self_;
  ctx.proposer = prop.proposer;
  ctx.object = object_;
  ctx.sequence = prop.proposed.sequence;

  if (prop.is_update) {
    // Apply the update to a scratch incarnation of the object to confirm
    // that "if the update is agreed and applied, a consistent new state
    // will result" (§4.3.1), then validate the result.
    Bytes snapshot = impl_.get_state();
    Bytes resulting;
    try {
      impl_.apply_update(msg.payload);
      resulting = impl_.get_state();
    } catch (const std::exception& e) {
      impl_.apply_state(snapshot);
      return Decision::rejected(std::string("update not applicable: ") +
                                e.what());
    }
    impl_.apply_state(snapshot);
    if (crypto::Sha256::hash(resulting) != prop.proposed.state_hash) {
      record_violation("update does not yield the proposed state",
                       prop.proposer);
      return Decision::rejected("update does not yield the proposed state");
    }
    Decision decision = impl_.validate_update(msg.payload, resulting, ctx);
    if (decision.accept) *new_state_out = std::move(resulting);
    return decision;
  }

  Decision decision = impl_.validate_state(msg.payload, ctx);
  if (decision.accept) *new_state_out = msg.payload;
  return decision;
}

void Replica::handle_decide(const PartyId& from, const Bytes& body) {
  if (!connected_) return;
  DecideMsg msg = DecideMsg::decode(body);
  const std::string label = msg.proposed.label();

  auto it = responder_runs_.find(label);
  if (it == responder_runs_.end()) {
    // Either we never saw the proposal (selective sending, §4.4), we
    // answered it from outside the group, or this is a duplicate of a
    // finished run: evidence-worthy, but explainable by benign races.
    record_anomaly("decide for unknown or finished run " + label, from);
    return;
  }
  ResponderRun& run = it->second;
  const Proposal& prop = run.propose.proposal;
  if (run.batch.has_value()) {
    // A pipelined batch concludes only via kBatchDecide (which reveals
    // every per-item authenticator); a plain decide cannot authenticate
    // the intermediate items and would install a hole in the sequence.
    record_violation("plain decide for pipelined batch run " + label, from);
    return;
  }
  if (msg.proposer != prop.proposer || from != prop.proposer) {
    record_violation("decide not from the proposer", from);
    return;
  }
  if (crypto::Sha256::hash(msg.authenticator) != prop.proposed.rand_hash) {
    // Only the proposer can produce the authenticator; a mismatch means
    // forgery. The run stays active (we keep waiting for the genuine one).
    record_violation("decide authenticator mismatch (forgery)", from);
    return;
  }
  hit_crash_point("decide-recv.pre-journal");
  if (journaling()) {
    wire::Encoder enc;
    enc.blob(msg.encode());
    journal_record(walrec::kDecideDelivered, std::move(enc).take());
  }
  callbacks_.record_evidence(evidence_kind::kDecideReceived, msg.encode());
  messages_.add(label, {"received", "decide", from.str(), body});
  journal_barrier();
  hit_crash_point("decide-recv.journaled");

  ResponderRun finished = std::move(it->second);
  responder_runs_.erase(it);
  conclude_responder_run(label, std::move(finished), msg.responses, from);
}

void Replica::conclude_responder_run(const std::string& label,
                                     ResponderRun run,
                                     const std::vector<RespondMsg>& responses,
                                     const PartyId& from) {
  const Proposal& prop = run.propose.proposal;
  // Verify the aggregation: every response signed, every response for this
  // run, our own response present and unaltered, full recipient coverage.
  bool intact = true;
  std::size_t consistent_accepts = 0;
  std::size_t expected_recipients = 0;
  std::set<PartyId> responders;
  for (const RespondMsg& resp_msg : responses) {
    const Response& resp = resp_msg.response;
    const crypto::RsaPublicKey* pub = callbacks_.key_of(resp.responder);
    if (pub == nullptr ||
        !pub->verify(resp.signed_bytes(), resp_msg.signature)) {
      record_violation("decide aggregates badly signed response from " +
                           resp.responder.str(),
                       from);
      intact = false;
      continue;
    }
    if (resp.proposed != prop.proposed) {
      record_violation("decide aggregates response from another run", from);
      intact = false;
      continue;
    }
    if (!responders.insert(resp.responder).second) continue;  // duplicate
    if (resp.decision.accept && resp.agreed_view == prop.agreed &&
        resp.current_view == prop.agreed && resp.group_view == prop.group &&
        resp.payload_integrity == prop.payload_hash) {
      ++consistent_accepts;
    }
    if (resp.responder == self_ && !(resp_msg == run.my_response)) {
      record_violation("own response misrepresented in decide", from);
      intact = false;
    }
  }
  bool any_reject = false;
  for (const RespondMsg& resp_msg : responses) {
    if (!resp_msg.response.decision.accept) any_reject = true;
  }
  for (const PartyId& member : run.members_at_response) {
    if (member == prop.proposer) continue;
    ++expected_recipients;
    if (!responders.contains(member)) {
      // Omitting a response only misrepresents the outcome when the
      // decide would otherwise read as an agreement; on a vetoed run a
      // shortfall is explainable by concurrent membership changes.
      if (any_reject) {
        record_anomaly("decide lacks response from " + member.str(), from);
      } else {
        record_violation("decide omits response from " + member.str(), from);
      }
      intact = false;
    }
  }

  bool agreed = intact && !responses.empty() &&
                group_accepts(consistent_accepts, expected_recipients);

  CoordEvent event;
  event.object = object_;
  event.party = prop.proposer;
  event.sequence = prop.proposed.sequence;
  if (agreed) {
    std::optional<Bytes> to_install;
    if (run.my_decision.accept && !run.pending_state.empty()) {
      to_install = std::move(run.pending_state);
    } else {
      // Majority rule overrode our veto: derive the agreed state from the
      // proposal we hold (never install anything whose hash we cannot
      // confirm against the agreed tuple).
      to_install = derive_agreed_state(run);
    }
    if (to_install.has_value()) {
      install_agreed_state(prop.proposed, std::move(*to_install),
                           /*apply_to_object=*/true);
      event.kind = CoordEvent::Kind::kStateInstalled;
      impl_.coord_callback(event);
      if (callbacks_.notify) callbacks_.notify(event);
    } else {
      // Our local copy of the payload cannot reproduce the agreed state
      // (e.g. we rejected it for integrity). We hold the evidence but need
      // an out-of-band state transfer to catch up.
      callbacks_.record_evidence("state.transfer-required",
                                 prop.proposed.encode());
      B2B_WARN(self_, " cannot materialise agreed state for run ", label);
    }
  } else {
    event.kind = CoordEvent::Kind::kStateVetoed;
    impl_.coord_callback(event);
    if (callbacks_.notify) callbacks_.notify(event);
  }

  if (accept_lock_ == label) accept_lock_.reset();
  journal_run_closed(walrec::kResponderClosed, label);
  hit_crash_point("decide-recv.installed");
  drain_deferred_membership();
}

// ---------------------------------------------------------------------------
// Pipelined batches (DESIGN.md §13): K state changes, one signature each way
// ---------------------------------------------------------------------------

RunHandle Replica::propose_batch(std::vector<BatchOp> ops) {
  auto handle = std::make_shared<RunResult>();
  if (!connected_) {
    complete(handle, RunResult::Outcome::kAborted, "not connected", {}, 0, "");
    return handle;
  }
  if (ops.empty()) {
    complete(handle, RunResult::Outcome::kAborted, "empty batch", {}, 0, "");
    return handle;
  }
  if (busy()) {
    complete(handle, RunResult::Outcome::kAborted,
             "busy: another coordination run is active", {}, 0, "");
    return handle;
  }

  // Build the hash-chained item list, drawing one 32-byte authenticator
  // per item in exactly the order K sequential runs would draw them (the
  // bit-for-bit tuple-equivalence guarantee the pipeline battery pins).
  const std::uint64_t seq_base = next_sequence();
  ProposerRun run;
  run.batch.emplace();
  BatchProposerState& batch = *run.batch;
  crypto::Digest prev_state_hash = agreed_tuple_.state_hash;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    BatchOp& op = ops[i];
    crypto::Digest state_hash =
        crypto::Sha256::hash(op.is_update ? op.new_state : op.payload);
    if (!op.is_update && state_hash == prev_state_hash) {
      complete(handle, RunResult::Outcome::kAborted,
               "null state transition in batch", {}, 0, "");
      return handle;
    }
    Bytes authenticator = fresh_random();
    BatchItem item;
    item.is_update = op.is_update;
    item.payload = std::move(op.payload);
    item.proposed = StateTuple{seq_base + i,
                               crypto::Sha256::hash(authenticator),
                               state_hash};
    batch.states.push_back(op.is_update ? std::move(op.new_state)
                                        : item.payload);
    batch.propose.items.push_back(std::move(item));
    batch.authenticators.push_back(std::move(authenticator));
    prev_state_hash = state_hash;
  }

  Proposal& prop = run.propose.proposal;
  prop.proposer = self_;
  prop.object = object_;
  prop.group = group_tuple_;
  prop.agreed = agreed_tuple_;
  prop.proposed = batch.propose.items.back().proposed;
  // A batch is a composite delta; only batch-aware paths process it, so
  // the overwrite/update flag is informational.
  prop.is_update = true;
  prop.payload_hash =
      batch_chain_head(object_, agreed_tuple_, batch.propose.items);
  batch.propose.proposal = prop;
  hit_crash_point("batch-open.pre-journal");
  // ONE signature covers the chain head and therefore every item.
  batch.propose.signature = key_.sign(batch_proposal_signed_bytes(prop));
  run.propose.signature = batch.propose.signature;
  hit_crash_point("batch-chain-head.signed");

  note_sequence(prop.proposed.sequence);
  const std::string label = prop.proposed.label();
  for (const BatchItem& item : batch.propose.items) {
    seen_run_labels_.insert(item.proposed.label());
  }
  run.result = handle;
  for (const PartyId& member : members_) {
    if (member != self_) run.recipients.push_back(member);
  }

  Bytes encoded = batch.propose.encode();
  if (journaling()) {
    BatchProposerRunRecord record{batch.propose, batch.authenticators,
                                  batch.states, run.recipients};
    wire::Encoder enc;
    enc.blob(record.encode());
    journal_record(walrec::kBatchProposerRun, std::move(enc).take());
  }
  callbacks_.record_evidence(evidence_kind::kBatchProposeSent, encoded);
  journal_barrier();
  hit_crash_point("batch-open.journaled");

  // Invariant 2: the proposer's object holds the proposed (final) state
  // while the run is open.
  impl_.apply_state(batch.states.back());

  if (run.recipients.empty()) {
    // Singleton group: trivially unanimous — install every item in order
    // (only the final item carries the batch's bookkeeping).
    for (std::size_t i = 0; i < batch.propose.items.size(); ++i) {
      install_agreed_state(batch.propose.items[i].proposed, batch.states[i],
                           /*apply_to_object=*/false,
                           /*bookkeep=*/i + 1 == batch.propose.items.size());
    }
    journal_run_closed(walrec::kProposerClosed, label);
    complete(handle, RunResult::Outcome::kAgreed, "", {},
             prop.proposed.sequence, label);
    return handle;
  }

  bool first_send = true;
  for (const PartyId& recipient : run.recipients) {
    messages_.add(label, {"sent", "batch-propose", recipient.str(), encoded});
    send_envelope(recipient, MsgType::kBatchPropose, encoded);
    if (first_send) {
      first_send = false;
      hit_crash_point("batch-open.mid-send");
    }
  }
  proposer_run_ = std::move(run);
  arm_run_probe(label, /*as_proposer=*/true, 1);
  hit_crash_point("batch-open.sent");
  return handle;
}

void Replica::finish_batch_run_as_proposer() {
  ProposerRun run = std::move(*proposer_run_);
  proposer_run_.reset();
  BatchProposerState& batch = *run.batch;
  const Proposal& prop = run.propose.proposal;
  const std::string label = prop.proposed.label();

  BatchDecideMsg decide;
  decide.proposer = self_;
  decide.object = object_;
  decide.proposed = prop.proposed;
  decide.authenticators = batch.authenticators;
  std::vector<PartyId> vetoers;
  std::string first_diagnostic;
  std::size_t consistent_accepts = 0;
  for (const PartyId& recipient : run.recipients) {
    const RespondMsg& resp = run.responses.at(recipient);
    decide.responses.push_back(resp);
    const Response& r = resp.response;
    if (!r.decision.accept) {
      vetoers.push_back(recipient);
      if (first_diagnostic.empty()) first_diagnostic = r.decision.diagnostic;
    } else if (r.agreed_view != prop.agreed || r.current_view != prop.agreed ||
               r.group_view != prop.group ||
               r.payload_integrity != prop.payload_hash) {
      record_violation("inconsistent accept response", recipient);
      vetoers.push_back(recipient);
      if (first_diagnostic.empty()) {
        first_diagnostic =
            "inconsistent accept response from " + recipient.str();
      }
    } else {
      ++consistent_accepts;
    }
  }
  bool agreed = group_accepts(consistent_accepts, run.recipients.size());

  Bytes encoded = decide.encode();
  hit_crash_point("batch-decide.pre-journal");
  if (journaling()) {
    wire::Encoder enc;
    enc.blob(encoded);
    journal_record(walrec::kBatchDecideSent, std::move(enc).take());
  }
  callbacks_.record_evidence(evidence_kind::kBatchDecideSent, encoded);
  journal_barrier();
  hit_crash_point("batch-decide.journaled");
  bool first_send = true;
  for (const PartyId& recipient : run.recipients) {
    messages_.add(label, {"sent", "batch-decide", recipient.str(), encoded});
    send_envelope(recipient, MsgType::kBatchDecide, encoded);
    if (first_send) {
      first_send = false;
      hit_crash_point("batch-decide.mid-send");
    }
  }
  hit_crash_point("batch-decide.sent");

  CoordEvent event;
  event.object = object_;
  event.party = self_;
  if (agreed) {
    // Install every item in order; only the final item checkpoints,
    // records kStateInstalled evidence and journals a snapshot. The
    // intermediate bookkeeping K sequential runs would have written is
    // subsumed by the final item's (and the batch decide evidence holds
    // every item tuple); skipping it keeps per-item cost free of the
    // TSS-stamp RSA work. The object already holds the final state
    // (invariant 2).
    for (std::size_t i = 0; i < batch.propose.items.size(); ++i) {
      install_agreed_state(batch.propose.items[i].proposed, batch.states[i],
                           /*apply_to_object=*/false,
                           /*bookkeep=*/i + 1 == batch.propose.items.size());
      event.kind = CoordEvent::Kind::kStateAgreed;
      event.sequence = batch.propose.items[i].proposed.sequence;
      impl_.coord_callback(event);
      if (callbacks_.notify) callbacks_.notify(event);
    }
    complete(run.result, RunResult::Outcome::kAgreed, "", std::move(vetoers),
             prop.proposed.sequence, label);
  } else {
    impl_.apply_state(agreed_state_);
    callbacks_.record_evidence(evidence_kind::kStateRolledBack,
                               prop.proposed.encode());
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.sequence = prop.proposed.sequence;
    event.detail = first_diagnostic;
    impl_.coord_callback(event);
    if (callbacks_.notify) callbacks_.notify(event);
    complete(run.result, RunResult::Outcome::kVetoed, first_diagnostic,
             std::move(vetoers), prop.proposed.sequence, label);
  }
  journal_run_closed(walrec::kProposerClosed, label);
  hit_crash_point("batch-decide.installed");
  drain_deferred_membership();
}

void Replica::handle_batch_propose(const PartyId& from, const Bytes& body) {
  BatchProposeMsg msg = BatchProposeMsg::decode(body);
  const Proposal& prop = msg.proposal;

  if (prop.proposer != from) {
    record_violation("batch proposal sender does not match proposer field",
                     from);
    return;
  }
  const crypto::RsaPublicKey* pub = callbacks_.key_of(from);
  if (pub == nullptr ||
      !pub->verify(batch_proposal_signed_bytes(prop), msg.signature)) {
    record_violation("bad signature on batch proposal", from);
    return;
  }
  if (msg.items.empty() || !(msg.items.back().proposed == prop.proposed)) {
    record_violation("batch proposal items inconsistent with head tuple",
                     from);
    return;
  }
  if (!is_member(from) || !connected_) {
    if (!is_member(from)) {
      record_anomaly("batch proposal from non-member", from);
    }
    Response stale;
    stale.responder = self_;
    stale.object = object_;
    stale.proposed = prop.proposed;
    stale.agreed_view = agreed_tuple_;
    stale.current_view = agreed_tuple_;
    stale.group_view = group_tuple_;
    stale.payload_integrity = batch_chain_head(object_, prop.agreed, msg.items);
    stale.decision = Decision::rejected(
        connected_ ? "inconsistent group view"
                   : "recipient has disconnected from this group");
    RespondMsg out;
    out.response = stale;
    out.signature = key_.sign(stale.signed_bytes());
    callbacks_.record_evidence(evidence_kind::kRespondSent, out.encode());
    send_envelope(from, MsgType::kRespond, out.encode());
    return;
  }
  if (prop.object != object_) {
    record_violation("batch proposal for wrong object", from);
    return;
  }
  const std::string label = prop.proposed.label();
  if (seen_run_labels_.contains(label)) {
    if (journaling()) {
      auto it = responder_runs_.find(label);
      if (it != responder_runs_.end() &&
          it->second.propose.proposal.proposer == from) {
        record_anomaly("duplicate batch proposal re-answered " + label, from);
        send_envelope(from, MsgType::kRespond,
                      it->second.my_response.encode());
        return;
      }
      if (it == responder_runs_.end()) {
        record_anomaly("duplicate batch proposal for closed run " + label,
                       from);
        return;
      }
    }
    record_violation("replayed batch proposal " + label, from);
    return;
  }
  for (const BatchItem& item : msg.items) {
    seen_run_labels_.insert(item.proposed.label());
  }
  note_sequence(prop.proposed.sequence);
  callbacks_.record_evidence(evidence_kind::kBatchProposeReceived,
                             msg.encode());
  messages_.add(label, {"received", "batch-propose", from.str(), body});

  // Integrity first: the single signature covers the chain head, so a
  // mutated/reordered/dropped item breaks the recomputed head.
  const crypto::Digest recomputed_head =
      batch_chain_head(object_, prop.agreed, msg.items);
  std::vector<Bytes> pending_states;
  Decision decision = [&]() -> Decision {
    if (recomputed_head != prop.payload_hash) {
      record_violation("batch payload does not match signed chain head",
                       prop.proposer);
      return Decision::rejected("batch payload integrity failure");
    }
    if (prop.group != group_tuple_) {
      return Decision::rejected("inconsistent group view");
    }
    if (prop.agreed != agreed_tuple_) {
      return Decision::rejected("inconsistent agreed-state view");
    }
    for (std::size_t i = 0; i < msg.items.size(); ++i) {
      if (msg.items[i].proposed.sequence != prop.agreed.sequence + 1 + i) {
        record_violation("batch sequence numbers not consecutive",
                         prop.proposer);
        return Decision::rejected("batch sequence numbers not consecutive");
      }
    }
    if (busy()) {
      return Decision::rejected("busy: concurrent coordination in progress");
    }
    // Validate the items sequentially on a scratch incarnation: item i is
    // validated against the state item i-1 produced, exactly as i
    // sequential runs would validate them.
    Bytes snapshot = impl_.get_state();
    crypto::Digest prev_hash = agreed_tuple_.state_hash;
    impl_.apply_state(agreed_state_);
    for (std::size_t i = 0; i < msg.items.size(); ++i) {
      const BatchItem& item = msg.items[i];
      ValidationContext ctx;
      ctx.local_party = self_;
      ctx.proposer = prop.proposer;
      ctx.object = object_;
      ctx.sequence = item.proposed.sequence;
      Bytes resulting;
      if (item.is_update) {
        try {
          impl_.apply_update(item.payload);
          resulting = impl_.get_state();
        } catch (const std::exception& e) {
          impl_.apply_state(snapshot);
          return Decision::rejected(
              std::string("batch update not applicable: ") + e.what());
        }
        if (crypto::Sha256::hash(resulting) != item.proposed.state_hash) {
          impl_.apply_state(snapshot);
          record_violation("batch item does not yield the proposed state",
                           prop.proposer);
          return Decision::rejected(
              "batch item does not yield the proposed state");
        }
        Decision verdict = impl_.validate_update(item.payload, resulting, ctx);
        if (!verdict.accept) {
          impl_.apply_state(snapshot);
          return verdict;
        }
      } else {
        if (item.proposed.state_hash != crypto::Sha256::hash(item.payload)) {
          impl_.apply_state(snapshot);
          record_violation("batch overwrite item internally inconsistent",
                           prop.proposer);
          return Decision::rejected("batch item internally inconsistent");
        }
        if (item.proposed.state_hash == prev_hash) {
          impl_.apply_state(snapshot);
          return Decision::rejected("null state transition in batch");
        }
        Decision verdict = impl_.validate_state(item.payload, ctx);
        if (!verdict.accept) {
          impl_.apply_state(snapshot);
          return verdict;
        }
        resulting = item.payload;
        impl_.apply_state(resulting);
      }
      pending_states.push_back(std::move(resulting));
      prev_hash = item.proposed.state_hash;
      if (i == 0) hit_crash_point("batch-respond.mid");
    }
    impl_.apply_state(snapshot);
    return Decision::accepted();
  }();
  if (!decision.accept) pending_states.clear();

  Response resp;
  resp.responder = self_;
  resp.object = object_;
  resp.proposed = prop.proposed;
  resp.agreed_view = agreed_tuple_;
  resp.current_view = proposer_run_.has_value()
                          ? proposer_run_->propose.proposal.proposed
                          : agreed_tuple_;
  resp.group_view = group_tuple_;
  resp.payload_integrity = recomputed_head;
  resp.decision = decision;

  // ONE standard signed response answers the whole batch.
  RespondMsg out;
  out.response = resp;
  out.signature = key_.sign(resp.signed_bytes());

  ResponderRun run;
  run.propose.proposal = prop;
  run.propose.signature = msg.signature;
  if (!pending_states.empty()) run.pending_state = pending_states.back();
  run.my_decision = decision;
  run.my_response = out;
  run.members_at_response = members_;
  run.batch = BatchResponderState{std::move(msg), std::move(pending_states)};

  Bytes encoded = out.encode();
  if (journaling()) {
    BatchResponderRunRecord record{run.batch->propose,
                                   run.batch->pending_states,
                                   run.my_response, run.members_at_response};
    wire::Encoder enc;
    enc.blob(record.encode());
    journal_record(walrec::kBatchResponderRun, std::move(enc).take());
  }
  responder_runs_.emplace(label, std::move(run));
  if (decision.accept) accept_lock_ = label;

  callbacks_.record_evidence(evidence_kind::kRespondSent, encoded);
  messages_.add(label, {"sent", "respond", from.str(), encoded});
  journal_barrier();
  hit_crash_point("batch-respond.journaled");
  send_envelope(from, MsgType::kRespond, encoded);
  arm_run_probe(label, /*as_proposer=*/false, 1);
  hit_crash_point("batch-respond.sent");
}

void Replica::handle_batch_decide(const PartyId& from, const Bytes& body) {
  if (!connected_) return;
  BatchDecideMsg msg = BatchDecideMsg::decode(body);
  const std::string label = msg.proposed.label();

  auto it = responder_runs_.find(label);
  if (it == responder_runs_.end()) {
    record_anomaly("batch decide for unknown or finished run " + label, from);
    return;
  }
  ResponderRun& run = it->second;
  if (!run.batch.has_value()) {
    record_violation("batch decide for non-batch run " + label, from);
    return;
  }
  const Proposal& prop = run.propose.proposal;
  if (msg.proposer != prop.proposer || from != prop.proposer) {
    record_violation("batch decide not from the proposer", from);
    return;
  }
  // EVERY per-item authenticator must be revealed and check out: the
  // intermediate tuples are installed on their strength alone.
  const std::vector<BatchItem>& items = run.batch->propose.items;
  if (msg.authenticators.size() != items.size()) {
    record_violation("batch decide authenticator count mismatch", from);
    return;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (crypto::Sha256::hash(msg.authenticators[i]) !=
        items[i].proposed.rand_hash) {
      record_violation("batch decide authenticator mismatch (forgery)", from);
      return;
    }
  }
  hit_crash_point("batch-decide-recv.pre-journal");
  if (journaling()) {
    wire::Encoder enc;
    enc.blob(msg.encode());
    journal_record(walrec::kBatchDecideDelivered, std::move(enc).take());
  }
  callbacks_.record_evidence(evidence_kind::kBatchDecideReceived,
                             msg.encode());
  messages_.add(label, {"received", "batch-decide", from.str(), body});
  journal_barrier();
  hit_crash_point("batch-decide-recv.journaled");

  ResponderRun finished = std::move(it->second);
  responder_runs_.erase(it);
  conclude_batch_responder_run(label, std::move(finished), msg, from);
}

void Replica::conclude_batch_responder_run(const std::string& label,
                                           ResponderRun run,
                                           const BatchDecideMsg& msg,
                                           const PartyId& from) {
  const Proposal& prop = run.propose.proposal;
  const std::vector<BatchItem>& items = run.batch->propose.items;

  // Signature pass first, in bulk: the coordinator's verify_many backs
  // this with the verified-signature cache, so a retransmitted decide
  // costs no RSA at all.
  std::vector<bool> sig_ok(msg.responses.size(), false);
  if (callbacks_.verify_many) {
    std::vector<VerifyJob> jobs;
    jobs.reserve(msg.responses.size());
    for (const RespondMsg& resp_msg : msg.responses) {
      jobs.push_back(VerifyJob{resp_msg.response.responder,
                               resp_msg.response.signed_bytes(),
                               resp_msg.signature});
    }
    sig_ok = callbacks_.verify_many(jobs);
  } else {
    for (std::size_t i = 0; i < msg.responses.size(); ++i) {
      const RespondMsg& resp_msg = msg.responses[i];
      const crypto::RsaPublicKey* pub =
          callbacks_.key_of(resp_msg.response.responder);
      sig_ok[i] = pub != nullptr && pub->verify(resp_msg.response.signed_bytes(),
                                                resp_msg.signature);
    }
  }

  bool intact = true;
  std::size_t consistent_accepts = 0;
  std::size_t expected_recipients = 0;
  std::set<PartyId> responders;
  for (std::size_t i = 0; i < msg.responses.size(); ++i) {
    const RespondMsg& resp_msg = msg.responses[i];
    const Response& resp = resp_msg.response;
    if (!sig_ok[i]) {
      record_violation("batch decide aggregates badly signed response from " +
                           resp.responder.str(),
                       from);
      intact = false;
      continue;
    }
    if (resp.proposed != prop.proposed) {
      record_violation("batch decide aggregates response from another run",
                       from);
      intact = false;
      continue;
    }
    if (!responders.insert(resp.responder).second) continue;  // duplicate
    if (resp.decision.accept && resp.agreed_view == prop.agreed &&
        resp.current_view == prop.agreed && resp.group_view == prop.group &&
        resp.payload_integrity == prop.payload_hash) {
      ++consistent_accepts;
    }
    if (resp.responder == self_ && !(resp_msg == run.my_response)) {
      record_violation("own response misrepresented in batch decide", from);
      intact = false;
    }
  }
  bool any_reject = false;
  for (const RespondMsg& resp_msg : msg.responses) {
    if (!resp_msg.response.decision.accept) any_reject = true;
  }
  for (const PartyId& member : run.members_at_response) {
    if (member == prop.proposer) continue;
    ++expected_recipients;
    if (!responders.contains(member)) {
      if (any_reject) {
        record_anomaly("batch decide lacks response from " + member.str(),
                       from);
      } else {
        record_violation("batch decide omits response from " + member.str(),
                         from);
      }
      intact = false;
    }
  }

  bool agreed = intact && !msg.responses.empty() &&
                group_accepts(consistent_accepts, expected_recipients);

  CoordEvent event;
  event.object = object_;
  event.party = prop.proposer;
  if (agreed) {
    std::optional<std::vector<Bytes>> to_install;
    if (run.my_decision.accept &&
        run.batch->pending_states.size() == items.size()) {
      to_install = std::move(run.batch->pending_states);
    } else {
      // Majority rule overrode our veto: re-derive every item state from
      // the payloads we hold, confirming each hash.
      to_install = derive_batch_agreed_states(run);
    }
    if (to_install.has_value()) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        install_agreed_state(items[i].proposed, std::move((*to_install)[i]),
                             /*apply_to_object=*/true,
                             /*bookkeep=*/i + 1 == items.size());
        event.kind = CoordEvent::Kind::kStateInstalled;
        event.sequence = items[i].proposed.sequence;
        impl_.coord_callback(event);
        if (callbacks_.notify) callbacks_.notify(event);
      }
    } else {
      callbacks_.record_evidence("state.transfer-required",
                                 prop.proposed.encode());
      B2B_WARN(self_, " cannot materialise agreed batch states for run ",
               label);
    }
  } else {
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.sequence = prop.proposed.sequence;
    impl_.coord_callback(event);
    if (callbacks_.notify) callbacks_.notify(event);
  }

  if (accept_lock_ == label) accept_lock_.reset();
  journal_run_closed(walrec::kResponderClosed, label);
  hit_crash_point("batch-decide-recv.installed");
  drain_deferred_membership();
}

std::optional<std::vector<Bytes>> Replica::derive_batch_agreed_states(
    ResponderRun& run) {
  const std::vector<BatchItem>& items = run.batch->propose.items;
  std::vector<Bytes> states;
  states.reserve(items.size());
  Bytes snapshot = impl_.get_state();
  try {
    impl_.apply_state(agreed_state_);
    for (const BatchItem& item : items) {
      if (item.is_update) {
        impl_.apply_update(item.payload);
        Bytes result = impl_.get_state();
        if (crypto::Sha256::hash(result) != item.proposed.state_hash) {
          impl_.apply_state(snapshot);
          return std::nullopt;
        }
        states.push_back(std::move(result));
      } else {
        if (crypto::Sha256::hash(item.payload) != item.proposed.state_hash) {
          impl_.apply_state(snapshot);
          return std::nullopt;
        }
        impl_.apply_state(item.payload);
        states.push_back(item.payload);
      }
    }
    impl_.apply_state(snapshot);
    return states;
  } catch (const std::exception&) {
    impl_.apply_state(snapshot);
    return std::nullopt;
  }
}

bool Replica::maybe_resend_batch_decide(const std::string& label,
                                        const PartyId& to) {
  if (!journaling()) return false;
  for (const auto& stored : messages_.run(label)) {
    if (stored.direction == "sent" && stored.kind == "batch-decide") {
      record_anomaly("re-sent batch decide of closed run " + label, to);
      send_envelope(to, MsgType::kBatchDecide, stored.payload);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// TTP-certified termination (§7 extension; see termination.hpp)
// ---------------------------------------------------------------------------

void Replica::enable_ttp_termination(TtpConfig config) {
  if (!callbacks_.schedule) {
    throw Error("ttp termination requires a schedule callback");
  }
  if (config.deadline_micros == 0) {
    throw Error("ttp termination requires a non-zero deadline");
  }
  ttp_ = std::move(config);
}

void Replica::arm_deadline(const std::string& label, bool as_proposer) {
  if (!ttp_.has_value()) return;
  callbacks_.schedule(ttp_->deadline_micros, [this, label, as_proposer] {
    bool still_active =
        as_proposer
            ? (proposer_run_.has_value() &&
               proposer_run_->propose.proposal.proposed.label() == label)
            : responder_runs_.contains(label);
    if (!still_active) return;
    if (as_proposer && proposer_run_->deal_staged) {
      // Staged deal leg: the deal layer owns initiator escalation (it
      // must abort or register the WHOLE deal, never refer one leg).
      if (deal_hooks_.on_leg_deadline) {
        deal_hooks_.on_leg_deadline(object_, label);
      }
      return;
    }
    request_termination(label, as_proposer);
  });
}

void Replica::request_termination(const std::string& label,
                                  bool as_proposer) {
  TerminationRequest request;
  request.requester = self_;
  request.object = object_;
  if (as_proposer) {
    const ProposerRun& run = *proposer_run_;
    request.proposed = run.propose.proposal.proposed;
    request.propose = run.propose;
    for (const auto& [responder, resp] : run.responses) {
      request.responses.push_back(resp);
    }
    request.claimed_recipients = run.recipients;
  } else {
    request.proposed = responder_runs_.at(label).propose.proposal.proposed;
  }
  Bytes signature = key_.sign(request.signed_bytes());
  if (journaling()) {
    wire::Encoder enc;
    enc.str(label).u8(as_proposer ? 1 : 0);
    journal_record(walrec::kTerminationSubmitted, std::move(enc).take());
  }
  callbacks_.record_evidence("ttp.request", request.encode());
  journal_barrier();
  hit_crash_point("ttp-submit.journaled");
  send_envelope(ttp_->ttp, MsgType::kTerminationRequest,
                request.encode_with_signature(signature));
  B2B_DEBUG(self_, " refers blocked run ", label, " to the TTP");
}

void Replica::handle_termination_verdict(const PartyId& from,
                                         const Bytes& body) {
  if (!ttp_.has_value() || from != ttp_->ttp) {
    record_violation("unsolicited termination verdict", from);
    return;
  }
  Bytes signature;
  TerminationVerdict verdict = TerminationVerdict::decode_fields(body, &signature);
  if (!ttp_->ttp_key.verify(verdict.signed_bytes(), signature)) {
    record_violation("badly signed termination verdict", from);
    return;
  }
  if (verdict.object != object_) return;
  const std::string label = verdict.proposed.label();
  // Journal the signed verdict before acting on it, but only while a run
  // it concludes is still open (a late duplicate for a closed run would
  // only bloat the journal).
  bool run_open = (proposer_run_.has_value() &&
                   proposer_run_->propose.proposal.proposed ==
                       verdict.proposed) ||
                  responder_runs_.contains(label);
  if (run_open && journaling()) {
    wire::Encoder enc;
    enc.blob(body);
    journal_record(walrec::kVerdictDelivered, std::move(enc).take());
  }
  callbacks_.record_evidence(verdict.kind == TerminationVerdict::Kind::kAbort
                                 ? "ttp.abort"
                                 : "ttp.decision",
                             body);
  if (run_open) {
    journal_barrier();
    hit_crash_point("verdict.journaled");
  }

  // Proposer side.
  if (proposer_run_.has_value() &&
      proposer_run_->propose.proposal.proposed == verdict.proposed) {
    ProposerRun run = std::move(*proposer_run_);
    proposer_run_.reset();
    if (verdict.kind == TerminationVerdict::Kind::kAbort) {
      impl_.apply_state(agreed_state_);
      callbacks_.record_evidence(evidence_kind::kStateRolledBack,
                                 verdict.proposed.encode());
      complete(run.result, RunResult::Outcome::kAborted,
               "TTP-certified abort", {}, verdict.proposed.sequence, label);
    } else {
      // A certified decision carries the full verified response set; we
      // conclude exactly as if we had assembled the decide ourselves.
      std::size_t consistent_accepts = 0;
      const Proposal& prop = run.propose.proposal;
      for (const RespondMsg& resp_msg : verdict.responses) {
        const Response& r = resp_msg.response;
        const crypto::RsaPublicKey* pub = callbacks_.key_of(r.responder);
        if (pub != nullptr &&
            pub->verify(r.signed_bytes(), resp_msg.signature) &&
            r.proposed == prop.proposed && r.decision.accept &&
            r.agreed_view == prop.agreed && r.current_view == prop.agreed &&
            r.group_view == prop.group &&
            r.payload_integrity == prop.payload_hash) {
          ++consistent_accepts;
        }
      }
      bool agreed = group_accepts(consistent_accepts, run.recipients.size());
      if (agreed) {
        install_agreed_state(prop.proposed, std::move(run.new_state),
                             /*apply_to_object=*/false);
        complete(run.result, RunResult::Outcome::kAgreed,
                 "TTP-certified decision", {}, prop.proposed.sequence, label);
      } else {
        impl_.apply_state(agreed_state_);
        complete(run.result, RunResult::Outcome::kVetoed,
                 "TTP-certified decision: vetoed", {}, prop.proposed.sequence,
                 label);
      }
    }
    journal_run_closed(walrec::kProposerClosed, label);
    return;
  }

  // Responder side.
  auto it = responder_runs_.find(label);
  if (it == responder_runs_.end()) return;  // already resolved normally
  ResponderRun run = std::move(it->second);
  responder_runs_.erase(it);
  if (verdict.kind == TerminationVerdict::Kind::kAbort) {
    if (accept_lock_ == label) accept_lock_.reset();
    journal_run_closed(walrec::kResponderClosed, label);
    CoordEvent event;
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.object = object_;
    event.party = run.propose.proposal.proposer;
    event.sequence = verdict.proposed.sequence;
    event.detail = "TTP-certified abort";
    impl_.coord_callback(event);
    if (callbacks_.notify) callbacks_.notify(event);
    drain_deferred_membership();
    return;
  }
  conclude_responder_run(label, std::move(run), verdict.responses, from);
}

// ---------------------------------------------------------------------------
// Deal legs (DESIGN.md §12)
// ---------------------------------------------------------------------------

Replica::StagedLeg Replica::stage_deal_run(bool is_update, Bytes payload,
                                           Bytes new_state,
                                           const std::string& deal_id) {
  StagedLeg leg;
  leg.handle = std::make_shared<RunResult>();
  if (!connected_) {
    complete(leg.handle, RunResult::Outcome::kAborted, "not connected", {}, 0,
             "");
    return leg;
  }
  if (busy()) {
    complete(leg.handle, RunResult::Outcome::kAborted,
             "busy: another coordination run is active", {}, 0, "");
    return leg;
  }
  crypto::Digest new_state_hash = crypto::Sha256::hash(new_state);
  if (!is_update && new_state_hash == agreed_tuple_.state_hash) {
    complete(leg.handle, RunResult::Outcome::kAborted, "null state transition",
             {}, 0, "");
    return leg;
  }

  ProposerRun run;
  run.authenticator = fresh_random();
  run.new_state = std::move(new_state);
  run.result = leg.handle;
  run.deal_staged = true;
  run.deal_id = deal_id;

  Proposal& prop = run.propose.proposal;
  prop.proposer = self_;
  prop.object = object_;
  prop.group = group_tuple_;
  prop.agreed = agreed_tuple_;
  prop.proposed = StateTuple{next_sequence(),
                             crypto::Sha256::hash(run.authenticator),
                             new_state_hash};
  prop.is_update = is_update;
  prop.payload_hash = crypto::Sha256::hash(payload);
  run.propose.payload = std::move(payload);
  run.propose.signature = key_.sign(prop.signed_bytes());

  note_sequence(prop.proposed.sequence);
  leg.label = prop.proposed.label();
  leg.proposed = prop.proposed;
  seen_run_labels_.insert(leg.label);
  for (const PartyId& member : members_) {
    if (member != self_) run.recipients.push_back(member);
  }
  leg.recipient_count = run.recipients.size();

  // Invariant 2: the proposer's object holds the proposed state while its
  // run is open (the deal layer hands us the payload instead of mutating
  // the object first, so apply it here).
  impl_.apply_state(run.new_state);

  hit_crash_point("deal-stage.pre-journal");
  if (journaling()) {
    // kDealStaged strictly BEFORE kProposerRun: a crash between the two
    // must never leave a bare proposer-run record, which the per-run
    // resume would re-drive as a standalone run and decide independently
    // of the (never-opened) deal — breaking all-or-nothing. The reverse
    // orphan (staged marker without a run) is inert.
    wire::Encoder staged;
    staged.str(leg.label).str(deal_id);
    journal_record(walrec::kDealStaged, std::move(staged).take());
    ProposerRunRecord record{run.propose, run.authenticator, run.new_state,
                             run.recipients};
    wire::Encoder enc;
    enc.blob(record.encode());
    journal_record(walrec::kProposerRun, std::move(enc).take());
  }
  callbacks_.record_evidence(evidence_kind::kProposeSent, run.propose.encode());
  journal_barrier();
  proposer_run_ = std::move(run);
  return leg;
}

void Replica::launch_staged_run(const std::string& label,
                                const DealEnlistMsg& enlist) {
  if (!proposer_run_.has_value() || !proposer_run_->deal_staged ||
      proposer_run_->propose.proposal.proposed.label() != label) {
    return;
  }
  ProposerRun& run = *proposer_run_;
  Bytes encoded = run.propose.encode();
  Bytes enlist_encoded = enlist.encode();
  bool first_send = true;
  for (const PartyId& recipient : run.recipients) {
    messages_.add(label, {"sent", "propose", recipient.str(), encoded});
    send_envelope(recipient, MsgType::kPropose, encoded);
    messages_.add(label,
                  {"sent", "deal.enlist", recipient.str(), enlist_encoded});
    send_envelope(recipient, MsgType::kDealEnlist, enlist_encoded);
    if (first_send) {
      first_send = false;
      hit_crash_point("deal-launch.mid-send");
    }
  }
  arm_deadline(label, /*as_proposer=*/true);
  arm_run_probe(label, /*as_proposer=*/true, 1);
  hit_crash_point("deal-launch.sent");
}

void Replica::commit_staged_run(const std::string& label,
                                const DealDecisionMsg& decision) {
  if (!proposer_run_.has_value() || !proposer_run_->deal_staged ||
      proposer_run_->propose.proposal.proposed.label() != label) {
    return;
  }
  ProposerRun& run = *proposer_run_;
  if (run.responses.size() != run.recipients.size()) {
    return;  // not prepared: the deal layer never commits such a leg
  }
  // Broadcast the signed cross-leg decision first (the non-repudiation
  // artifact), then run the unchanged decide phase, which reveals the
  // authenticator and installs.
  Bytes encoded = decision.encode();
  for (const PartyId& recipient : run.recipients) {
    messages_.add(label, {"sent", "deal.decision", recipient.str(), encoded});
    send_envelope(recipient, MsgType::kDealDecision, encoded);
  }
  run.deal_staged = false;
  finish_state_run_as_proposer();
}

void Replica::abort_staged_run(const std::string& label,
                               const DealDecisionMsg& decision) {
  if (!proposer_run_.has_value() || !proposer_run_->deal_staged ||
      proposer_run_->propose.proposal.proposed.label() != label) {
    return;
  }
  ProposerRun run = std::move(*proposer_run_);
  proposer_run_.reset();
  const Proposal& prop = run.propose.proposal;
  Bytes encoded = decision.encode();
  for (const PartyId& recipient : run.recipients) {
    messages_.add(label, {"sent", "deal.decision", recipient.str(), encoded});
    send_envelope(recipient, MsgType::kDealDecision, encoded);
  }
  impl_.apply_state(agreed_state_);
  callbacks_.record_evidence(evidence_kind::kStateRolledBack,
                             prop.proposed.encode());
  complete(run.result, RunResult::Outcome::kAborted,
           decision.decision.diagnostic.empty()
               ? "deal aborted"
               : decision.decision.diagnostic,
           {}, prop.proposed.sequence, label);
  journal_run_closed(walrec::kProposerClosed, label);
  drain_deferred_membership();
}

void Replica::cancel_staged_run(const std::string& label) {
  if (!proposer_run_.has_value() || !proposer_run_->deal_staged ||
      proposer_run_->propose.proposal.proposed.label() != label) {
    return;
  }
  ProposerRun run = std::move(*proposer_run_);
  proposer_run_.reset();
  impl_.apply_state(agreed_state_);
  callbacks_.record_evidence(evidence_kind::kStateRolledBack,
                             run.propose.proposal.proposed.encode());
  complete(run.result, RunResult::Outcome::kAborted,
           "deal never opened: staged leg cancelled", {},
           run.propose.proposal.proposed.sequence, label);
  journal_run_closed(walrec::kProposerClosed, label);
  drain_deferred_membership();
}

bool Replica::resume_staged_run(const std::string& label,
                                const DealEnlistMsg& enlist) {
  if (!proposer_run_.has_value() || !proposer_run_->deal_staged ||
      proposer_run_->propose.proposal.proposed.label() != label) {
    return false;
  }
  ProposerRun& run = *proposer_run_;
  Bytes encoded = run.propose.encode();
  Bytes enlist_encoded = enlist.encode();
  for (const PartyId& recipient : run.recipients) {
    if (run.responses.contains(recipient)) continue;
    send_envelope(recipient, MsgType::kPropose, encoded);
    send_envelope(recipient, MsgType::kDealEnlist, enlist_encoded);
  }
  arm_run_probe(label, /*as_proposer=*/true, 1);
  arm_deadline(label, /*as_proposer=*/true);
  return true;
}

Replica::StagedRunStatus Replica::staged_run_status(
    const std::string& label) const {
  StagedRunStatus status;
  if (!proposer_run_.has_value() || !proposer_run_->deal_staged ||
      proposer_run_->propose.proposal.proposed.label() != label) {
    return status;
  }
  const ProposerRun& run = *proposer_run_;
  const Proposal& prop = run.propose.proposal;
  status.open = true;
  status.complete = run.responses.size() == run.recipients.size();
  status.all_accept = status.complete;
  for (const PartyId& recipient : run.recipients) {
    auto it = run.responses.find(recipient);
    if (it == run.responses.end()) {
      status.all_accept = false;
      continue;
    }
    const Response& r = it->second.response;
    if (!r.decision.accept || r.agreed_view != prop.agreed ||
        r.current_view != prop.agreed || r.group_view != prop.group ||
        r.payload_integrity != prop.payload_hash) {
      status.all_accept = false;
      status.vetoers.push_back(recipient);
    }
  }
  return status;
}

std::optional<std::pair<std::string, std::string>> Replica::staged_run()
    const {
  if (!proposer_run_.has_value() || !proposer_run_->deal_staged) {
    return std::nullopt;
  }
  return std::make_pair(proposer_run_->propose.proposal.proposed.label(),
                        proposer_run_->deal_id);
}

std::optional<TerminationRequest> Replica::staged_termination_request(
    const std::string& label) const {
  if (!proposer_run_.has_value() || !proposer_run_->deal_staged ||
      proposer_run_->propose.proposal.proposed.label() != label) {
    return std::nullopt;
  }
  const ProposerRun& run = *proposer_run_;
  TerminationRequest request;
  request.requester = self_;
  request.object = object_;
  request.proposed = run.propose.proposal.proposed;
  request.propose = run.propose;
  for (const auto& [responder, resp] : run.responses) {
    request.responses.push_back(resp);
  }
  request.claimed_recipients = run.recipients;
  return request;
}

void Replica::handle_deal_enlist(const PartyId& from, const Bytes& body) {
  DealEnlistMsg msg = DealEnlistMsg::decode(body);
  const DealProposal& proposal = msg.proposal;
  if (proposal.initiator != from) {
    record_violation("deal enlist sender does not match initiator", from);
    return;
  }
  const crypto::RsaPublicKey* pub = callbacks_.key_of(from);
  if (pub == nullptr || !pub->verify(proposal.signed_bytes(), msg.signature)) {
    record_violation("bad signature on deal enlist", from);
    return;
  }
  const DealLeg* my_leg = nullptr;
  for (const DealLeg& leg : proposal.legs) {
    if (leg.object == object_) {
      my_leg = &leg;
      break;
    }
  }
  if (my_leg == nullptr) {
    record_violation("deal enlist without a leg for this object", from);
    return;
  }
  const std::string label = my_leg->proposed.label();
  auto existing = deal_enlists_.find(label);
  if (existing != deal_enlists_.end()) {
    if (!(existing->second == msg)) {
      // Two different signed enlists binding this run to different deals:
      // equivocation. Both are kept as evidence.
      callbacks_.record_evidence(evidence_kind::kDealEnlistReceived, body);
      record_violation("equivocating deal enlists for run " + label, from);
    }
    return;  // duplicate (probe/recovery re-send): already on record
  }
  hit_crash_point("deal-enlist-recv.pre-journal");
  if (journaling()) {
    wire::Encoder enc;
    enc.blob(body);
    journal_record(walrec::kDealEnlisted, std::move(enc).take());
  }
  messages_.add(label, {"received", "deal.enlist", from.str(), body});
  callbacks_.record_evidence(evidence_kind::kDealEnlistReceived, body);
  journal_barrier();
  hit_crash_point("deal-enlist-recv.journaled");
  deal_enlists_.emplace(label, std::move(msg));
}

void Replica::handle_deal_decision(const PartyId& from, const Bytes& body) {
  DealDecisionMsg msg = DealDecisionMsg::decode(body);
  const DealDecision& decision = msg.decision;
  if (decision.initiator != from) {
    record_violation("deal decision sender does not match initiator", from);
    return;
  }
  const crypto::RsaPublicKey* pub = callbacks_.key_of(from);
  if (pub == nullptr ||
      !pub->verify(decision.signed_bytes(), msg.signature)) {
    record_violation("bad signature on deal decision", from);
    return;
  }
  auto seen = deal_decisions_seen_.find(decision.deal_id);
  if (seen != deal_decisions_seen_.end()) {
    if (!(seen->second.decision == decision)) {
      // Two different signed verdicts for one deal id: non-repudiable
      // equivocation, blamable on the initiator alone. Keep both.
      callbacks_.record_evidence(evidence_kind::kDealDecisionReceived, body);
      record_violation(
          "equivocating deal decision for " + decision.deal_id, from);
      return;
    }
  } else {
    deal_decisions_seen_.emplace(decision.deal_id, msg);
    callbacks_.record_evidence(evidence_kind::kDealDecisionReceived, body);
  }

  for (const DealLeg& leg : decision.legs) {
    if (leg.object != object_) continue;
    const std::string label = leg.proposed.label();
    messages_.add(label, {"received", "deal.decision", from.str(), body});
    if (decision.verdict == DealDecision::Verdict::kCommit) {
      // The normal decide (authenticator reveal) follows and installs;
      // the artifact is on record, nothing else to do.
      continue;
    }
    auto it = responder_runs_.find(label);
    if (it == responder_runs_.end()) continue;  // not parked / already closed
    if (it->second.propose.proposal.proposer != from) {
      record_violation("deal abort for a run proposed by another party",
                       from);
      continue;
    }
    hit_crash_point("deal-abort-recv.pre-journal");
    ResponderRun run = std::move(it->second);
    responder_runs_.erase(it);
    if (accept_lock_ == label) accept_lock_.reset();
    journal_run_closed(walrec::kResponderClosed, label);
    hit_crash_point("deal-abort-recv.journaled");
    CoordEvent event;
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.object = object_;
    event.party = from;
    event.sequence = leg.proposed.sequence;
    event.detail = "deal aborted: " + decision.diagnostic;
    impl_.coord_callback(event);
    if (callbacks_.notify) callbacks_.notify(event);
    drain_deferred_membership();
  }
}

bool Replica::maybe_resend_deal_decision(const std::string& label,
                                         const PartyId& to) {
  if (!journaling()) return false;
  for (const auto& stored : messages_.run(label)) {
    if (stored.direction == "sent" && stored.kind == "deal.decision") {
      record_anomaly("re-sent deal decision of closed run " + label, to);
      send_envelope(to, MsgType::kDealDecision, stored.payload);
      return true;
    }
  }
  return false;
}

std::optional<Bytes> Replica::derive_agreed_state(ResponderRun& run) {
  const Proposal& prop = run.propose.proposal;
  if (!prop.is_update) {
    if (crypto::Sha256::hash(run.propose.payload) ==
        prop.proposed.state_hash) {
      return run.propose.payload;
    }
    return std::nullopt;
  }
  // Update variant: apply the delta to a scratch copy of the agreed state.
  Bytes snapshot = impl_.get_state();
  try {
    impl_.apply_state(agreed_state_);
    impl_.apply_update(run.propose.payload);
    Bytes result = impl_.get_state();
    impl_.apply_state(snapshot);
    if (crypto::Sha256::hash(result) == prop.proposed.state_hash) {
      return result;
    }
  } catch (const std::exception&) {
    impl_.apply_state(snapshot);
  }
  return std::nullopt;
}

}  // namespace b2b::core
