#include "b2b/replica.hpp"

#include <algorithm>

#include "b2b/recovery.hpp"
#include "b2b/termination.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace b2b::core {

namespace {

/// An accept whose view fields agree with the proposal: only these count
/// towards agreement (an accept contradicting the proposal is internally
/// inconsistent content, §4.4).
bool consistent_accept(const Response& r, const Proposal& prop) {
  return r.decision.accept && r.agreed_view == prop.agreed &&
         r.current_view == prop.agreed && r.group_view == prop.group &&
         r.payload_integrity == prop.payload_hash;
}

}  // namespace

Replica::Replica(PartyId self, ObjectId object, B2BObject& impl,
                 const crypto::RsaPrivateKey& key, net::Rng& rng,
                 Callbacks callbacks)
    : self_(std::move(self)),
      object_(std::move(object)),
      impl_(impl),
      key_(key),
      rng_(rng),
      callbacks_(std::move(callbacks)) {}

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

void Replica::close_run(std::uint8_t type, const std::string& label) {
  if (journaling()) {
    wire::Encoder enc;
    enc.str(label);
    journal_record(type, std::move(enc).take());
    journal_barrier();
  }
  hit_crash_point("run.pre-seal");
  seal_evidence();
}

void Replica::seal_evidence() {
  if (callbacks_.seal_evidence) callbacks_.seal_evidence();
}

void Replica::record_evidence(const std::string& kind, const Bytes& payload,
                              const std::string& run_label) {
  callbacks_.record_evidence(kind, payload, run_label);
}

bool Replica::received_before(const std::string& label,
                              const std::string& kind,
                              const Bytes& body) const {
  const std::vector<Bytes> payloads = callbacks_.run_evidence(label, kind);
  return std::find(payloads.begin(), payloads.end(), body) != payloads.end();
}

bool Replica::maybe_resend_decide(const std::string& label,
                                  const PartyId& to) {
  if (!journaling()) return false;
  for (const RunFormat* format : {&RunFormat::of(1), &RunFormat::of(2)}) {
    std::vector<Bytes> sent = callbacks_.run_evidence(label, format->decide_sent);
    if (sent.empty()) continue;
    record_anomaly("re-sent decide of closed run " + label, to);
    send_envelope(to, format->decide, std::move(sent.back()));
    return true;
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
          if (!proposer_run_.has_value() || proposer_run_->label() != label) {
            return;  // run concluded; probe dies
          }
          // Re-drive recipients whose responses are still missing: either
          // our propose or their response was acked-then-lost in a crash
          // window, and retransmission alone cannot recover an acked frame.
          resend_propose_to_silent();
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
  record_evidence(evidence_kind::kViolation, std::move(enc).take());
  CoordEvent event;
  event.kind = CoordEvent::Kind::kViolationDetected;
  event.object = object_;
  event.party = suspect;
  event.detail = what;
  emit(event);
  B2B_INFO(self_, " detected violation: ", what, " (suspect ", suspect, ")");
}

void Replica::emit(const CoordEvent& event) {
  impl_.coord_callback(event);
  if (callbacks_.notify) callbacks_.notify(event);
}

void Replica::record_anomaly(const std::string& what, const PartyId& party) {
  wire::Encoder enc;
  enc.str(what).str(party.str());
  record_evidence("anomaly", std::move(enc).take());
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
    // idempotent, so neither evidence nor snapshot is duplicated.
    if (apply_to_object) impl_.apply_state(agreed_state_);
    return;
  }
  agreed_tuple_ = tuple;
  agreed_state_ = std::move(state);
  if (apply_to_object) impl_.apply_state(agreed_state_);
  if (!bookkeep) return;
  // The snapshot is the installed state's only durable image (§3's
  // checkpoint): replay restores the latest one, and rollback reads the
  // in-memory agreed state.
  record_evidence(evidence_kind::kStateInstalled, tuple.encode());
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
    out.push_back(proposer_run_->label());
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
  if (proposer_run_.has_value() && proposer_run_->label() == run_label) {
    // Abandoning our own proposal: roll the object back to agreed state.
    impl_.apply_state(agreed_state_);
    record_evidence(evidence_kind::kStateRolledBack, std::move(note).take());
    complete(proposer_run_->result, RunResult::Outcome::kAborted,
             "abandoned by extra-protocol resolution", {},
             proposer_run_->propose.proposal.proposed.sequence, run_label);
    proposer_run_.reset();
    close_run(walrec::kProposerClosed, run_label);
    return true;
  }
  if (auto it = responder_runs_.find(run_label); it != responder_runs_.end()) {
    record_evidence("run.abandoned", std::move(note).take());
    if (accept_lock_ == run_label) accept_lock_.reset();
    responder_runs_.erase(it);
    close_run(walrec::kResponderClosed, run_label);
    drain_deferred_membership();
    return true;
  }
  if (auto it = membership_responder_runs_.find(run_label);
      it != membership_responder_runs_.end()) {
    record_evidence("run.abandoned", std::move(note).take());
    membership_responder_runs_.erase(it);
    return true;
  }
  if (sponsor_run_.has_value() &&
      sponsor_run_->propose.proposal.new_group.label() == run_label) {
    record_evidence("run.abandoned", std::move(note).take());
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
  return snap;
}

// ---------------------------------------------------------------------------
// Journal-based recovery
// ---------------------------------------------------------------------------

Bytes Replica::ProposerRunRecord::encode() const {
  wire::Encoder enc;
  propose.encode_into(enc);
  encode_blob_list(enc, authenticators);
  encode_blob_list(enc, states);
  encode_party_list(enc, recipients);
  return std::move(enc).take();
}

Replica::ProposerRunRecord Replica::ProposerRunRecord::decode(BytesView data) {
  wire::Decoder dec{data};
  ProposerRunRecord record;
  record.propose = BatchProposeMsg::decode_from(dec);
  record.authenticators = decode_blob_list(dec);
  record.states = decode_blob_list(dec);
  record.recipients = decode_party_list(dec);
  dec.expect_done();
  if (record.authenticators.size() != record.propose.items.size() ||
      record.states.size() != record.propose.items.size()) {
    throw CodecError("proposer run record: item count mismatch");
  }
  return record;
}

Bytes Replica::ResponderRunRecord::encode() const {
  wire::Encoder enc;
  propose.encode_into(enc);
  encode_blob_list(enc, pending_states);
  enc.blob(my_response.encode());
  encode_party_list(enc, members_at_response);
  return std::move(enc).take();
}

Replica::ResponderRunRecord Replica::ResponderRunRecord::decode(
    BytesView data) {
  wire::Decoder dec{data};
  ResponderRunRecord record;
  record.propose = BatchProposeMsg::decode_from(dec);
  record.pending_states = decode_blob_list(dec);
  record.my_response = RespondMsg::decode(dec.blob());
  record.members_at_response = decode_party_list(dec);
  dec.expect_done();
  return record;
}

Bytes Replica::SponsorRunRecord::encode() const {
  wire::Encoder enc;
  enc.blob(propose.encode()).blob(authenticator);
  encode_party_list(enc, recipients);
  return std::move(enc).take();
}

Replica::SponsorRunRecord Replica::SponsorRunRecord::decode(BytesView data) {
  wire::Decoder dec{data};
  SponsorRunRecord record;
  record.propose = MembershipProposeMsg::decode(dec.blob());
  record.authenticator = dec.blob();
  record.recipients = decode_party_list(dec);
  dec.expect_done();
  return record;
}

Bytes Replica::MembershipResponderRunRecord::encode() const {
  wire::Encoder enc;
  enc.blob(propose.encode()).blob(my_response.encode());
  encode_party_list(enc, members_at_response);
  return std::move(enc).take();
}

Replica::MembershipResponderRunRecord
Replica::MembershipResponderRunRecord::decode(BytesView data) {
  wire::Decoder dec{data};
  MembershipResponderRunRecord record;
  record.propose = MembershipProposeMsg::decode(dec.blob());
  record.my_response = MembershipRespondMsg::decode(dec.blob());
  record.members_at_response = decode_party_list(dec);
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

void Replica::restore_recovered(const RecoveredObjectState& recovered) {
  if (recovered.snapshot.has_value()) {
    const ReplicaSnapshot& snap = *recovered.snapshot;
    connected_ = snap.connected;
    members_ = snap.members;
    group_tuple_ = snap.group_tuple;
    agreed_tuple_ = snap.agreed_tuple;
    agreed_state_ = snap.agreed_state;
    last_seen_seq_ = snap.last_seen_sequence;
    if (connected_) impl_.apply_state(agreed_state_);
  }
  // Replay protection covers every run the journal has ever seen: a
  // replayed label is a replay even after recovery.
  seen_run_labels_.insert(recovered.seen_labels.begin(),
                          recovered.seen_labels.end());
  note_sequence(recovered.max_sequence);

  if (recovered.proposer_run.has_value()) {
    ProposerRun run;
    static_cast<ProposerRunRecord&>(run) = *recovered.proposer_run;
    run.result = std::make_shared<RunResult>();
    for (const RespondMsg& resp : recovered.proposer_responses) {
      run.responses.emplace(resp.response.responder, resp);
    }
    // Invariant 2: while our proposal is open the local object holds the
    // proposed (final) state, not the agreed one.
    if (connected_) impl_.apply_state(run.states.back());
    auto staged = recovered.staged_runs.find(run.label());
    if (staged != recovered.staged_runs.end()) {
      run.deal_staged = true;
      run.deal_id = staged->second;
    }
    proposer_run_ = std::move(run);
    recovered_decide_ = recovered.proposer_decide;
  }

  for (const auto& [label, encoded] : recovered.deal_enlists) {
    try {
      deal_enlists_.emplace(label, DealEnlistMsg::decode(encoded));
    } catch (const CodecError&) {
      record_anomaly("undecodable journaled deal enlist for run " + label,
                     self_);
    }
  }

  for (const auto& [label, record] : recovered.responder_runs) {
    if (record.my_response.response.decision.accept) accept_lock_ = label;
    responder_runs_.emplace(label, record);
  }
  pending_redo_decides_ = recovered.responder_decides;
  restore_recovered_membership(recovered);

  record_evidence("recovery", agreed_tuple_.encode());
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

  // Proposer side.
  if (proposer_run_.has_value()) {
    handles.push_back(proposer_run_->result);
    const std::string label = proposer_run_->label();
    if (recovered_decide_.has_value()) {
      // The decide phase was journaled: redo it to the journaled outcome,
      // from the exact response set our previous incarnation decided
      // from. Re-sent decides are deduplicated by recipients. For a deal
      // leg this only happens after the deal decision itself was
      // journaled (commit_staged_run runs the same decide phase), so
      // redoing it unconditionally is correct — clear the staging flag.
      proposer_run_->deal_staged = false;
      BatchDecideMsg decide = std::move(*recovered_decide_);
      recovered_decide_.reset();
      proposer_run_->responses.clear();
      for (const RespondMsg& resp : decide.responses) {
        proposer_run_->responses.emplace(resp.response.responder, resp);
      }
      finish_run_as_proposer();
    } else if (proposer_run_->deal_staged) {
      // A staged deal leg is resumed by the deal layer (which re-drives
      // or aborts the whole deal), not by the per-run resume: neither
      // auto-finish nor re-send here.
    } else if (proposer_run_->responses.size() ==
               proposer_run_->recipients.size()) {
      finish_run_as_proposer();
    } else {
      // Still collecting responses: re-drive the silent recipients (our
      // propose, or their response, may have died with us) and re-arm
      // the capped probe.
      resend_propose_to_silent();
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
              ? (proposer_run_.has_value() && proposer_run_->label() == label)
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
      case MsgType::kBatchPropose:
        handle_propose(from, envelope.type, envelope.body);
        break;
      case MsgType::kRespond:
        handle_respond(from, envelope.body);
        break;
      case MsgType::kDecide:
      case MsgType::kBatchDecide:
        handle_decide(from, envelope.type, envelope.body);
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
  std::vector<BatchOp> ops;
  ops.push_back(BatchOp{false, std::move(new_state), {}});
  return open_run(std::move(ops), /*object_holds_proposal=*/true);
}

RunHandle Replica::propose_update(Bytes update, Bytes new_state) {
  std::vector<BatchOp> ops;
  ops.push_back(BatchOp{true, std::move(update), std::move(new_state)});
  return open_run(std::move(ops), /*object_holds_proposal=*/true);
}

RunHandle Replica::propose_batch(std::vector<BatchOp> ops) {
  return open_run(std::move(ops), /*object_holds_proposal=*/false);
}

RunHandle Replica::open_run(std::vector<BatchOp> ops,
                            bool object_holds_proposal,
                            const std::string& deal_id) {
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
    // A caller that already mutated the object for this (aborted)
    // proposal needs it restored to what the object must hold: our own
    // still-active proposal's state (invariant 2) if one is in flight,
    // else the agreed state.
    if (object_holds_proposal) {
      impl_.apply_state(proposer_run_.has_value() ? proposer_run_->states.back()
                                                  : agreed_state_);
    }
    complete(handle, RunResult::Outcome::kAborted,
             "busy: another coordination run is active", {}, 0, "");
    return handle;
  }

  // Build the hash-chained items, drawing one 32-byte authenticator per
  // item in exactly the order K sequential runs would draw them (the
  // bit-for-bit tuple-equivalence guarantee the pipeline battery pins).
  ProposerRun run;
  run.result = handle;
  run.deal_staged = !deal_id.empty();
  run.deal_id = deal_id;
  std::vector<BatchItem>& items = run.propose.items;
  const std::uint64_t first_sequence = next_sequence();
  crypto::Digest prev_state_hash = agreed_tuple_.state_hash;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    BatchOp& op = ops[i];
    Bytes state = op.is_update ? std::move(op.new_state) : op.payload;
    crypto::Digest state_hash = crypto::Sha256::hash(state);
    if (!op.is_update && state_hash == prev_state_hash) {
      complete(handle, RunResult::Outcome::kAborted, "null state transition",
               {}, 0, "");
      return handle;
    }
    Bytes authenticator = fresh_random();
    StateTuple proposed{first_sequence + i,
                        crypto::Sha256::hash(authenticator), state_hash};
    items.push_back(BatchItem{op.is_update, std::move(op.payload), proposed});
    run.authenticators.push_back(std::move(authenticator));
    run.states.push_back(std::move(state));
    prev_state_hash = state_hash;
  }

  Proposal& prop = run.propose.proposal;
  prop.proposer = self_;
  prop.object = object_;
  prop.group = group_tuple_;
  prop.agreed = agreed_tuple_;
  prop.proposed = items.back().proposed;
  // A batch is a composite delta; only a single item's flag is meaningful.
  prop.is_update = run.propose.format().batched || items.front().is_update;
  prop.payload_hash = run.propose.payload_digest();
  // ONE signature covers the whole run.
  run.propose.signature = key_.sign(run.propose.signed_bytes());

  note_sequence(prop.proposed.sequence);
  const std::string label = prop.proposed.label();
  for (const BatchItem& item : items) {
    seen_run_labels_.insert(item.proposed.label());
  }
  for (const PartyId& member : members_) {
    if (member != self_) run.recipients.push_back(member);
  }
  // Invariant 2: the proposer's object holds the proposed (final) state
  // while its run is open.
  if (!object_holds_proposal) impl_.apply_state(run.states.back());

  const RunFormat& format = run.propose.format();
  Bytes encoded = run.propose.encode();
  if (run.deal_staged) {
    hit_crash_point("deal-stage.pre-journal");
  } else {
    hit_crash_point("propose.pre-journal");
  }
  if (journaling()) {
    if (run.deal_staged) {
      // kDealStaged strictly BEFORE kProposerRun: a crash between the two
      // must never leave a bare proposer-run record, which the per-run
      // resume would re-drive as a standalone run and decide
      // independently of the (never-opened) deal — breaking
      // all-or-nothing. The reverse orphan (staged marker without a run)
      // is inert.
      wire::Encoder staged;
      staged.str(label).str(deal_id);
      journal_record(walrec::kDealStaged, std::move(staged).take());
    }
    wire::Encoder enc;
    enc.blob(run.encode());
    journal_record(walrec::kProposerRun, std::move(enc).take());
  }
  record_evidence(format.propose_sent, encoded, label);
  journal_barrier();
  if (run.deal_staged) {
    // Staged: the deal layer sends it (launch_staged_run) once the deal
    // is open, and decides it across all legs.
    proposer_run_ = std::move(run);
    return handle;
  }
  hit_crash_point("propose.journaled");

  if (run.recipients.empty()) {
    // Singleton group: trivially unanimous.
    install_run(items, std::move(run.states), /*apply_to_object=*/false,
                std::nullopt);
    close_run(walrec::kProposerClosed, label);
    complete(handle, RunResult::Outcome::kAgreed, "", {},
             prop.proposed.sequence, label);
    return handle;
  }

  bool first_send = true;
  for (const PartyId& recipient : run.recipients) {
    send_envelope(recipient, format.propose, encoded);
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

void Replica::resend_propose_to_silent() {
  const ProposerRun& run = *proposer_run_;
  Bytes encoded = run.propose.encode();
  for (const PartyId& recipient : run.recipients) {
    if (!run.responses.contains(recipient)) {
      send_envelope(recipient, run.propose.format().propose, encoded);
    }
  }
}

std::vector<bool> Replica::verify_responses(
    const std::vector<RespondMsg>& responses) const {
  std::vector<bool> ok;
  ok.reserve(responses.size());
  for (const RespondMsg& msg : responses) {
    const crypto::RsaPublicKey* pub = callbacks_.key_of(msg.response.responder);
    ok.push_back(pub != nullptr &&
                 pub->verify(msg.response.signed_bytes(), msg.signature));
  }
  return ok;
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
      if (maybe_resend_decide(stray_label, from) ||
          maybe_resend_deal_decision(stray_label, from)) {
        // A verified retry closes the run here once more, so it is sealed
        // like the close was; a forged one buys no RSA work.
        if (verify_responses({msg}).front()) seal_evidence();
        return;
      }
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
  if (!verify_responses({msg}).front()) {
    record_violation("bad signature on response", from);
    return;
  }
  const std::string label = resp.proposed.label();
  auto existing = run.responses.find(from);
  if (existing != run.responses.end()) {
    if (!(existing->second == msg)) {
      // Two different signed responses from the same party for the same
      // run: equivocation. Both are kept as evidence.
      record_evidence(evidence_kind::kRespondReceived, msg.encode());
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
  record_evidence(evidence_kind::kRespondReceived, msg.encode(), label);
  journal_barrier();
  hit_crash_point("response.journaled");
  run.responses.emplace(from, std::move(msg));

  if (run.responses.size() < run.recipients.size()) return;
  if (!run.deal_staged) {
    finish_run_as_proposer();
    return;
  }
  // Deal leg: the prepare is complete — park the response set undecided
  // and let the deal layer decide across all legs (DESIGN.md §12). The
  // hook runs under this shard's lock and may only touch deal-internal
  // state / schedule work.
  record_evidence(evidence_kind::kDealPrepared,
                  run.propose.proposal.proposed.encode());
  if (deal_hooks_.on_leg_prepared) {
    StagedRunStatus status = staged_run_status(label);
    deal_hooks_.on_leg_prepared(object_, label, status.all_accept,
                                status.vetoers);
  }
}

void Replica::finish_run_as_proposer() {
  ProposerRun run = std::move(*proposer_run_);
  proposer_run_.reset();
  const Proposal& prop = run.propose.proposal;
  const RunFormat& format = run.propose.format();
  const std::string label = prop.proposed.label();

  BatchDecideMsg decide;
  decide.proposer = self_;
  decide.object = object_;
  decide.proposed = prop.proposed;
  decide.authenticators = run.authenticators;
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
    } else if (!consistent_accept(r, prop)) {
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
    decide.encode_into(enc);
    journal_record(walrec::kDecideSent, std::move(enc).take());
  }
  record_evidence(format.decide_sent, encoded, label);
  journal_barrier();
  hit_crash_point("decide.journaled");
  bool first_send = true;
  for (const PartyId& recipient : run.recipients) {
    send_envelope(recipient, format.decide, encoded);
    if (first_send) {
      first_send = false;
      hit_crash_point("decide.mid-send");
    }
  }
  hit_crash_point("decide.sent");

  CoordEvent event;
  event.object = object_;
  event.party = self_;
  if (agreed) {
    // The proposer's object already holds the final state (invariant 2);
    // record every item as agreed and snapshot the last.
    event.kind = CoordEvent::Kind::kStateAgreed;
    install_run(run.propose.items, std::move(run.states),
                /*apply_to_object=*/false, event);
    // Under the majority rule, `vetoers` lists overridden dissenters.
    complete(run.result, RunResult::Outcome::kAgreed, "", std::move(vetoers),
             prop.proposed.sequence, label);
  } else {
    impl_.apply_state(agreed_state_);
    record_evidence(evidence_kind::kStateRolledBack, prop.proposed.encode());
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.sequence = prop.proposed.sequence;
    event.detail = first_diagnostic;
    emit(event);
    complete(run.result, RunResult::Outcome::kVetoed, first_diagnostic,
             std::move(vetoers), prop.proposed.sequence, label);
  }
  close_run(walrec::kProposerClosed, label);
  hit_crash_point("decide.installed");
  drain_deferred_membership();
}

void Replica::install_run(const std::vector<BatchItem>& items,
                          std::vector<Bytes> states, bool apply_to_object,
                          std::optional<CoordEvent> event) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    install_agreed_state(items[i].proposed, std::move(states[i]),
                         apply_to_object, /*bookkeep=*/i + 1 == items.size());
    if (event.has_value()) {
      event->sequence = items[i].proposed.sequence;
      emit(*event);
    }
  }
}

// ---------------------------------------------------------------------------
// State coordination — responder side (§4.3, checks of §4.4)
// ---------------------------------------------------------------------------

void Replica::handle_propose(const PartyId& from, MsgType type,
                             const Bytes& body) {
  BatchProposeMsg msg = BatchProposeMsg::decode(type, body);
  const Proposal& prop = msg.proposal;
  const RunFormat& format = msg.format();

  if (prop.proposer != from) {
    record_violation("proposal sender does not match proposer field", from);
    return;
  }
  const crypto::RsaPublicKey* pub = callbacks_.key_of(from);
  if (pub == nullptr || !pub->verify(msg.signed_bytes(), msg.signature)) {
    record_violation("bad signature on proposal", from);
    return;
  }
  if (msg.items.back().proposed != prop.proposed) {
    record_violation("proposal items inconsistent with head tuple", from);
    return;
  }
  // H(payload) for a single item; the recomputed chain head for a batch,
  // which a mutated, reordered or dropped item breaks.
  const crypto::Digest digest = msg.payload_digest();
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
    stale.payload_integrity = digest;
    stale.decision = Decision::rejected(
        connected_ ? "inconsistent group view"
                   : "recipient has disconnected from this group");
    RespondMsg out;
    out.response = stale;
    out.signature = key_.sign(stale.signed_bytes());
    record_evidence(evidence_kind::kRespondSent, out.encode());
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
  for (const BatchItem& item : msg.items) {
    seen_run_labels_.insert(item.proposed.label());
  }
  note_sequence(prop.proposed.sequence);
  hit_crash_point("respond.pre-journal");
  record_evidence(format.propose_received, msg.encode(), label);

  ResponderRun run;
  Decision decision = validate_run(msg, digest, &run.pending_states);
  if (!decision.accept) run.pending_states.clear();

  // ONE standard signed response answers the whole run.
  Response& resp = run.my_response.response;
  resp.responder = self_;
  resp.object = object_;
  resp.proposed = prop.proposed;
  resp.agreed_view = agreed_tuple_;
  resp.current_view = proposer_run_.has_value()
                          ? proposer_run_->propose.proposal.proposed
                          : agreed_tuple_;
  resp.group_view = group_tuple_;
  resp.payload_integrity = digest;
  resp.decision = decision;
  run.my_response.signature = key_.sign(resp.signed_bytes());
  run.propose = std::move(msg);
  run.members_at_response = members_;

  Bytes encoded = run.my_response.encode();
  if (journaling()) {
    wire::Encoder enc;
    enc.blob(run.encode());
    journal_record(walrec::kResponderRun, std::move(enc).take());
  }
  responder_runs_.emplace(label, std::move(run));
  if (decision.accept) accept_lock_ = label;

  record_evidence(evidence_kind::kRespondSent, encoded, label);
  journal_barrier();
  hit_crash_point("respond.journaled");
  send_envelope(from, MsgType::kRespond, encoded);
  arm_deadline(label, /*as_proposer=*/false);
  arm_run_probe(label, /*as_proposer=*/false, 1);
  hit_crash_point("respond.sent");
}

Decision Replica::validate_run(const BatchProposeMsg& msg,
                               const crypto::Digest& digest,
                               std::vector<Bytes>* states) {
  const Proposal& prop = msg.proposal;
  if (prop.group != group_tuple_) {
    return Decision::rejected("inconsistent group view");
  }
  if (prop.agreed != agreed_tuple_) {
    return Decision::rejected("inconsistent agreed-state view");
  }
  // §4.4: the run must advance past the agreed state (its later items
  // follow one by one, checked below).
  if (msg.items.front().proposed.sequence <= agreed_tuple_.sequence) {
    return Decision::rejected("sequence number did not advance");
  }
  if (digest != prop.payload_hash) {
    // The unsigned payload was modified in flight or at source (§4.4).
    record_violation("payload does not match signed hash", prop.proposer);
    return Decision::rejected("payload integrity failure");
  }
  // Item i is judged with the object holding the state item i-1 produced,
  // exactly as i sequential runs would judge it; the object's own state
  // is restored afterwards.
  std::optional<Bytes> original;
  Decision decision = Decision::accepted();
  for (std::size_t i = 0; i < msg.items.size(); ++i) {
    const BatchItem& item = msg.items[i];
    crypto::Digest prev_state_hash = agreed_tuple_.state_hash;
    if (i > 0) {
      const StateTuple& prev = msg.items[i - 1].proposed;
      if (item.proposed.sequence != prev.sequence + 1) {
        record_violation("batch sequence numbers not consecutive",
                         prop.proposer);
        decision = Decision::rejected("batch sequence numbers not consecutive");
        break;
      }
      prev_state_hash = prev.state_hash;
      if (!original.has_value()) original = impl_.get_state();
      impl_.apply_state(states->back());
    }
    Bytes state;
    decision = evaluate_proposal(prop, item, prev_state_hash, &state);
    if (!decision.accept) break;
    states->push_back(std::move(state));
  }
  if (original.has_value()) impl_.apply_state(*original);
  return decision;
}

Decision Replica::evaluate_proposal(const Proposal& prop,
                                    const BatchItem& item,
                                    const crypto::Digest& prev_state_hash,
                                    Bytes* state_out) {
  if (!item.is_update) {
    if (item.proposed.state_hash != crypto::Sha256::hash(item.payload)) {
      record_violation("overwrite proposal internally inconsistent",
                       prop.proposer);
      return Decision::rejected("proposal internally inconsistent");
    }
    if (item.proposed.state_hash == prev_state_hash) {
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
  ctx.sequence = item.proposed.sequence;

  if (item.is_update) {
    // Apply the update to a scratch incarnation of the object to confirm
    // that "if the update is agreed and applied, a consistent new state
    // will result" (§4.3.1), then validate the result.
    Bytes snapshot = impl_.get_state();
    Bytes resulting;
    try {
      impl_.apply_update(item.payload);
      resulting = impl_.get_state();
    } catch (const std::exception& e) {
      impl_.apply_state(snapshot);
      return Decision::rejected(std::string("update not applicable: ") +
                                e.what());
    }
    impl_.apply_state(snapshot);
    if (crypto::Sha256::hash(resulting) != item.proposed.state_hash) {
      record_violation("update does not yield the proposed state",
                       prop.proposer);
      return Decision::rejected("update does not yield the proposed state");
    }
    Decision decision = impl_.validate_update(item.payload, resulting, ctx);
    if (decision.accept) *state_out = std::move(resulting);
    return decision;
  }

  Decision decision = impl_.validate_state(item.payload, ctx);
  if (decision.accept) *state_out = item.payload;
  return decision;
}

void Replica::handle_decide(const PartyId& from, MsgType type,
                            const Bytes& body) {
  if (!connected_) return;
  BatchDecideMsg msg = BatchDecideMsg::decode(type, body);
  const std::string label = msg.proposed.label();

  auto it = responder_runs_.find(label);
  if (it == responder_runs_.end()) {
    // Either we never saw the proposal (selective sending, §4.4), we
    // answered it from outside the group, or this is a duplicate of a
    // finished run: evidence-worthy, but explainable by benign races.
    record_anomaly("decide for unknown or finished run " + label, from);
    // The very decide this run closed on, sent again (a recovering
    // proposer re-drives its run): sealed like the close was. A forged
    // decide buys no RSA work.
    if (received_before(label, msg.format().decide_received, msg.encode())) {
      seal_evidence();
    }
    return;
  }
  const BatchProposeMsg& propose = it->second.propose;
  if (msg.authenticators.size() != propose.items.size()) {
    // A run closes only with the decide of its own format: a single-run
    // decide cannot authenticate a batch's intermediate items (it would
    // install a hole in the sequence), and vice versa.
    record_violation("decide of the wrong format for run " + label, from);
    return;
  }
  if (msg.proposer != propose.proposal.proposer ||
      from != propose.proposal.proposer) {
    record_violation("decide not from the proposer", from);
    return;
  }
  // EVERY item's authenticator must be revealed and check out: only the
  // proposer can produce them, and each sub-tuple is installed on the
  // strength of its own. A mismatch means forgery; the run stays active
  // (we keep waiting for the genuine decide).
  for (std::size_t i = 0; i < propose.items.size(); ++i) {
    if (crypto::Sha256::hash(msg.authenticators[i]) !=
        propose.items[i].proposed.rand_hash) {
      record_violation("decide authenticator mismatch (forgery)", from);
      return;
    }
  }
  hit_crash_point("decide-recv.pre-journal");
  if (journaling()) {
    wire::Encoder enc;
    msg.encode_into(enc);
    journal_record(walrec::kDecideDelivered, std::move(enc).take());
  }
  record_evidence(msg.format().decide_received, msg.encode(), label);
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
  const std::vector<bool> signed_ok = verify_responses(responses);
  bool intact = true;
  std::size_t consistent_accepts = 0;
  std::size_t expected_recipients = 0;
  std::set<PartyId> responders;
  bool any_reject = false;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const RespondMsg& resp_msg = responses[i];
    const Response& resp = resp_msg.response;
    if (!resp.decision.accept) any_reject = true;
    if (!signed_ok[i]) {
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
    if (consistent_accept(resp, prop)) ++consistent_accepts;
    if (resp.responder == self_ && !(resp_msg == run.my_response)) {
      record_violation("own response misrepresented in decide", from);
      intact = false;
    }
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
  if (agreed) {
    std::optional<std::vector<Bytes>> to_install;
    if (run.my_response.response.decision.accept &&
        run.pending_states.size() == run.propose.items.size()) {
      to_install = std::move(run.pending_states);
    } else {
      // Majority rule overrode our veto: derive the agreed states from the
      // proposal we hold (never install anything whose hash we cannot
      // confirm against the agreed tuples).
      to_install = derive_agreed_states(run.propose);
    }
    if (to_install.has_value()) {
      event.kind = CoordEvent::Kind::kStateInstalled;
      install_run(run.propose.items, std::move(*to_install),
                  /*apply_to_object=*/true, event);
    } else {
      // Our local copy of the payload cannot reproduce the agreed state
      // (e.g. we rejected it for integrity). We hold the evidence but need
      // an out-of-band state transfer to catch up.
      record_evidence("state.transfer-required", prop.proposed.encode());
      B2B_WARN(self_, " cannot materialise agreed state for run ", label);
    }
  } else {
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.sequence = prop.proposed.sequence;
    emit(event);
  }

  if (accept_lock_ == label) accept_lock_.reset();
  close_run(walrec::kResponderClosed, label);
  hit_crash_point("decide-recv.installed");
  drain_deferred_membership();
}

std::optional<std::vector<Bytes>> Replica::derive_agreed_states(
    const BatchProposeMsg& propose) {
  std::vector<Bytes> states;
  states.reserve(propose.items.size());
  Bytes snapshot = impl_.get_state();
  try {
    for (const BatchItem& item : propose.items) {
      Bytes state;
      if (item.is_update) {
        // Apply the delta to a scratch copy of the previous state.
        impl_.apply_state(states.empty() ? agreed_state_ : states.back());
        impl_.apply_update(item.payload);
        state = impl_.get_state();
      } else {
        state = item.payload;
      }
      if (crypto::Sha256::hash(state) != item.proposed.state_hash) break;
      states.push_back(std::move(state));
    }
  } catch (const std::exception&) {
    // An inapplicable update leaves `states` short: nothing is derived.
  }
  impl_.apply_state(snapshot);
  if (states.size() != propose.items.size()) return std::nullopt;
  return states;
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
  // A §7 verdict certifies one tuple: batches (K >= 2) are never referred.
  const BatchProposeMsg& propose = as_proposer
                                       ? proposer_run_->propose
                                       : responder_runs_.at(label).propose;
  if (propose.format().batched) return;
  callbacks_.schedule(ttp_->deadline_micros, [this, label, as_proposer] {
    bool still_active =
        as_proposer
            ? (proposer_run_.has_value() && proposer_run_->label() == label)
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
    request.propose = run.propose.single();
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
  record_evidence("ttp.request", request.encode());
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
  record_evidence(verdict.kind == TerminationVerdict::Kind::kAbort
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
      record_evidence(evidence_kind::kStateRolledBack,
                      verdict.proposed.encode());
      complete(run.result, RunResult::Outcome::kAborted,
               "TTP-certified abort", {}, verdict.proposed.sequence, label);
    } else {
      // A certified decision carries the full verified response set; we
      // conclude exactly as if we had assembled the decide ourselves.
      const Proposal& prop = run.propose.proposal;
      const std::vector<bool> signed_ok = verify_responses(verdict.responses);
      std::size_t consistent_accepts = 0;
      for (std::size_t i = 0; i < verdict.responses.size(); ++i) {
        const Response& r = verdict.responses[i].response;
        if (signed_ok[i] && r.proposed == prop.proposed &&
            consistent_accept(r, prop)) {
          ++consistent_accepts;
        }
      }
      bool agreed = group_accepts(consistent_accepts, run.recipients.size());
      if (agreed) {
        install_run(run.propose.items, std::move(run.states),
                    /*apply_to_object=*/false, std::nullopt);
        complete(run.result, RunResult::Outcome::kAgreed,
                 "TTP-certified decision", {}, prop.proposed.sequence, label);
      } else {
        impl_.apply_state(agreed_state_);
        complete(run.result, RunResult::Outcome::kVetoed,
                 "TTP-certified decision: vetoed", {}, prop.proposed.sequence,
                 label);
      }
    }
    close_run(walrec::kProposerClosed, label);
    return;
  }

  // Responder side.
  auto it = responder_runs_.find(label);
  if (it == responder_runs_.end()) return;  // already resolved normally
  ResponderRun run = std::move(it->second);
  responder_runs_.erase(it);
  if (verdict.kind == TerminationVerdict::Kind::kAbort) {
    if (accept_lock_ == label) accept_lock_.reset();
    close_run(walrec::kResponderClosed, label);
    CoordEvent event;
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.object = object_;
    event.party = run.propose.proposal.proposer;
    event.sequence = verdict.proposed.sequence;
    event.detail = "TTP-certified abort";
    emit(event);
    drain_deferred_membership();
    return;
  }
  conclude_responder_run(label, std::move(run), verdict.responses, from);
}

// ---------------------------------------------------------------------------
// Deal legs (DESIGN.md §12)
// ---------------------------------------------------------------------------

bool Replica::staged(const std::string& label) const {
  return proposer_run_.has_value() && proposer_run_->deal_staged &&
         proposer_run_->label() == label;
}

Replica::StagedLeg Replica::stage_deal_run(bool is_update, Bytes payload,
                                           Bytes new_state,
                                           const std::string& deal_id) {
  BatchOp op{is_update, std::move(payload), std::move(new_state)};
  if (!is_update) op.payload = op.new_state;  // an overwrite's payload IS it
  std::vector<BatchOp> ops;
  ops.push_back(std::move(op));
  StagedLeg leg;
  leg.handle = open_run(std::move(ops), /*object_holds_proposal=*/false,
                        deal_id);
  if (leg.handle->done()) return leg;
  leg.label = proposer_run_->label();
  leg.proposed = proposer_run_->propose.proposal.proposed;
  leg.recipient_count = proposer_run_->recipients.size();
  return leg;
}

void Replica::launch_staged_run(const std::string& label,
                                const DealEnlistMsg& enlist) {
  if (!staged(label)) {
    return;
  }
  ProposerRun& run = *proposer_run_;
  const MsgType propose_type = run.propose.format().propose;
  Bytes encoded = run.propose.encode();
  Bytes enlist_encoded = enlist.encode();
  bool first_send = true;
  for (const PartyId& recipient : run.recipients) {
    send_envelope(recipient, propose_type, encoded);
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
  if (!staged(label)) {
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
    send_envelope(recipient, MsgType::kDealDecision, encoded);
  }
  run.deal_staged = false;
  finish_run_as_proposer();
}

void Replica::abort_staged_run(const std::string& label,
                               const DealDecisionMsg& decision) {
  if (!staged(label)) {
    return;
  }
  ProposerRun run = std::move(*proposer_run_);
  proposer_run_.reset();
  const Proposal& prop = run.propose.proposal;
  Bytes encoded = decision.encode();
  for (const PartyId& recipient : run.recipients) {
    send_envelope(recipient, MsgType::kDealDecision, encoded);
  }
  impl_.apply_state(agreed_state_);
  record_evidence(evidence_kind::kStateRolledBack, prop.proposed.encode());
  complete(run.result, RunResult::Outcome::kAborted,
           decision.decision.diagnostic.empty()
               ? "deal aborted"
               : decision.decision.diagnostic,
           {}, prop.proposed.sequence, label);
  close_run(walrec::kProposerClosed, label);
  drain_deferred_membership();
}

void Replica::cancel_staged_run(const std::string& label) {
  if (!staged(label)) {
    return;
  }
  ProposerRun run = std::move(*proposer_run_);
  proposer_run_.reset();
  impl_.apply_state(agreed_state_);
  record_evidence(evidence_kind::kStateRolledBack,
                  run.propose.proposal.proposed.encode());
  complete(run.result, RunResult::Outcome::kAborted,
           "deal never opened: staged leg cancelled", {},
           run.propose.proposal.proposed.sequence, label);
  close_run(walrec::kProposerClosed, label);
  drain_deferred_membership();
}

bool Replica::resume_staged_run(const std::string& label,
                                const DealEnlistMsg& enlist) {
  if (!staged(label)) {
    return false;
  }
  ProposerRun& run = *proposer_run_;
  Bytes encoded = run.propose.encode();
  Bytes enlist_encoded = enlist.encode();
  for (const PartyId& recipient : run.recipients) {
    if (run.responses.contains(recipient)) continue;
    send_envelope(recipient, run.propose.format().propose, encoded);
    send_envelope(recipient, MsgType::kDealEnlist, enlist_encoded);
  }
  arm_run_probe(label, /*as_proposer=*/true, 1);
  arm_deadline(label, /*as_proposer=*/true);
  return true;
}

Replica::StagedRunStatus Replica::staged_run_status(
    const std::string& label) const {
  StagedRunStatus status;
  if (!staged(label)) {
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
    if (!consistent_accept(it->second.response, prop)) {
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
  return std::make_pair(proposer_run_->label(),
                        proposer_run_->deal_id);
}

std::optional<TerminationRequest> Replica::staged_termination_request(
    const std::string& label) const {
  if (!staged(label)) {
    return std::nullopt;
  }
  const ProposerRun& run = *proposer_run_;
  TerminationRequest request;
  request.requester = self_;
  request.object = object_;
  request.proposed = run.propose.proposal.proposed;
  request.propose = run.propose.single();
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
      record_evidence(evidence_kind::kDealEnlistReceived, body);
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
  record_evidence(evidence_kind::kDealEnlistReceived, body, label);
  journal_barrier();
  hit_crash_point("deal-enlist-recv.journaled");
  deal_enlists_.emplace(label, std::move(msg));
  // The leg's propose precedes its enlist, so the run is normally open
  // here and its close seals this record. A first enlist for a run that
  // is not open (closed before a re-sent enlist arrived, or never opened
  // here) is sealed now; a signed enlist is recorded once per run.
  if (!responder_runs_.contains(label)) seal_evidence();
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
      record_evidence(evidence_kind::kDealDecisionReceived, body);
      record_violation(
          "equivocating deal decision for " + decision.deal_id, from);
      return;
    }
  } else {
    deal_decisions_seen_.emplace(decision.deal_id, msg);
    // Filed under this object's leg (a deal has at most one per object).
    std::string leg_label;
    for (const DealLeg& leg : decision.legs) {
      if (leg.object == object_) leg_label = leg.proposed.label();
    }
    record_evidence(evidence_kind::kDealDecisionReceived, body, leg_label);
    // The deal closed here: its verified decision is on record (a commit
    // leg's own run may have closed before the decision arrived).
    seal_evidence();
  }

  for (const DealLeg& leg : decision.legs) {
    if (leg.object != object_) continue;
    const std::string label = leg.proposed.label();
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
    close_run(walrec::kResponderClosed, label);
    hit_crash_point("deal-abort-recv.journaled");
    CoordEvent event;
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.object = object_;
    event.party = from;
    event.sequence = leg.proposed.sequence;
    event.detail = "deal aborted: " + decision.diagnostic;
    emit(event);
    drain_deferred_membership();
  }
}

bool Replica::maybe_resend_deal_decision(const std::string& label,
                                         const PartyId& to) {
  if (!journaling()) return false;
  // The newest initiator decision is the one the legs were sent: a
  // TTP-certified abort supersedes the commit registered before it.
  std::vector<Bytes> decisions =
      callbacks_.run_evidence(label, evidence_kind::kDealDecision);
  if (decisions.empty()) return false;
  record_anomaly("re-sent deal decision of closed run " + label, to);
  send_envelope(to, MsgType::kDealDecision, std::move(decisions.back()));
  return true;
}

}  // namespace b2b::core
