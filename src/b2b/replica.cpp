#include "b2b/replica.hpp"

#include <algorithm>

#include "b2b/recovery.hpp"
#include "b2b/termination.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace b2b::core {

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
  for (const RunFormat* format :
       {&RunFormat::of(1), &RunFormat::of(2), &RunFormat::membership()}) {
    std::vector<Bytes> sent =
        callbacks_.run_evidence(label, format->decide_sent);
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (RunDecide::decode(format->decide, *it).proposer() != self_) continue;
      record_anomaly(std::string("re-sent ") + format->kind +
                         "decide of closed run " + label,
                     to);
      send_envelope(to, format->decide, std::move(*it));
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
          const RunPropose& propose = it->second.propose;
          send_envelope(propose.proposer(), propose.format().respond,
                        it->second.my_response.encode());
        }
        arm_run_probe(label, as_proposer, attempt + 1);
      });
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

std::uint64_t Replica::next_sequence() { return last_seen_seq_ + 1; }

bool Replica::group_accepts(std::size_t accepts, std::size_t recipients,
                            const RunFormat& format) const {
  if (decision_rule_ == DecisionRule::kUnanimous || format.unanimous) {
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

void Replica::abort_proposer_run(const std::string& diagnostic,
                                 const Bytes& note) {
  ProposerRun run = std::move(*proposer_run_);
  proposer_run_.reset();
  const std::string label = run.label();
  // Roll the object back to the agreed state; a run that proposed no
  // state is abandoned instead.
  impl_.apply_state(agreed_state_);
  record_evidence(run.states.empty() ? "run.abandoned"
                                     : evidence_kind::kStateRolledBack,
                  note);
  complete(run.result, RunResult::Outcome::kAborted, diagnostic, {},
           run.propose.sequence(), label);
  close_run(walrec::kProposerClosed, label);
  drain_deferred_membership();
}

const Bytes& Replica::held_state() const {
  return proposer_run_.has_value() && !proposer_run_->states.empty()
             ? proposer_run_->states.back()
             : agreed_state_;
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
  return out;
}

bool Replica::busy() const {
  // NB: a pending subject request (our own connect/disconnect awaiting its
  // sponsor) deliberately does NOT make us busy: it locks no local state,
  // and counting it would deadlock two concurrent departures whose
  // removal runs each need the other subject's response.
  return proposer_run_.has_value() ||
         std::any_of(responder_runs_.begin(), responder_runs_.end(),
                     [](const auto& entry) { return entry.second.locks(); });
}

bool Replica::resolve_blocked_run(const std::string& run_label) {
  wire::Encoder note;
  note.str(run_label).str(self_.str());
  if (proposer_run_.has_value() && proposer_run_->label() == run_label) {
    abort_proposer_run("abandoned by extra-protocol resolution",
                       std::move(note).take());
    return true;
  }
  if (auto it = responder_runs_.find(run_label); it != responder_runs_.end()) {
    record_evidence("run.abandoned", std::move(note).take());
    responder_runs_.erase(it);
    close_run(walrec::kResponderClosed, run_label);
    drain_deferred_membership();
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
  record.propose = RunPropose::decode_from(dec);
  record.authenticators = decode_blob_list(dec);
  record.states = decode_blob_list(dec);
  record.recipients = decode_party_list(dec);
  dec.expect_done();
  const BatchProposeMsg* state = record.propose.state();
  if (record.authenticators.size() != record.propose.rand_hashes().size() ||
      record.states.size() != (state != nullptr ? state->items.size() : 0)) {
    throw CodecError("proposer run record: item count mismatch");
  }
  return record;
}

Bytes Replica::ResponderRunRecord::encode() const {
  wire::Encoder enc;
  propose.encode_into(enc);
  encode_blob_list(enc, pending_states);
  my_response.encode_into(enc);
  encode_party_list(enc, members_at_response);
  return std::move(enc).take();
}

Replica::ResponderRunRecord Replica::ResponderRunRecord::decode(
    BytesView data) {
  wire::Decoder dec{data};
  ResponderRunRecord record;
  record.propose = RunPropose::decode_from(dec);
  record.pending_states = decode_blob_list(dec);
  record.my_response = RunResponse::decode_from(dec);
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
    run.responses = recovered.proposer_responses;
    proposer_run_ = std::move(run);
    // Invariant 2: while our proposal is open the local object holds the
    // proposed (final) state, not the agreed one.
    if (connected_) impl_.apply_state(held_state());
    auto staged = recovered.staged_runs.find(proposer_run_->label());
    if (staged != recovered.staged_runs.end()) {
      proposer_run_->deal_staged = true;
      proposer_run_->deal_id = staged->second;
    }
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

  responder_runs_.insert(recovered.responder_runs.begin(),
                         recovered.responder_runs.end());
  pending_redo_decides_ = recovered.responder_decides;

  for (const std::string& nonce : recovered.processed_nonces) {
    sponsor_nonces_.insert(nonce);
  }
  subject_answers_ = recovered.subject_answers;
  if (recovered.subject_request.has_value()) {
    pending_subject_record_ = recovered.subject_request;
    if (recovered.subject_request->relayed_eviction) {
      relayed_eviction_nonce_ =
          to_hex(recovered.subject_request->request.request_nonce);
      relayed_eviction_result_ = std::make_shared<RunResult>();
    } else {
      subject_request_ = SubjectRequest{recovered.subject_request->request,
                                        std::make_shared<RunResult>()};
    }
  }
  recovered_termination_submissions_ = recovered.termination_submissions;
  pending_redo_verdicts_ = recovered.verdicts;

  record_evidence("recovery", agreed_tuple_.encode());
}

std::vector<RunHandle> Replica::resume_recovered_runs() {
  std::vector<RunHandle> handles;

  // TTP verdicts journaled as delivered but possibly not acted on: redo
  // them first — they may close runs outright, before any re-drive.
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

  // Responder-side redo: a decide that was journaled as delivered but
  // whose installation may have been interrupted. conclude is idempotent
  // (install_agreed_state skips an already-installed state).
  auto redo_decides = std::move(pending_redo_decides_);
  pending_redo_decides_.clear();
  for (const auto& [label, decide] : redo_decides) {
    auto it = responder_runs_.find(label);
    if (it == responder_runs_.end()) continue;
    ResponderRun run = std::move(it->second);
    responder_runs_.erase(it);
    conclude_responder_run(label, std::move(run), decide.responses(),
                           decide.proposer());
  }

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
      RunDecide decide = std::move(*recovered_decide_);
      recovered_decide_.reset();
      proposer_run_->responses.clear();
      for (const RunResponse& resp : decide.responses()) {
        proposer_run_->responses.emplace(resp.responder(), resp);
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
    send_envelope(run.propose.proposer(), run.propose.format().respond,
                  run.my_response.encode());
    arm_run_probe(label, /*as_proposer=*/false, 1);
    arm_deadline(label, /*as_proposer=*/false);
  }

  // Subject side: re-probe the sponsor under the ORIGINAL nonce; the
  // answer (welcome/reject/confirm or the relayed decide) concludes it.
  if (pending_subject_record_.has_value()) {
    if (pending_subject_record_->relayed_eviction) {
      if (relayed_eviction_result_.has_value()) {
        handles.push_back(*relayed_eviction_result_);
      }
    } else if (subject_request_.has_value()) {
      handles.push_back(subject_request_->result);
    }
    std::string nonce_key =
        to_hex(pending_subject_record_->request.request_nonce);
    resend_subject_request();
    arm_subject_probe(std::move(nonce_key), 1);
  }

  // Re-fetch TTP decisions for referrals our previous incarnation had
  // journaled: the TTP caches exactly one verdict per run, so a
  // resubmission is a re-fetch of whatever it already decided, never a
  // second decision.
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
      case MsgType::kMembershipPropose:
        handle_propose(from, envelope.type, envelope.body);
        break;
      case MsgType::kRespond:
      case MsgType::kMembershipRespond:
        handle_respond(from, envelope.type, envelope.body);
        break;
      case MsgType::kDecide:
      case MsgType::kBatchDecide:
      case MsgType::kMembershipDecide:
        handle_decide(from, envelope.type, envelope.body);
        break;
      case MsgType::kConnectRequest:
        handle_connect_request(from, envelope.body);
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
// The run engine — proposer side (§4.3, §4.5)
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
    if (object_holds_proposal) impl_.apply_state(held_state());
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
  BatchProposeMsg propose;
  std::vector<BatchItem>& items = propose.items;
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

  Proposal& prop = propose.proposal;
  prop.proposer = self_;
  prop.object = object_;
  prop.group = group_tuple_;
  prop.agreed = agreed_tuple_;
  prop.proposed = items.back().proposed;
  // A batch is a composite delta; only a single item's flag is meaningful.
  prop.is_update = propose.format().batched || items.front().is_update;
  prop.payload_hash = propose.payload_digest();
  // ONE signature covers the whole run.
  propose.signature = key_.sign(propose.signed_bytes());
  run.propose.msg = std::move(propose);
  for (const PartyId& member : members_) {
    if (run.propose.asks(member)) run.recipients.push_back(member);
  }
  // Invariant 2: the proposer's object holds the proposed (final) state
  // while its run is open.
  if (!object_holds_proposal) impl_.apply_state(run.states.back());

  if (!journal_run_open(run)) return handle;
  if (run.recipients.empty()) {
    // Singleton group: trivially unanimous, and no one to tell.
    const std::string label = run.label();
    install_run(run.propose.state()->items, std::move(run.states),
                /*apply_to_object=*/false, std::nullopt);
    close_run(walrec::kProposerClosed, label);
    complete(handle, RunResult::Outcome::kAgreed, "", {},
             run.propose.sequence(), label);
    return handle;
  }
  send_run_open(std::move(run));
  return handle;
}

bool Replica::journal_run_open(ProposerRun& run) {
  note_sequence(run.propose.sequence());
  for (const std::string& label : run.propose.labels()) {
    seen_run_labels_.insert(label);
  }
  const std::string label = run.label();
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
      staged.str(label).str(run.deal_id);
      journal_record(walrec::kDealStaged, std::move(staged).take());
    }
    wire::Encoder enc;
    enc.blob(run.encode());
    journal_record(walrec::kProposerRun, std::move(enc).take());
  }
  record_evidence(run.propose.format().propose_sent, encoded, label);
  journal_barrier();
  if (run.deal_staged) {
    // Staged: the deal layer sends it (launch_staged_run) once the deal
    // is open, and decides it across all legs.
    proposer_run_ = std::move(run);
    return false;
  }
  hit_crash_point("propose.journaled");
  return true;
}

void Replica::send_run_open(ProposerRun run) {
  const std::string label = run.label();
  const MsgType type = run.propose.format().propose;
  Bytes encoded = run.propose.encode();
  bool first_send = true;
  for (const PartyId& recipient : run.recipients) {
    send_envelope(recipient, type, encoded);
    if (first_send) {
      first_send = false;
      hit_crash_point("propose.mid-send");
    }
  }
  proposer_run_ = std::move(run);
  arm_deadline(label, /*as_proposer=*/true);
  arm_run_probe(label, /*as_proposer=*/true, 1);
  hit_crash_point("propose.sent");
  if (proposer_run_->recipients.empty()) finish_run_as_proposer();
}

void Replica::resend_propose_to_silent(const Bytes& enlist) {
  const ProposerRun& run = *proposer_run_;
  Bytes encoded = run.propose.encode();
  for (const PartyId& recipient : run.recipients) {
    if (run.responses.contains(recipient)) continue;
    send_envelope(recipient, run.propose.format().propose, encoded);
    if (!enlist.empty()) {
      send_envelope(recipient, MsgType::kDealEnlist, enlist);
    }
  }
}

bool Replica::response_signed(const RunResponse& response) const {
  return response.signed_by(callbacks_.key_of(response.responder()));
}

void Replica::handle_respond(const PartyId& from, MsgType type,
                             const Bytes& body) {
  RunResponse msg = RunResponse::decode(type, body);
  const RunFormat& format = msg.format();
  const std::string kind = format.kind;

  if (msg.responder() != from) {
    record_violation(kind + "response sender does not match responder field",
                     from);
    return;
  }
  if (!proposer_run_.has_value() || !msg.answers(proposer_run_->propose)) {
    const std::string stray_label = msg.label();
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
        if (response_signed(msg)) seal_evidence();
        return;
      }
      record_anomaly(kind + "response for closed run " + stray_label, from);
      return;
    }
    record_violation(kind + "response for no active run (stray or replayed)",
                     from);
    return;
  }
  ProposerRun& run = *proposer_run_;
  if (std::find(run.recipients.begin(), run.recipients.end(), from) ==
      run.recipients.end()) {
    record_violation(kind + "response from non-recipient", from);
    return;
  }
  if (!response_signed(msg)) {
    record_violation("bad signature on " + kind + "response", from);
    return;
  }
  const std::string label = run.label();
  auto existing = run.responses.find(from);
  if (existing != run.responses.end()) {
    if (!(existing->second == msg)) {
      // Two different signed responses from the same party for the same
      // run: equivocation. Both are kept as evidence.
      record_evidence(format.respond_received, msg.encode());
      record_violation("equivocating " + kind + "responses", from);
    }
    return;
  }

  hit_crash_point("response.pre-journal");
  if (journaling()) {
    wire::Encoder enc;
    msg.encode_into(enc);
    journal_record(walrec::kResponseReceived, std::move(enc).take());
  }
  record_evidence(format.respond_received, msg.encode(), label);
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
                  run.propose.state()->proposal.proposed.encode());
  if (deal_hooks_.on_leg_prepared) {
    StagedRunStatus status = staged_run_status(label);
    deal_hooks_.on_leg_prepared(object_, label, status.all_accept,
                                status.vetoers);
  }
}

void Replica::finish_run_as_proposer() {
  ProposerRun run = std::move(*proposer_run_);
  proposer_run_.reset();
  const RunFormat& format = run.propose.format();
  const std::string label = run.label();

  // Tally: a reject vetoes, and so does an accept that contradicts the
  // proposal (§4.4).
  std::vector<RunResponse> responses;
  std::vector<PartyId> vetoers;
  std::string first_diagnostic;
  std::size_t consistent_accepts = 0;
  for (const PartyId& recipient : run.recipients) {
    const RunResponse& resp = run.responses.at(recipient);
    responses.push_back(resp);
    if (resp.consistent_accept(run.propose)) {
      ++consistent_accepts;
      continue;
    }
    vetoers.push_back(recipient);
    if (!resp.decision().accept) {
      if (first_diagnostic.empty()) {
        first_diagnostic = resp.decision().diagnostic;
      }
      continue;
    }
    record_violation(std::string("inconsistent accept ") + format.kind +
                         "response",
                     recipient);
    if (first_diagnostic.empty()) {
      first_diagnostic = std::string("inconsistent accept ") + format.kind +
                         "response from " + recipient.str();
    }
  }
  const bool agreed =
      group_accepts(consistent_accepts, run.recipients.size(), format);
  const RunDecide decide =
      RunDecide::of(run.propose, self_, responses, run.authenticators);

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

  std::visit(
      [&](const auto& propose) {
        proposer_outcome(propose, run, agreed, std::move(vetoers),
                         first_diagnostic, decide);
      },
      run.propose.msg);
  close_run(walrec::kProposerClosed, label);
  hit_crash_point("decide.installed");
  drain_deferred_membership();
}

void Replica::proposer_outcome(const BatchProposeMsg& propose,
                               ProposerRun& run, bool agreed,
                               std::vector<PartyId> vetoers,
                               const std::string& diagnostic,
                               const RunDecide& /*decide*/) {
  const StateTuple& proposed = propose.proposal.proposed;
  CoordEvent event;
  event.object = object_;
  event.party = self_;
  if (agreed) {
    // The proposer's object already holds the final state (invariant 2);
    // record every item as agreed and snapshot the last.
    event.kind = CoordEvent::Kind::kStateAgreed;
    install_run(propose.items, std::move(run.states),
                /*apply_to_object=*/false, event);
    // Under the majority rule, `vetoers` lists overridden dissenters.
    complete(run.result, RunResult::Outcome::kAgreed, "", std::move(vetoers),
             proposed.sequence, proposed.label());
    return;
  }
  impl_.apply_state(agreed_state_);
  record_evidence(evidence_kind::kStateRolledBack, proposed.encode());
  event.kind = CoordEvent::Kind::kStateVetoed;
  event.sequence = proposed.sequence;
  event.detail = diagnostic;
  emit(event);
  complete(run.result, RunResult::Outcome::kVetoed, diagnostic,
           std::move(vetoers), proposed.sequence, proposed.label());
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
// The run engine — responder side (§4.3, §4.5, checks of §4.4)
// ---------------------------------------------------------------------------

void Replica::handle_propose(const PartyId& from, MsgType type,
                             const Bytes& body) {
  RunPropose msg = RunPropose::decode(type, body);
  const RunFormat& format = msg.format();
  const std::string kind = format.kind;

  if (msg.proposer() != from) {
    record_violation(kind + "proposal sender does not match proposer field",
                     from);
    return;
  }
  if (!msg.signed_by(callbacks_.key_of(from))) {
    record_violation("bad signature on " + kind + "proposal", from);
    return;
  }
  if (!is_member(from) || !connected_) {
    // Either a verifiable proposal from a party outside the current group
    // (typically an evicted member with a stale view — §4.5.4: "any
    // subsequent coordination request will reveal inconsistencies"), or we
    // have ourselves departed and the proposer has not yet learnt it. Send
    // a signed reject so the proposer's run terminates as vetoed instead
    // of blocking, and record the event.
    if (!is_member(from)) {
      record_anomaly(kind + "proposal from non-member", from);
    }
    const Decision stale = Decision::rejected(
        connected_ ? "inconsistent group view"
                   : "recipient has disconnected from this group");
    const RunResponse out = std::visit(
        [&](const auto& m) { return respond_to(m, stale, nullptr); }, msg.msg);
    record_evidence(format.respond_sent, out.encode());
    send_envelope(from, format.respond, out.encode());
    return;
  }
  if (msg.object() != object_) {
    record_violation(kind + "proposal for wrong object", from);
    return;
  }
  const std::string label = msg.label();
  if (seen_run_labels_.contains(label)) {
    if (journaling()) {
      // With a journal behind us a duplicate proposal is the expected
      // trace of a crashed-and-recovered proposer re-driving its run, not
      // prima facie replay: answer it idempotently. (Journal-less
      // deployments keep the strict §4.4 replay stance below.)
      auto it = responder_runs_.find(label);
      if (it != responder_runs_.end() &&
          it->second.propose.proposer() == from) {
        record_anomaly("duplicate " + kind + "proposal re-answered " + label,
                       from);
        send_envelope(from, format.respond, it->second.my_response.encode());
        return;
      }
      if (it == responder_runs_.end()) {
        record_anomaly("duplicate " + kind + "proposal for closed run " + label,
                       from);
        return;
      }
    }
    // §4.4: the run tuple uniquely labels a run; a re-appearance is a
    // replay.
    record_violation("replayed " + kind + "proposal " + label, from);
    return;
  }
  for (const std::string& item : msg.labels()) seen_run_labels_.insert(item);
  note_sequence(msg.sequence());
  hit_crash_point("respond.pre-journal");
  record_evidence(format.propose_received, msg.encode(), label);

  // ONE signed response answers the whole run.
  ResponderRun run;
  run.my_response = std::visit(
      [&](const auto& m) {
        return respond_to(m, std::nullopt, &run.pending_states);
      },
      msg.msg);
  run.propose = std::move(msg);
  run.members_at_response = members_;

  Bytes encoded = run.my_response.encode();
  if (journaling()) {
    wire::Encoder enc;
    enc.blob(run.encode());
    journal_record(walrec::kResponderRun, std::move(enc).take());
  }
  responder_runs_.emplace(label, std::move(run));

  record_evidence(format.respond_sent, encoded, label);
  journal_barrier();
  hit_crash_point("respond.journaled");
  send_envelope(from, format.respond, encoded);
  arm_deadline(label, /*as_proposer=*/false);
  arm_run_probe(label, /*as_proposer=*/false, 1);
  hit_crash_point("respond.sent");
}

RunResponse Replica::respond_to(const BatchProposeMsg& msg,
                                std::optional<Decision> verdict,
                                std::vector<Bytes>* states) {
  const Proposal& prop = msg.proposal;
  // H(payload) for a single item; the recomputed chain head for a batch,
  // which a mutated, reordered or dropped item breaks.
  const crypto::Digest digest = msg.payload_digest();
  RespondMsg out;
  Response& resp = out.response;
  resp.responder = self_;
  resp.object = object_;
  resp.proposed = prop.proposed;
  resp.agreed_view = agreed_tuple_;
  resp.current_view = agreed_tuple_;
  resp.group_view = group_tuple_;
  resp.payload_integrity = digest;
  if (verdict.has_value()) {
    resp.decision = std::move(*verdict);
  } else {
    resp.decision = validate_run(msg, digest, states);
    if (!resp.decision.accept) states->clear();
    // Our view of the current state: our own open proposal's, if any.
    if (proposer_run_.has_value() && proposer_run_->propose.state()) {
      resp.current_view = proposer_run_->propose.state()->proposal.proposed;
    }
  }
  out.signature = key_.sign(resp.signed_bytes());
  return {std::move(out)};
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
  RunDecide msg = RunDecide::decode(type, body);
  const RunFormat& format = msg.format();
  const std::string kind = format.kind;
  const std::string label = msg.label();

  auto it = responder_runs_.find(label);
  if (it == responder_runs_.end()) {
    // Either we never saw the proposal (selective sending, §4.4), we
    // answered it from outside the group, or this is a duplicate of a
    // finished run: evidence-worthy, but explainable by benign races.
    record_anomaly(kind + "decide for unknown or finished run " + label, from);
    // The very decide this run closed on, sent again (a recovering
    // proposer re-drives its run): sealed like the close was. A forged
    // decide buys no RSA work. (Our own decide, bounced back at us, was
    // never received here.)
    if (msg.proposer() != self_ &&
        received_before(label, format.decide_received, msg.encode())) {
      seal_evidence();
    }
    return;
  }
  const RunPropose& propose = it->second.propose;
  const std::vector<Bytes> authenticators = msg.authenticators();
  const std::vector<crypto::Digest> rand_hashes = propose.rand_hashes();
  if (authenticators.size() != rand_hashes.size()) {
    // A run closes only with the decide of its own format: a single-run
    // decide cannot authenticate a batch's intermediate items (it would
    // install a hole in the sequence), and vice versa.
    record_violation("decide of the wrong format for run " + label, from);
    return;
  }
  if (msg.proposer() != propose.proposer() || from != propose.proposer()) {
    record_violation(kind + "decide not from the proposer", from);
    return;
  }
  // EVERY authenticator must be revealed and check out: only the proposer
  // can produce them, and each sub-tuple is installed on the strength of
  // its own. A mismatch means forgery; the run stays active (we keep
  // waiting for the genuine decide).
  for (std::size_t i = 0; i < rand_hashes.size(); ++i) {
    if (crypto::Sha256::hash(authenticators[i]) != rand_hashes[i]) {
      record_violation(kind + "decide authenticator mismatch (forgery)", from);
      return;
    }
  }
  hit_crash_point("decide-recv.pre-journal");
  if (journaling()) {
    wire::Encoder enc;
    msg.encode_into(enc);
    journal_record(walrec::kDecideDelivered, std::move(enc).take());
  }
  record_evidence(format.decide_received, msg.encode(), label);
  journal_barrier();
  hit_crash_point("decide-recv.journaled");

  ResponderRun finished = std::move(it->second);
  responder_runs_.erase(it);
  conclude_responder_run(label, std::move(finished), msg.responses(), from);
}

void Replica::conclude_responder_run(const std::string& label,
                                     ResponderRun run,
                                     const std::vector<RunResponse>& responses,
                                     const PartyId& from) {
  const RunPropose& propose = run.propose;
  const RunFormat& format = propose.format();
  const std::string kind = format.kind;
  // Verify the aggregation: every response signed, every response for this
  // run, our own response present and unaltered, full recipient coverage.
  bool intact = true;
  std::size_t consistent_accepts = 0;
  std::size_t expected_recipients = 0;
  std::set<PartyId> responders;
  bool any_reject = false;
  for (const RunResponse& resp : responses) {
    if (!resp.decision().accept) any_reject = true;
    if (!response_signed(resp)) {
      record_violation(kind + "decide aggregates badly signed response from " +
                           resp.responder().str(),
                       from);
      intact = false;
      continue;
    }
    if (!resp.answers(propose)) {
      record_violation(kind + "decide aggregates response from another run",
                       from);
      intact = false;
      continue;
    }
    if (!responders.insert(resp.responder()).second) continue;  // duplicate
    if (resp.consistent_accept(propose)) ++consistent_accepts;
    if (resp.responder() == self_ && !(resp == run.my_response)) {
      record_violation("own " + kind + "response misrepresented in decide",
                       from);
      intact = false;
    }
  }
  for (const PartyId& member : run.members_at_response) {
    if (!propose.asks(member)) continue;
    ++expected_recipients;
    if (!responders.contains(member)) {
      // Omitting a response only misrepresents the outcome when the
      // decide would otherwise read as an agreement; on a vetoed run a
      // shortfall is explainable by concurrent membership changes.
      if (any_reject) {
        record_anomaly(kind + "decide lacks response from " + member.str(),
                       from);
      } else {
        record_violation(kind + "decide omits response from " + member.str(),
                         from);
      }
      intact = false;
    }
  }

  const bool agreed =
      intact && !responses.empty() &&
      group_accepts(consistent_accepts, expected_recipients, format);
  std::visit(
      [&](const auto& msg) { responder_outcome(msg, run, agreed, responses); },
      propose.msg);
  close_run(walrec::kResponderClosed, label);
  hit_crash_point("decide-recv.installed");
  drain_deferred_membership();
}

void Replica::responder_outcome(const BatchProposeMsg& propose,
                                ResponderRun& run, bool agreed,
                                const std::vector<RunResponse>& /*responses*/) {
  const Proposal& prop = propose.proposal;
  CoordEvent event;
  event.object = object_;
  event.party = prop.proposer;
  if (!agreed) {
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.sequence = prop.proposed.sequence;
    emit(event);
    return;
  }
  std::optional<std::vector<Bytes>> to_install;
  if (run.my_response.decision().accept &&
      run.pending_states.size() == propose.items.size()) {
    to_install = std::move(run.pending_states);
  } else {
    // Majority rule overrode our veto: derive the agreed states from the
    // proposal we hold (never install anything whose hash we cannot
    // confirm against the agreed tuples).
    to_install = derive_agreed_states(propose);
  }
  if (to_install.has_value()) {
    event.kind = CoordEvent::Kind::kStateInstalled;
    install_run(propose.items, std::move(*to_install),
                /*apply_to_object=*/true, event);
  } else {
    // Our local copy of the payload cannot reproduce the agreed state
    // (e.g. we rejected it for integrity). We hold the evidence but need
    // an out-of-band state transfer to catch up.
    record_evidence("state.transfer-required", prop.proposed.encode());
    B2B_WARN(self_, " cannot materialise agreed state for run ",
             prop.proposed.label());
  }
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
  // A §7 verdict certifies one state tuple: batches (K >= 2) and
  // membership runs are never referred.
  const RunPropose& propose = as_proposer ? proposer_run_->propose
                                          : responder_runs_.at(label).propose;
  if (&propose.format() != &RunFormat::of(1)) return;
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
  if (as_proposer) {
    request = proposer_termination_request();
  } else {
    request.requester = self_;
    request.object = object_;
    request.proposed =
        responder_runs_.at(label).propose.state()->proposal.proposed;
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
  const BatchProposeMsg* proposed =
      proposer_run_.has_value() ? proposer_run_->propose.state() : nullptr;
  const bool proposer_open =
      proposed != nullptr && proposed->proposal.proposed == verdict.proposed;
  bool run_open = proposer_open || responder_runs_.contains(label);
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

  std::vector<RunResponse> responses;
  for (const RespondMsg& resp : verdict.responses) responses.push_back({resp});

  // Proposer side.
  if (proposer_open && verdict.kind == TerminationVerdict::Kind::kAbort) {
    abort_proposer_run("TTP-certified abort", verdict.proposed.encode());
    return;
  }
  if (proposer_open) {
    // A certified decision carries the full verified response set; we
    // conclude exactly as if we had assembled the decide ourselves.
    ProposerRun run = std::move(*proposer_run_);
    proposer_run_.reset();
    std::size_t consistent_accepts = 0;
    for (const RunResponse& resp : responses) {
      if (response_signed(resp) && resp.consistent_accept(run.propose)) {
        ++consistent_accepts;
      }
    }
    const std::uint64_t sequence = run.propose.sequence();
    if (group_accepts(consistent_accepts, run.recipients.size(),
                      run.propose.format())) {
      install_run(run.propose.state()->items, std::move(run.states),
                  /*apply_to_object=*/false, std::nullopt);
      complete(run.result, RunResult::Outcome::kAgreed,
               "TTP-certified decision", {}, sequence, label);
    } else {
      impl_.apply_state(agreed_state_);
      complete(run.result, RunResult::Outcome::kVetoed,
               "TTP-certified decision: vetoed", {}, sequence, label);
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
    close_run(walrec::kResponderClosed, label);
    CoordEvent event;
    event.kind = CoordEvent::Kind::kStateVetoed;
    event.object = object_;
    event.party = run.propose.proposer();
    event.sequence = verdict.proposed.sequence;
    event.detail = "TTP-certified abort";
    emit(event);
    drain_deferred_membership();
    return;
  }
  conclude_responder_run(label, std::move(run), responses, from);
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
  leg.proposed = proposer_run_->propose.state()->proposal.proposed;
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
  Bytes encoded = decision.encode();
  for (const PartyId& recipient : proposer_run_->recipients) {
    send_envelope(recipient, MsgType::kDealDecision, encoded);
  }
  abort_proposer_run(decision.decision.diagnostic.empty()
                         ? "deal aborted"
                         : decision.decision.diagnostic,
                     proposer_run_->propose.state()->tuple().encode());
}

void Replica::cancel_staged_run(const std::string& label) {
  if (!staged(label)) {
    return;
  }
  abort_proposer_run("deal never opened: staged leg cancelled",
                     proposer_run_->propose.state()->tuple().encode());
}

bool Replica::resume_staged_run(const std::string& label,
                                const DealEnlistMsg& enlist) {
  if (!staged(label)) {
    return false;
  }
  resend_propose_to_silent(enlist.encode());
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
  status.open = true;
  status.complete = run.responses.size() == run.recipients.size();
  status.all_accept = status.complete;
  for (const PartyId& recipient : run.recipients) {
    auto it = run.responses.find(recipient);
    if (it == run.responses.end()) {
      status.all_accept = false;
      continue;
    }
    if (!it->second.consistent_accept(run.propose)) {
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
  return proposer_termination_request();
}

TerminationRequest Replica::proposer_termination_request() const {
  const ProposerRun& run = *proposer_run_;
  TerminationRequest request;
  request.requester = self_;
  request.object = object_;
  request.proposed = run.propose.state()->proposal.proposed;
  request.propose = run.propose.state()->single();
  for (const auto& [responder, resp] : run.responses) {
    request.responses.push_back(*resp.state());
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
    if (it->second.propose.proposer() != from) {
      record_violation("deal abort for a run proposed by another party",
                       from);
      continue;
    }
    hit_crash_point("deal-abort-recv.pre-journal");
    ResponderRun run = std::move(it->second);
    responder_runs_.erase(it);
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
