// Connection and disconnection protocols (§4.5): sponsor-coordinated
// membership changes with rotating sponsor selection, eviction (including
// sponsor-initiated eviction without a request step) and non-vetoable
// voluntary disconnection.
#include <algorithm>

#include "b2b/recovery.hpp"
#include "b2b/replica.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace b2b::core {

namespace {

/// Body of kConnectRequest / kDisconnectRequest envelopes: the signed
/// membership request plus the sender's signature.
Bytes encode_request_with_signature(const MembershipRequest& request,
                                    const Bytes& signature) {
  wire::Encoder enc;
  request.encode_into(enc);
  enc.blob(signature);
  return std::move(enc).take();
}

std::pair<MembershipRequest, Bytes> decode_request_with_signature(
    BytesView body) {
  wire::Decoder dec{body};
  MembershipRequest request = MembershipRequest::decode_from(dec);
  Bytes signature = dec.blob();
  dec.expect_done();
  return {std::move(request), std::move(signature)};
}

bool contains(const std::vector<PartyId>& list, const PartyId& party) {
  return std::find(list.begin(), list.end(), party) != list.end();
}

/// Legitimate sponsor for disconnection of a subject *set*: under the
/// rotating policy the most recently joined member not itself being
/// removed (§4.5.1); under the fixed policy the oldest such member
/// (footnote 2).
std::optional<PartyId> sponsor_for_removal(const std::vector<PartyId>& members,
                                           const std::vector<PartyId>& subjects,
                                           SponsorPolicy policy) {
  if (policy == SponsorPolicy::kRotating) {
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      if (!contains(subjects, *it)) return *it;
    }
    return std::nullopt;
  }
  for (const PartyId& member : members) {
    if (!contains(subjects, member)) return member;
  }
  return std::nullopt;
}

/// The member list that would result from the request.
std::optional<std::vector<PartyId>> resulting_members(
    const std::vector<PartyId>& members, const MembershipRequest& request) {
  std::vector<PartyId> out;
  switch (request.kind) {
    case MembershipKind::kConnect: {
      if (request.subjects.size() != 1) return std::nullopt;
      if (contains(members, request.subjects[0])) return std::nullopt;
      out = members;
      out.push_back(request.subjects[0]);  // joins as most recent member
      return out;
    }
    case MembershipKind::kEvict:
    case MembershipKind::kVoluntaryDisconnect: {
      if (request.subjects.empty()) return std::nullopt;
      for (const PartyId& subject : request.subjects) {
        if (!contains(members, subject)) return std::nullopt;
      }
      for (const PartyId& member : members) {
        if (!contains(request.subjects, member)) out.push_back(member);
      }
      if (out.empty()) return std::nullopt;  // cannot empty the group
      return out;
    }
  }
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// Subject-side API
// ---------------------------------------------------------------------------

RunHandle Replica::request_connect(const PartyId& via) {
  auto handle = std::make_shared<RunResult>();
  if (connected_) {
    complete(handle, RunResult::Outcome::kAborted, "already connected", {}, 0,
             "");
    return handle;
  }
  if (subject_request_.has_value()) {
    complete(handle, RunResult::Outcome::kAborted,
             "a connect/disconnect request is already pending", {}, 0, "");
    return handle;
  }
  MembershipRequest request;
  request.kind = MembershipKind::kConnect;
  request.sender = self_;
  request.object = object_;
  request.subjects = {self_};
  request.subject_public_key = key_.public_key().encode();
  request.request_nonce = fresh_random();
  Bytes signature = key_.sign(request.signed_bytes());

  record_evidence(evidence_kind::kMembershipRequest, request.encode());
  journal_subject_request(request, signature, via,
                          /*relayed_eviction=*/false);
  hit_crash_point("m-request.journaled");
  send_envelope(via, MsgType::kConnectRequest,
                encode_request_with_signature(request, signature));
  arm_subject_probe(to_hex(request.request_nonce), 1);
  subject_request_ = SubjectRequest{std::move(request), handle};
  return handle;
}

RunHandle Replica::request_disconnect() {
  auto handle = std::make_shared<RunResult>();
  if (!connected_) {
    complete(handle, RunResult::Outcome::kAborted, "not connected", {}, 0, "");
    return handle;
  }
  if (subject_request_.has_value()) {
    complete(handle, RunResult::Outcome::kAborted,
             "a connect/disconnect request is already pending", {}, 0, "");
    return handle;
  }
  if (busy()) {
    complete(handle, RunResult::Outcome::kAborted,
             "busy: another coordination run is active", {}, 0, "");
    return handle;
  }
  if (members_.size() == 1) {
    // Sole member: nothing to coordinate.
    connected_ = false;
    abort_runs_on_departure();
    journal_snapshot();
    complete(handle, RunResult::Outcome::kAgreed, "", {}, last_seen_seq_, "");
    return handle;
  }
  MembershipRequest request;
  request.kind = MembershipKind::kVoluntaryDisconnect;
  request.sender = self_;
  request.object = object_;
  request.subjects = {self_};
  request.request_nonce = fresh_random();
  Bytes signature = key_.sign(request.signed_bytes());

  record_evidence(evidence_kind::kMembershipRequest, request.encode());
  const PartyId sponsor = disconnect_sponsor(self_);
  journal_subject_request(request, signature, sponsor,
                          /*relayed_eviction=*/false);
  hit_crash_point("m-request.journaled");
  send_envelope(sponsor, MsgType::kDisconnectRequest,
                encode_request_with_signature(request, signature));
  arm_subject_probe(to_hex(request.request_nonce), 1);
  subject_request_ = SubjectRequest{std::move(request), handle};
  return handle;
}

RunHandle Replica::propose_eviction(std::vector<PartyId> subjects) {
  auto handle = std::make_shared<RunResult>();
  if (!connected_) {
    complete(handle, RunResult::Outcome::kAborted, "not connected", {}, 0, "");
    return handle;
  }
  if (subjects.empty() || contains(subjects, self_)) {
    complete(handle, RunResult::Outcome::kAborted,
             "invalid eviction subject set (use request_disconnect to leave)",
             {}, 0, "");
    return handle;
  }
  for (const PartyId& subject : subjects) {
    if (!is_member(subject)) {
      complete(handle, RunResult::Outcome::kAborted,
               "eviction subject " + subject.str() + " is not a member", {},
               0, "");
      return handle;
    }
  }
  MembershipRequest request;
  request.kind = MembershipKind::kEvict;
  request.sender = self_;
  request.object = object_;
  request.subjects = std::move(subjects);
  request.request_nonce = fresh_random();
  Bytes signature = key_.sign(request.signed_bytes());
  record_evidence(evidence_kind::kMembershipRequest, request.encode());

  std::optional<PartyId> sponsor =
      sponsor_for_removal(members_, request.subjects, sponsor_policy_);
  if (!sponsor.has_value()) {
    complete(handle, RunResult::Outcome::kAborted,
             "no eligible sponsor for this eviction", {}, 0, "");
    return handle;
  }
  if (*sponsor == self_) {
    // §4.5.4: when the sponsor proposes the eviction the request step is
    // omitted; the sponsor coordinates directly.
    return start_membership_run(std::move(request), std::move(signature),
                                handle);
  }
  if (relayed_eviction_result_.has_value()) {
    complete(handle, RunResult::Outcome::kAborted,
             "an eviction request is already pending", {}, 0, "");
    return handle;
  }
  journal_subject_request(request, signature, *sponsor,
                          /*relayed_eviction=*/true);
  hit_crash_point("m-request.journaled");
  send_envelope(*sponsor, MsgType::kConnectRequest,
                encode_request_with_signature(request, signature));
  arm_subject_probe(to_hex(request.request_nonce), 1);
  relayed_eviction_nonce_ = to_hex(request.request_nonce);
  relayed_eviction_result_ = handle;
  return handle;
}

// ---------------------------------------------------------------------------
// Sponsor side
// ---------------------------------------------------------------------------

void Replica::forward_membership_request(const MembershipRequest& request,
                                         const Bytes& signature,
                                         const PartyId& exclude) {
  // Bounded best-effort forwarding: a request that reaches a departed
  // party is handed to another member of its last known view. The bound
  // prevents forwarding cycles among parties with stale views.
  std::string nonce_key = to_hex(request.request_nonce);
  if (++forward_counts_[nonce_key] > 3) return;
  for (const PartyId& member : members_) {
    if (member == self_ || member == exclude) continue;
    send_envelope(member,
                  request.kind == MembershipKind::kVoluntaryDisconnect
                      ? MsgType::kDisconnectRequest
                      : MsgType::kConnectRequest,
                  encode_request_with_signature(request, signature));
    return;
  }
}

void Replica::handle_connect_request(const PartyId& from, const Bytes& body) {
  auto [request, signature] = decode_request_with_signature(body);
  if (!connected_) {
    forward_membership_request(request, signature, from);
    return;
  }

  if (request.object != object_) {
    record_violation("membership request for wrong object", from);
    return;
  }

  if (request.kind == MembershipKind::kConnect) {
    if (request.subjects.size() != 1 || request.sender != request.subjects[0]) {
      record_violation("malformed connect request", from);
      return;
    }
    crypto::RsaPublicKey subject_key;
    try {
      subject_key = crypto::RsaPublicKey::decode(request.subject_public_key);
    } catch (const CodecError&) {
      record_violation("connect request with undecodable key", from);
      return;
    }
    if (!subject_key.verify(request.signed_bytes(), signature)) {
      record_violation("bad signature on connect request", from);
      return;
    }
    record_evidence(evidence_kind::kMembershipRequest, request.encode());
    process_membership_request(std::move(request), std::move(signature));
    return;
  }

  if (request.kind == MembershipKind::kEvict) {
    // `from` may be a relaying member, not the proposer: authenticate by
    // the proposer's signature.
    if (!is_member(request.sender)) {
      record_violation("eviction request from non-member", from);
      return;
    }
    const crypto::RsaPublicKey* pub = callbacks_.key_of(request.sender);
    if (pub == nullptr || !pub->verify(request.signed_bytes(), signature)) {
      record_violation("bad signature on eviction request", from);
      return;
    }
    if (contains(request.subjects, request.sender)) {
      record_violation("party requested its own eviction", from);
      return;
    }
    record_evidence(evidence_kind::kMembershipRequest, request.encode());
    process_membership_request(std::move(request), std::move(signature));
    return;
  }

  record_violation("unexpected membership request kind", from);
}

void Replica::handle_disconnect_request(const PartyId& from,
                                        const Bytes& body) {
  auto [request, signature] = decode_request_with_signature(body);
  if (!connected_) {
    forward_membership_request(request, signature, from);
    return;
  }
  if (request.kind != MembershipKind::kVoluntaryDisconnect ||
      request.subjects.size() != 1 || request.sender != request.subjects[0]) {
    record_violation("malformed disconnect request", from);
    return;
  }
  // `from` may be a relaying member; the subject's signature is what
  // authenticates the request.
  if (request.object != object_ || !is_member(request.sender)) {
    record_violation("disconnect request from non-member", from);
    return;
  }
  const crypto::RsaPublicKey* pub = callbacks_.key_of(request.sender);
  if (pub == nullptr || !pub->verify(request.signed_bytes(), signature)) {
    record_violation("bad signature on disconnect request", from);
    return;
  }
  record_evidence(evidence_kind::kMembershipRequest, request.encode());
  process_membership_request(std::move(request), std::move(signature));
}

void Replica::process_membership_request(MembershipRequest request,
                                         Bytes signature) {
  B2B_DEBUG(self_, " processing membership request kind=",
            static_cast<int>(request.kind), " from ", request.sender,
            " busy=", busy(), " connected=", connected_);
  if (!connected_) {
    // We departed while this request waited: hand it to another member of
    // our last known view (best effort) so the requester is not stranded.
    forward_membership_request(request, signature, self_);
    return;
  }
  const PartyId& subject = request.subjects.empty() ? request.sender
                                                    : request.subjects[0];

  // Act on each distinct request once, however many relayed or deferred
  // copies reach us (the nonce uniquely labels the request): a duplicate
  // is never relayed or deferred. One from a crashed-and-recovered subject
  // re-probing under its original nonce is re-answered from the stored
  // answer (journal-gated); one that arrives while its run is still open
  // is dropped, as that run's outcome answers it.
  std::string nonce_key = to_hex(request.request_nonce);
  if (sponsor_nonces_.contains(nonce_key)) {
    maybe_reanswer_membership_request(nonce_key, subject);
    return;
  }

  // Re-resolve the legitimate sponsor at processing time (membership may
  // have changed while the request waited): relay if it is not us.
  if (request.kind == MembershipKind::kConnect) {
    if (connect_sponsor() != self_) {
      send_envelope(connect_sponsor(), MsgType::kConnectRequest,
                    encode_request_with_signature(request, signature));
      return;
    }
  } else {
    std::optional<PartyId> sponsor =
        sponsor_for_removal(members_, request.subjects, sponsor_policy_);
    if (!sponsor.has_value()) return;  // request no longer applicable
    if (*sponsor != self_) {
      send_envelope(*sponsor,
                    request.kind == MembershipKind::kVoluntaryDisconnect
                        ? MsgType::kDisconnectRequest
                        : MsgType::kConnectRequest,
                    encode_request_with_signature(request, signature));
      return;
    }
  }

  // §4.5.1: "The sponsor is also responsible for blocking new coordination
  // requests pending decision on any active request" — defer, don't drop.
  if (busy()) {
    if (deferred_membership_.size() >= kMaxDeferredMembership) {
      record_anomaly("deferred-membership queue full; request dropped",
                     request.sender);
      return;
    }
    deferred_membership_.emplace_back(std::move(request),
                                      std::move(signature));
    return;
  }

  sponsor_nonces_.insert(nonce_key);
  switch (request.kind) {
    case MembershipKind::kConnect: {
      // The sponsor's own local policy can reject immediately (§4.5.3).
      ValidationContext ctx{self_, subject, object_, next_sequence()};
      if (is_member(subject) || !impl_.validate_connect(subject, ctx).accept) {
        reject_connect(request);
        return;
      }
      start_membership_run(std::move(request), std::move(signature), nullptr);
      return;
    }
    case MembershipKind::kEvict: {
      if (!is_member(request.sender)) return;  // proposer departed meanwhile
      ValidationContext ctx{self_, request.sender, object_, next_sequence()};
      for (const PartyId& evictee : request.subjects) {
        if (!is_member(evictee)) return;  // stale request
        if (!impl_.validate_disconnect(evictee, /*eviction=*/true, ctx)
                 .accept) {
          return;  // sponsor locally rejects; proposer remains pending
        }
      }
      start_membership_run(std::move(request), std::move(signature), nullptr);
      return;
    }
    case MembershipKind::kVoluntaryDisconnect: {
      if (!is_member(subject)) return;  // already gone
      // Voluntary disconnection cannot be vetoed (§4.5.4) — no upcall gate.
      start_membership_run(std::move(request), std::move(signature), nullptr);
      return;
    }
  }
}

void Replica::drain_deferred_membership() {
  while (!deferred_membership_.empty() && (!busy() || !connected_)) {
    auto [request, signature] = std::move(deferred_membership_.front());
    deferred_membership_.pop_front();
    process_membership_request(std::move(request), std::move(signature));
  }
}

// ---------------------------------------------------------------------------
// Membership runs: the four per-kind steps of the run engine (replica.cpp)
// ---------------------------------------------------------------------------

RunHandle Replica::start_membership_run(MembershipRequest request,
                                        Bytes request_signature,
                                        RunHandle handle) {
  if (!handle) handle = std::make_shared<RunResult>();
  std::optional<std::vector<PartyId>> new_members =
      resulting_members(members_, request);
  if (!new_members.has_value()) {
    complete(handle, RunResult::Outcome::kAborted,
             "membership request does not apply to the current group", {}, 0,
             "");
    return handle;
  }
  if (busy()) {
    // Only a sponsor proposing an eviction itself gets here busy: relayed
    // and deferred requests wait until no run is open (§4.5.1).
    complete(handle, RunResult::Outcome::kAborted,
             "busy: another coordination run is active", {}, 0, "");
    return handle;
  }

  ProposerRun run;
  run.result = handle;
  run.authenticators.push_back(fresh_random());
  MembershipProposeMsg propose;
  MembershipProposal& prop = propose.proposal;
  prop.sponsor = self_;
  prop.object = object_;
  prop.request = std::move(request);
  prop.request_signature = std::move(request_signature);
  prop.current_group = group_tuple_;
  prop.new_group =
      GroupTuple{next_sequence(), crypto::Sha256::hash(run.authenticators[0]),
                 hash_members(*new_members)};
  prop.agreed = agreed_tuple_;
  prop.new_members = std::move(*new_members);
  propose.signature = key_.sign(prop.signed_bytes());
  run.propose.msg = std::move(propose);
  // Recipients: every member but the sponsor and the members being
  // removed (a connect subject is not yet a member).
  for (const PartyId& member : members_) {
    if (run.propose.asks(member)) run.recipients.push_back(member);
  }
  journal_run_open(run);
  send_run_open(std::move(run));
  return handle;
}

RunResponse Replica::respond_to(const MembershipProposeMsg& msg,
                                std::optional<Decision> verdict,
                                std::vector<Bytes>* /*states*/) {
  MembershipRespondMsg out;
  MembershipResponse& resp = out.response;
  resp.responder = self_;
  resp.object = object_;
  resp.new_group = msg.proposal.new_group;
  resp.group_view = group_tuple_;
  resp.agreed_view = agreed_tuple_;
  resp.decision = verdict.has_value() ? std::move(*verdict)
                                      : evaluate_membership_proposal(msg);
  out.signature = key_.sign(resp.signed_bytes());
  return {std::move(out)};
}

Decision Replica::evaluate_membership_proposal(
    const MembershipProposeMsg& msg) {
  const MembershipProposal& prop = msg.proposal;
  const MembershipRequest& request = prop.request;

  if (prop.current_group != group_tuple_) {
    return Decision::rejected("inconsistent group view");
  }
  if (prop.agreed != agreed_tuple_) {
    return Decision::rejected("inconsistent agreed-state view");
  }
  if (prop.new_group.sequence <= group_tuple_.sequence) {
    return Decision::rejected("sequence number did not advance");
  }
  if (hash_members(prop.new_members) != prop.new_group.members_hash) {
    record_violation("member list does not hash to group tuple",
                     prop.sponsor);
    return Decision::rejected("proposal internally inconsistent");
  }

  // The embedded request must be properly signed by its sender.
  bool sponsor_initiated_evict = request.kind == MembershipKind::kEvict &&
                                 request.sender == prop.sponsor;
  if (request.kind == MembershipKind::kConnect) {
    crypto::RsaPublicKey subject_key;
    try {
      subject_key = crypto::RsaPublicKey::decode(request.subject_public_key);
    } catch (const CodecError&) {
      record_violation("connect proposal with undecodable subject key",
                       prop.sponsor);
      return Decision::rejected("undecodable subject key");
    }
    if (!subject_key.verify(request.signed_bytes(), prop.request_signature)) {
      record_violation("connect proposal with forged request", prop.sponsor);
      return Decision::rejected("request signature invalid");
    }
  } else if (!sponsor_initiated_evict) {
    const crypto::RsaPublicKey* sender_key = callbacks_.key_of(request.sender);
    if (sender_key == nullptr ||
        !sender_key->verify(request.signed_bytes(), prop.request_signature)) {
      record_violation("membership proposal with forged request",
                       prop.sponsor);
      return Decision::rejected("request signature invalid");
    }
  }

  // Sponsor legitimacy (§4.5.1): verifiable by every member.
  if (request.kind == MembershipKind::kConnect) {
    if (prop.sponsor != connect_sponsor()) {
      record_violation("illegitimate connection sponsor", prop.sponsor);
      return Decision::rejected("illegitimate sponsor");
    }
  } else {
    std::optional<PartyId> expected =
        sponsor_for_removal(members_, request.subjects, sponsor_policy_);
    if (!expected.has_value() || prop.sponsor != *expected) {
      record_violation("illegitimate disconnection sponsor", prop.sponsor);
      return Decision::rejected("illegitimate sponsor");
    }
    if (contains(request.subjects, self_)) {
      // The subject of an eviction must not be in the recipient set.
      record_violation("received proposal for own eviction", prop.sponsor);
      return Decision::rejected("subject must not validate own removal");
    }
  }

  // The proposed member list must be exactly the current list with the
  // requested change applied.
  std::optional<std::vector<PartyId>> expected_members =
      resulting_members(members_, request);
  if (!expected_members.has_value() ||
      *expected_members != prop.new_members) {
    record_violation("membership delta does not match request", prop.sponsor);
    return Decision::rejected("membership delta does not match request");
  }

  if (busy()) {
    return Decision::rejected("busy: concurrent coordination in progress");
  }

  ValidationContext ctx{self_, request.sender, object_,
                        prop.new_group.sequence};
  switch (request.kind) {
    case MembershipKind::kConnect:
      return impl_.validate_connect(request.subjects[0], ctx);
    case MembershipKind::kEvict:
      for (const PartyId& subject : request.subjects) {
        Decision d = impl_.validate_disconnect(subject, /*eviction=*/true, ctx);
        if (!d.accept) return d;
      }
      return Decision::accepted();
    case MembershipKind::kVoluntaryDisconnect: {
      // Voluntary disconnection cannot be vetoed by *policy* (§4.5.4);
      // the upcall result is recorded but overridden. Protocol-level
      // rejects above (stale views, busy) stand — they mean the run
      // cannot proceed consistently and the sponsor must retry.
      Decision d = impl_.validate_disconnect(request.subjects[0],
                                             /*eviction=*/false, ctx);
      if (!d.accept) return Decision{true, "noted: " + d.diagnostic};
      return Decision::accepted();
    }
  }
  return Decision::rejected("unknown membership kind");
}

void Replica::proposer_outcome(const MembershipProposeMsg& propose,
                               ProposerRun& run, bool agreed,
                               std::vector<PartyId> vetoers,
                               const std::string& diagnostic,
                               const RunDecide& decide) {
  const MembershipProposal& prop = propose.proposal;
  const MembershipRequest& request = prop.request;
  const std::string label = prop.new_group.label();
  const std::string nonce_key = to_hex(request.request_nonce);
  const std::vector<MembershipRespondMsg>& responses =
      decide.membership()->responses;
  if (agreed) {
    apply_membership_change(prop);
    if (request.kind == MembershipKind::kConnect) {
      // Deliver the agreed state and the full member/key directory to the
      // new member (§4.5.3).
      ConnectWelcomeMsg welcome;
      welcome.sponsor = self_;
      welcome.object = object_;
      welcome.new_group = prop.new_group;
      welcome.members = prop.new_members;
      for (const PartyId& member : prop.new_members) {
        if (member == request.sender) {
          welcome.member_public_keys.push_back(request.subject_public_key);
        } else {
          const crypto::RsaPublicKey* pub = callbacks_.key_of(member);
          welcome.member_public_keys.push_back(pub != nullptr ? pub->encode()
                                                              : Bytes{});
        }
      }
      welcome.agreed = agreed_tuple_;
      welcome.agreed_state = agreed_state_;
      welcome.responses = responses;
      welcome.authenticator = run.authenticators[0];
      welcome.sponsor_signature = key_.sign(welcome.signed_bytes());
      answer_subject(nonce_key, request.sender, MsgType::kConnectWelcome,
                     welcome.encode());
    } else if (request.kind == MembershipKind::kVoluntaryDisconnect) {
      DisconnectConfirmMsg confirm;
      confirm.sponsor = self_;
      confirm.object = object_;
      confirm.new_group = prop.new_group;
      confirm.responses = responses;
      confirm.authenticator = run.authenticators[0];
      answer_subject(nonce_key, request.subjects[0],
                     MsgType::kDisconnectConfirm, confirm.encode());
    }
    complete(run.result, RunResult::Outcome::kAgreed, "", {},
             prop.new_group.sequence, label);
  } else {
    if (request.kind == MembershipKind::kConnect) {
      // §4.5.3: a vetoed subject receives exactly the same rejection shape
      // as an immediately rejected one.
      reject_connect(request);
    } else if (request.kind == MembershipKind::kVoluntaryDisconnect) {
      // The departure itself cannot be refused (§4.5.4); a veto here only
      // means a recipient's view was transiently inconsistent or busy
      // (e.g. a racing state run). Retry with backoff — an immediate
      // retry would keep colliding with a steady stream of state runs —
      // up to a bound.
      int attempt = ++voluntary_retry_counts_[nonce_key];
      if (attempt <= kMaxVoluntaryRetries) {
        sponsor_nonces_.erase(nonce_key);
        if (callbacks_.schedule) {
          std::uint64_t backoff =
              50'000ull * static_cast<std::uint64_t>(attempt);
          callbacks_.schedule(
              backoff, [this, request = request,
                        signature = prop.request_signature]() mutable {
                process_membership_request(std::move(request),
                                           std::move(signature));
              });
        } else {
          deferred_membership_.emplace_back(request, prop.request_signature);
        }
      }
    }
    complete(run.result, RunResult::Outcome::kVetoed, diagnostic, vetoers,
             prop.new_group.sequence, label);
  }
  // A relayed eviction whose sponsorship rotated to the requester itself:
  // we are both requester and sponsor, so no decide message ever comes
  // back to settle the relayed handle (that normally happens on decide
  // receipt) — settle it here.
  settle_relayed_eviction(request, agreed, agreed ? "" : diagnostic, {},
                          prop.new_group.sequence, label);
}

void Replica::responder_outcome(const MembershipProposeMsg& propose,
                                ResponderRun& /*run*/, bool agreed,
                                const std::vector<RunResponse>& responses) {
  const MembershipProposal& prop = propose.proposal;
  if (agreed) apply_membership_change(prop);
  // A non-sponsor eviction proposer learns the outcome here.
  std::vector<PartyId> vetoers;
  for (const RunResponse& r : responses) {
    if (!r.decision().accept) vetoers.push_back(r.responder());
  }
  settle_relayed_eviction(prop.request, agreed, agreed ? "" : "eviction vetoed",
                          std::move(vetoers), prop.new_group.sequence,
                          prop.new_group.label());
}

void Replica::settle_relayed_eviction(const MembershipRequest& request,
                                      bool agreed, std::string diagnostic,
                                      std::vector<PartyId> vetoers,
                                      std::uint64_t sequence,
                                      const std::string& label) {
  if (!relayed_eviction_result_.has_value() ||
      request.kind != MembershipKind::kEvict || request.sender != self_ ||
      to_hex(request.request_nonce) != relayed_eviction_nonce_) {
    return;
  }
  RunHandle handle = *relayed_eviction_result_;
  relayed_eviction_result_.reset();
  close_subject_request(to_hex(request.request_nonce));
  complete(handle,
           agreed ? RunResult::Outcome::kAgreed : RunResult::Outcome::kVetoed,
           std::move(diagnostic), std::move(vetoers), sequence, label);
}

void Replica::apply_membership_change(const MembershipProposal& proposal) {
  if (group_tuple_ == proposal.new_group) {
    return;  // recovery redo of a decide whose effect already reached disk
  }
  members_ = proposal.new_members;
  group_tuple_ = proposal.new_group;
  note_sequence(proposal.new_group.sequence);

  CoordEvent event;
  event.object = object_;
  event.sequence = proposal.new_group.sequence;
  if (proposal.request.kind == MembershipKind::kConnect) {
    const PartyId& subject = proposal.request.subjects[0];
    try {
      callbacks_.learn_key(
          subject,
          crypto::RsaPublicKey::decode(proposal.request.subject_public_key));
    } catch (const CodecError&) {
      // Unreachable for an agreed run: the key decoded during validation.
    }
    event.kind = CoordEvent::Kind::kMemberConnected;
    event.party = subject;
  } else {
    event.kind = CoordEvent::Kind::kMemberDisconnected;
    event.party = proposal.request.subjects[0];
    event.detail = proposal.request.kind == MembershipKind::kEvict
                       ? "evicted"
                       : "voluntary";
  }
  record_evidence(evidence_kind::kMembershipApplied,
                  proposal.new_group.encode());
  journal_snapshot();
  impl_.coord_callback(event);
  if (callbacks_.notify) callbacks_.notify(event);
}

// ---------------------------------------------------------------------------
// Subject side: welcome / reject / confirm
// ---------------------------------------------------------------------------

void Replica::handle_connect_welcome(const PartyId& from, const Bytes& body) {
  if (!subject_request_.has_value() ||
      subject_request_->request.kind != MembershipKind::kConnect) {
    if (journaling()) {
      // A sponsor re-answering our crash-window probe after the welcome
      // already arrived: tolerate the duplicate rather than blame it.
      ConnectWelcomeMsg dup = ConnectWelcomeMsg::decode(body);
      if (connected_ && dup.new_group == group_tuple_) {
        record_anomaly("duplicate connect welcome", from);
        return;
      }
    }
    record_violation("unsolicited connect welcome", from);
    return;
  }
  ConnectWelcomeMsg msg = ConnectWelcomeMsg::decode(body);
  SubjectRequest pending = std::move(*subject_request_);
  subject_request_.reset();

  auto fail = [&](const std::string& why) {
    record_violation("invalid connect welcome: " + why, from);
    complete(pending.result, RunResult::Outcome::kAborted,
             "invalid welcome: " + why, {}, 0, "");
  };

  if (msg.object != object_ || msg.sponsor != from) {
    fail("wrong object or sender");
    return;
  }
  if (msg.members.empty() || msg.members.back() != self_) {
    fail("subject is not the most recent member");
    return;
  }
  if (msg.member_public_keys.size() != msg.members.size()) {
    fail("key list does not match member list");
    return;
  }
  if (hash_members(msg.members) != msg.new_group.members_hash) {
    fail("member list does not hash to group tuple");
    return;
  }
  if (crypto::Sha256::hash(msg.authenticator) != msg.new_group.rand_hash) {
    fail("authenticator mismatch");
    return;
  }
  if (crypto::Sha256::hash(msg.agreed_state) != msg.agreed.state_hash) {
    fail("agreed state does not match agreed tuple");
    return;
  }

  // Decode the member key directory; cross-check any keys already known.
  std::map<PartyId, crypto::RsaPublicKey> directory;
  for (std::size_t i = 0; i < msg.members.size(); ++i) {
    crypto::RsaPublicKey pub;
    try {
      pub = crypto::RsaPublicKey::decode(msg.member_public_keys[i]);
    } catch (const CodecError&) {
      fail("undecodable member key for " + msg.members[i].str());
      return;
    }
    const crypto::RsaPublicKey* known = callbacks_.key_of(msg.members[i]);
    if (known != nullptr && !(*known == pub)) {
      fail("key directory contradicts known key for " + msg.members[i].str());
      return;
    }
    directory.emplace(msg.members[i], std::move(pub));
  }

  // Sponsor's signature over the authoritative fields.
  if (!directory.at(msg.sponsor).verify(msg.signed_bytes(),
                                        msg.sponsor_signature)) {
    fail("bad sponsor signature");
    return;
  }

  // Each aggregated response vouches for the agreed state and new group.
  std::set<PartyId> responders;
  for (const MembershipRespondMsg& resp_msg : msg.responses) {
    const MembershipResponse& resp = resp_msg.response;
    auto key_it = directory.find(resp.responder);
    if (key_it == directory.end() ||
        !key_it->second.verify(resp.signed_bytes(), resp_msg.signature)) {
      fail("badly signed response from " + resp.responder.str());
      return;
    }
    if (resp.new_group != msg.new_group) {
      fail("response for a different run");
      return;
    }
    if (!resp.decision.accept) {
      fail("welcome contains a veto");
      return;
    }
    if (resp.agreed_view != msg.agreed) {
      fail("response vouches for different agreed state");
      return;
    }
    responders.insert(resp.responder);
  }
  for (const PartyId& member : msg.members) {
    if (member == msg.sponsor || member == self_) continue;
    if (!responders.contains(member)) {
      fail("missing response from " + member.str());
      return;
    }
  }

  // Install the verified replica.
  for (auto& [member, pub] : directory) {
    if (member != self_) callbacks_.learn_key(member, pub);
  }
  members_ = msg.members;
  group_tuple_ = msg.new_group;
  agreed_tuple_ = msg.agreed;
  agreed_state_ = msg.agreed_state;
  impl_.apply_state(agreed_state_);
  note_sequence(msg.new_group.sequence);
  note_sequence(msg.agreed.sequence);
  connected_ = true;
  record_evidence(evidence_kind::kMembershipApplied, msg.new_group.encode());
  journal_snapshot();
  close_subject_request(to_hex(pending.request.request_nonce));

  CoordEvent event;
  event.kind = CoordEvent::Kind::kMemberConnected;
  event.object = object_;
  event.party = self_;
  event.sequence = msg.new_group.sequence;
  impl_.coord_callback(event);
  if (callbacks_.notify) callbacks_.notify(event);

  complete(pending.result, RunResult::Outcome::kAgreed, "", {},
           msg.new_group.sequence, msg.new_group.label());
  drain_deferred_membership();
}

void Replica::handle_connect_reject(const PartyId& from, const Bytes& body) {
  if (!subject_request_.has_value() ||
      subject_request_->request.kind != MembershipKind::kConnect) {
    if (journaling()) {
      record_anomaly("duplicate connect reject", from);
      return;
    }
    record_violation("unsolicited connect reject", from);
    return;
  }
  ConnectRejectMsg msg = ConnectRejectMsg::decode(body);
  if (msg.request_nonce != subject_request_->request.request_nonce) {
    record_violation("connect reject for a different request", from);
    return;
  }
  // Verify the sponsor's signature when its key is known; a subject outside
  // the group may not know it, in which case the rejection is advisory
  // (either way the subject learns nothing more, §4.5.3).
  const crypto::RsaPublicKey* pub = callbacks_.key_of(from);
  if (pub != nullptr && !pub->verify(msg.signed_bytes(), msg.signature)) {
    record_violation("bad signature on connect reject", from);
    return;
  }
  SubjectRequest pending = std::move(*subject_request_);
  subject_request_.reset();
  close_subject_request(to_hex(pending.request.request_nonce));
  complete(pending.result, RunResult::Outcome::kVetoed,
           "connection request rejected", {PartyId{from}}, 0, "");
  drain_deferred_membership();
}

void Replica::handle_disconnect_confirm(const PartyId& from,
                                        const Bytes& body) {
  if (!subject_request_.has_value() ||
      subject_request_->request.kind != MembershipKind::kVoluntaryDisconnect) {
    if (journaling()) {
      record_anomaly("duplicate disconnect confirm", from);
      return;
    }
    record_violation("unsolicited disconnect confirm", from);
    return;
  }
  DisconnectConfirmMsg msg = DisconnectConfirmMsg::decode(body);
  if (crypto::Sha256::hash(msg.authenticator) != msg.new_group.rand_hash) {
    record_violation("disconnect confirm authenticator mismatch", from);
    return;
  }
  record_evidence(evidence_kind::kMembershipDecide, msg.encode());
  SubjectRequest pending = std::move(*subject_request_);
  subject_request_.reset();
  connected_ = false;
  abort_runs_on_departure();
  journal_snapshot();
  close_subject_request(to_hex(pending.request.request_nonce));
  complete(pending.result, RunResult::Outcome::kAgreed, "", {},
           msg.new_group.sequence, msg.new_group.label());
  // Any requests we were still sponsoring must find a new sponsor.
  drain_deferred_membership();
}

void Replica::abort_runs_on_departure() {
  // Departure aborts our participation in any run still in flight: once
  // we are out of the group the decide for a run we responded to before
  // leaving can never reach us (members do not send to non-members,
  // §4.5), so a retained responder run — and its accept lock — would
  // hold this replica busy() forever, wedging every membership request
  // it is later asked to sponsor or relay after reconnecting.
  for (const auto& [label, run] : responder_runs_) {
    wire::Encoder note;
    note.str(label).str(self_.str());
    record_evidence("run.abandoned", std::move(note).take());
    close_run(walrec::kResponderClosed, label);
  }
  responder_runs_.clear();
}

// ---------------------------------------------------------------------------
// Membership journaling & recovery helpers
// ---------------------------------------------------------------------------

bool Replica::maybe_reanswer_membership_request(const std::string& nonce_key,
                                                const PartyId& subject) {
  if (!journaling()) return false;
  auto it = subject_answers_.find(nonce_key);
  if (it == subject_answers_.end()) return false;  // run still in progress
  const auto& [type, payload] = it->second;
  record_anomaly("re-answered duplicate membership request", subject);
  send_envelope(subject, type, payload);
  return true;
}

void Replica::answer_subject(const std::string& nonce_key,
                             const PartyId& subject, MsgType type,
                             Bytes payload) {
  if (journaling()) {
    wire::Encoder enc;
    enc.str(nonce_key).u8(static_cast<std::uint8_t>(type)).blob(payload);
    journal_record(walrec::kSubjectAnswer, std::move(enc).take());
    subject_answers_.insert_or_assign(nonce_key,
                                      std::make_pair(type, payload));
  }
  send_envelope(subject, type, std::move(payload));
}

void Replica::reject_connect(const MembershipRequest& request) {
  ConnectRejectMsg reject;
  reject.sponsor = self_;
  reject.object = object_;
  reject.request_nonce = request.request_nonce;
  reject.signature = key_.sign(reject.signed_bytes());
  answer_subject(to_hex(request.request_nonce), request.sender,
                 MsgType::kConnectReject, reject.encode());
}

void Replica::journal_subject_request(const MembershipRequest& request,
                                      const Bytes& signature,
                                      const PartyId& sent_to,
                                      bool relayed_eviction) {
  pending_subject_record_ =
      SubjectRequestRecord{request, signature, sent_to, relayed_eviction};
  if (!journaling()) return;
  wire::Encoder enc;
  enc.blob(pending_subject_record_->encode());
  journal_record(walrec::kSubjectRequest, std::move(enc).take());
  journal_barrier();
}

void Replica::close_subject_request(const std::string& nonce_key) {
  if (pending_subject_record_.has_value() &&
      to_hex(pending_subject_record_->request.request_nonce) == nonce_key) {
    pending_subject_record_.reset();
  }
  if (journaling()) {
    wire::Encoder enc;
    enc.str(nonce_key);
    journal_record(walrec::kSubjectClosed, std::move(enc).take());
    journal_barrier();
  }
  // The subject's side of the membership run closed here.
  seal_evidence();
}

void Replica::arm_subject_probe(std::string nonce_key, int attempt) {
  if (!journaling() || !callbacks_.schedule ||
      run_probe_interval_micros_ == 0 || attempt > max_run_probes_) {
    return;
  }
  callbacks_.schedule(
      run_probe_interval_micros_,
      [this, nonce_key = std::move(nonce_key), attempt]() mutable {
        if (!pending_subject_record_.has_value() ||
            to_hex(pending_subject_record_->request.request_nonce) !=
                nonce_key) {
          return;  // answered; probe dies
        }
        resend_subject_request();
        arm_subject_probe(std::move(nonce_key), attempt + 1);
      });
}

void Replica::resend_subject_request() {
  if (!pending_subject_record_.has_value()) return;
  // Copy: the moot-eviction branch below closes the record mid-function.
  const SubjectRequestRecord rec = *pending_subject_record_;
  const std::string nonce_key = to_hex(rec.request.request_nonce);
  // Re-resolve the legitimate sponsor against our CURRENT view before
  // re-driving: the sponsor the request first went to may itself have
  // departed or been evicted while the request waited, and a non-member
  // silently drops our traffic as an anomaly (§4.5) — re-probing a ghost
  // would hang this run forever. A connecting outsider has no group view
  // of its own to re-resolve against, so connect requests keep the
  // recorded target.
  PartyId target = rec.sent_to;
  if (rec.request.kind == MembershipKind::kVoluntaryDisconnect) {
    if (connected_ && members_.size() > 1) {
      target = disconnect_sponsor(self_);
    }
  } else if (rec.request.kind == MembershipKind::kEvict) {
    bool any_subject_member = false;
    for (const PartyId& subject : rec.request.subjects) {
      if (is_member(subject)) any_subject_member = true;
    }
    if (!any_subject_member) {
      // Every subject already left the group through a concurrent
      // membership run; a sponsor drops an inapplicable eviction without
      // answering, so conclude the run locally instead of probing forever.
      if (relayed_eviction_result_.has_value() &&
          nonce_key == relayed_eviction_nonce_) {
        RunHandle handle = *relayed_eviction_result_;
        relayed_eviction_result_.reset();
        complete(handle, RunResult::Outcome::kAborted,
                 "eviction subjects already left the group", {},
                 group_tuple_.sequence, "");
      }
      close_subject_request(nonce_key);
      return;
    }
    std::optional<PartyId> sponsor =
        sponsor_for_removal(members_, rec.request.subjects, sponsor_policy_);
    if (sponsor.has_value()) {
      if (*sponsor == self_) {
        // Sponsorship rotated to us while the request waited: act on our
        // own request as sponsor (§4.5.4). The run's outcome settles the
        // relayed handle.
        process_membership_request(rec.request, rec.signature);
        return;
      }
      target = *sponsor;
    }
  }
  MsgType type = rec.request.kind == MembershipKind::kVoluntaryDisconnect
                     ? MsgType::kDisconnectRequest
                     : MsgType::kConnectRequest;
  send_envelope(target, type,
                encode_request_with_signature(rec.request, rec.signature));
}

}  // namespace b2b::core
