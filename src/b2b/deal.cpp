#include "b2b/deal.hpp"

#include <algorithm>

#include "b2b/coordinator.hpp"
#include "b2b/recovery.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "wire/codec.hpp"

namespace b2b::core {

namespace {

/// Deal ids derived locally look like "deal:<initiator>:<n>". Returns the
/// trailing counter when `id` matches this party's prefix, 0 otherwise —
/// used to keep the local counter ahead of replayed deals.
std::uint64_t local_deal_counter(const std::string& id,
                                 const std::string& self) {
  const std::string prefix = "deal:" + self + ":";
  if (id.rfind(prefix, 0) != 0) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = prefix.size(); i < id.size(); ++i) {
    const char c = id[i];
    if (c < '0' || c > '9') return 0;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

std::vector<std::string> DealCoordinator::leg_labels(const Deal& deal) {
  std::vector<std::string> labels;
  labels.reserve(deal.legs.size());
  for (const Leg& leg : deal.legs) labels.push_back(leg.label);
  return labels;
}

DealCoordinator::DealCoordinator(Coordinator& host) : host_(host) {}

void DealCoordinator::enable_ttp_escape(TtpEscape escape) {
  std::lock_guard<std::mutex> lock(mutex_);
  escape_ = std::move(escape);
}

DealCoordinator::Stats DealCoordinator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::optional<DealDecisionMsg> DealCoordinator::decision_of(
    const std::string& deal_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = deals_.find(deal_id);
  if (it == deals_.end()) return std::nullopt;
  return it->second.decision;
}

// ---------------------------------------------------------------------------
// Host plumbing
// ---------------------------------------------------------------------------

bool DealCoordinator::exec_on_object(const ObjectId& object,
                                     const std::function<void(Replica&)>& fn) {
  Coordinator::ObjectShard& shard = host_.find_shard_or_throw(object);
  std::lock_guard<std::recursive_mutex> lock(*shard.mutex);
  if (host_.crashed_.load(std::memory_order_acquire)) return false;
  try {
    fn(*shard.replica);
  } catch (const SimulatedCrash& crash) {
    B2B_DEBUG(host_.self_, ": simulated crash at ", crash.point);
    host_.crashed_.store(true, std::memory_order_release);
    return false;
  }
  return true;
}

void DealCoordinator::hit_crash_point(const char* point) {
  std::lock_guard<std::mutex> lock(host_.global_mutex_);
  if (!host_.armed_crash_point_.empty() &&
      host_.armed_crash_point_ == point) {
    throw SimulatedCrash{point};
  }
}

void DealCoordinator::journal_deal(std::uint8_t type, Bytes payload) {
  if (!host_.journal_) return;
  std::lock_guard<std::mutex> lock(host_.journal_mutex_);
  host_.journal_->append(type, std::move(payload));
  host_.journal_->sync();
}

void DealCoordinator::schedule(std::uint64_t delay_micros,
                               std::function<void()> fn) {
  host_.clock_.schedule_after(
      delay_micros, [anchor = host_.anchor_, fn = std::move(fn)] {
        std::lock_guard<std::mutex> guard(anchor->mutex);
        Coordinator* coordinator = anchor->coordinator;
        if (coordinator == nullptr) return;
        if (coordinator->crashed_.load(std::memory_order_acquire)) return;
        try {
          fn();
        } catch (const SimulatedCrash& crash) {
          B2B_DEBUG(coordinator->self_, ": simulated crash at ", crash.point);
          coordinator->crashed_.store(true, std::memory_order_release);
        }
      });
}

Replica::DealHooks DealCoordinator::make_hooks() {
  Replica::DealHooks hooks;
  hooks.on_leg_prepared = [this](const ObjectId& object,
                                 const std::string& label, bool all_accept,
                                 const std::vector<PartyId>& vetoers) {
    on_leg_prepared(object, label, all_accept, vetoers);
  };
  hooks.on_leg_deadline = [this](const ObjectId& object,
                                 const std::string& label) {
    on_leg_deadline(object, label);
  };
  return hooks;
}

void DealCoordinator::complete_handle(const RunHandle& handle,
                                      RunResult::Outcome outcome,
                                      std::string diagnostic,
                                      std::vector<PartyId> vetoers,
                                      const std::string& label) {
  handle->diagnostic = std::move(diagnostic);
  handle->vetoers = std::move(vetoers);
  handle->run_label = label;
  // Outcome last: done() pollers must observe the fields above.
  handle->outcome = outcome;
  if (handle->on_complete) handle->on_complete(*handle);
}

std::string DealCoordinator::derive_deal_id(
    const std::vector<LegSpec>& legs) {
  (void)legs;
  std::lock_guard<std::mutex> lock(mutex_);
  return "deal:" + host_.self_.str() + ":" +
         std::to_string(next_local_seq_++);
}

// ---------------------------------------------------------------------------
// Initiation
// ---------------------------------------------------------------------------

RunHandle DealCoordinator::start_deal(DealSpec spec) {
  if (spec.legs.empty()) {
    return host_.aborted_handle("deal with no legs");
  }
  for (std::size_t i = 0; i < spec.legs.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.legs.size(); ++j) {
      if (spec.legs[i].object == spec.legs[j].object) {
        return host_.aborted_handle("deal with duplicate leg object: " +
                                    spec.legs[i].object.str());
      }
    }
  }
  const std::string deal_id =
      spec.deal_id.empty() ? derive_deal_id(spec.legs) : spec.deal_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (deals_.contains(deal_id)) {
      return host_.aborted_handle("duplicate deal id: " + deal_id);
    }
  }

  // Phase 1: stage a proposer run on every leg object. Nothing is sent;
  // a failure (busy replica, lost race) unwinds the legs staged so far.
  struct Staged {
    ObjectId object;
    Replica::StagedLeg leg;
  };
  std::vector<Staged> staged;
  std::string failure;
  for (const LegSpec& leg_spec : spec.legs) {
    Replica::StagedLeg out;
    if (!exec_on_object(leg_spec.object, [&](Replica& replica) {
          out = replica.stage_deal_run(leg_spec.is_update, leg_spec.payload,
                                       leg_spec.new_state, deal_id);
        })) {
      failure = "coordinator crashed";
      break;
    }
    if (out.label.empty()) {
      failure = leg_spec.object.str() + ": " + out.handle->diagnostic;
      break;
    }
    staged.push_back({leg_spec.object, std::move(out)});
  }
  if (!failure.empty()) {
    for (const Staged& s : staged) {
      exec_on_object(s.object, [&](Replica& replica) {
        replica.cancel_staged_run(s.leg.label);
      });
    }
    return host_.aborted_handle("deal staging failed: " + failure);
  }

  // Build and sign the enlist binding the deal id to the complete leg set.
  DealProposal proposal;
  proposal.deal_id = deal_id;
  proposal.initiator = host_.self_;
  for (const Staged& s : staged) {
    proposal.legs.push_back(DealLeg{s.object, s.leg.proposed});
  }
  if (spec.deadline_micros != 0) {
    proposal.deadline_micros =
        host_.clock_.now_micros() + spec.deadline_micros;
  }
  DealEnlistMsg enlist;
  enlist.proposal = proposal;
  enlist.signature = host_.key_.sign(proposal.signed_bytes());

  RunHandle result = std::make_shared<RunResult>();
  bool all_prepared = true;
  std::vector<std::string> labels;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Deal deal;
    deal.id = deal_id;
    deal.enlist = enlist;
    deal.result = result;
    for (const Staged& s : staged) {
      Leg leg;
      leg.object = s.object;
      leg.label = s.leg.label;
      leg.proposed = s.leg.proposed;
      leg.handle = s.leg.handle;
      leg.recipient_count = s.leg.recipient_count;
      if (leg.recipient_count == 0) {
        // Single-member group: nothing to collect, prepared by construction.
        leg.prepared = true;
        leg.accepted = true;
      } else {
        all_prepared = false;
      }
      leg_index_[leg.label] = deal_id;
      deal.legs.push_back(std::move(leg));
    }
    ++stats_.started;
    labels = leg_labels(deal);
    deals_.emplace(deal_id, std::move(deal));
  }

  // Phase 2: make the deal durable, then open every leg.
  try {
    hit_crash_point("deal-open.pre-journal");
    journal_deal(walrec::kDealOpen, enlist.encode());
    hit_crash_point("deal-open.journaled");
  } catch (const SimulatedCrash& crash) {
    B2B_DEBUG(host_.self_, ": simulated crash at ", crash.point);
    host_.crashed_.store(true, std::memory_order_release);
    return result;
  }
  host_.record_evidence(evidence_kind::kDealOpen, enlist.encode(), labels);
  B2B_DEBUG(host_.self_, ": deal ", deal_id, " open with ",
            proposal.legs.size(), " legs");
  for (const Staged& s : staged) {
    if (!exec_on_object(s.object, [&](Replica& replica) {
          replica.launch_staged_run(s.leg.label, enlist);
        })) {
      return result;
    }
  }

  if (all_prepared) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = deals_.find(deal_id);
    if (it != deals_.end() && it->second.phase == Phase::kPreparing) {
      it->second.phase = Phase::kDeciding;
      it->second.verdict = DealDecision::Verdict::kCommit;
      schedule(0, [this, deal_id] { decide_deal(deal_id); });
    }
  }
  if (spec.deadline_micros != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = deals_.find(deal_id);
    if (it != deals_.end()) {
      arm_deal_deadline(it->second, spec.deadline_micros);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Leg hooks (called under the leg's shard lock; mutex_ is a leaf here)
// ---------------------------------------------------------------------------

void DealCoordinator::on_leg_prepared(const ObjectId& object,
                                      const std::string& label,
                                      bool all_accept,
                                      const std::vector<PartyId>& vetoers) {
  std::string to_decide;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto idx = leg_index_.find(label);
    if (idx == leg_index_.end()) return;
    auto it = deals_.find(idx->second);
    if (it == deals_.end()) return;
    Deal& deal = it->second;
    if (deal.phase != Phase::kPreparing) return;
    bool everything_prepared = true;
    for (Leg& leg : deal.legs) {
      if (leg.label == label) {
        leg.prepared = true;
        leg.accepted = all_accept;
        leg.vetoers = vetoers;
      }
      if (!leg.prepared) everything_prepared = false;
    }
    if (!all_accept) {
      deal.phase = Phase::kDeciding;
      deal.verdict = DealDecision::Verdict::kAbort;
      deal.diagnostic = "leg vetoed on " + object.str();
      to_decide = deal.id;
    } else if (everything_prepared) {
      deal.phase = Phase::kDeciding;
      deal.verdict = DealDecision::Verdict::kCommit;
      to_decide = deal.id;
    }
  }
  if (!to_decide.empty()) {
    schedule(0, [this, to_decide] { decide_deal(to_decide); });
  }
}

void DealCoordinator::on_leg_deadline(const ObjectId& object,
                                      const std::string& label) {
  std::string to_decide;
  Bytes resend;
  PartyId ttp;
  ObjectId first_object;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto idx = leg_index_.find(label);
    if (idx == leg_index_.end()) return;
    auto it = deals_.find(idx->second);
    if (it == deals_.end()) return;
    Deal& deal = it->second;
    if (deal.phase == Phase::kPreparing) {
      // A leg stalled past its deadline: the initiator's escape is the
      // unilateral signed abort — no TTP needed, and the parked
      // participants are released by the decision (or their own §7
      // referral, which can only certify abort for an undecided run).
      deal.phase = Phase::kDeciding;
      deal.verdict = DealDecision::Verdict::kAbort;
      deal.diagnostic = "leg deadline expired on " + object.str();
      to_decide = deal.id;
    } else if (deal.phase == Phase::kAwaitingTtp && escape_ &&
               !deal.ttp_request.empty()) {
      // Registration in flight: nudge the TTP again (the verdict cache
      // makes duplicates harmless).
      resend = deal.ttp_request;
      ttp = escape_->ttp;
      first_object = deal.legs.front().object;
    }
  }
  if (!to_decide.empty()) {
    schedule(0, [this, to_decide] { decide_deal(to_decide); });
  } else if (!resend.empty()) {
    host_.send(ttp, Envelope{MsgType::kDealTerminationRequest, first_object,
                             std::move(resend)});
  }
}

void DealCoordinator::arm_deal_deadline(Deal& deal,
                                        std::uint64_t deadline_micros) {
  if (deal.deadline_armed) return;
  deal.deadline_armed = true;
  const std::string deal_id = deal.id;
  const ObjectId object = deal.legs.front().object;
  const std::string label = deal.legs.front().label;
  schedule(deadline_micros,
           [this, object, label] { on_leg_deadline(object, label); });
}

// ---------------------------------------------------------------------------
// Decision
// ---------------------------------------------------------------------------

void DealCoordinator::decide_deal(const std::string& deal_id) {
  DealDecisionMsg msg;
  bool to_ttp = false;
  std::vector<std::string> labels;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = deals_.find(deal_id);
    if (it == deals_.end() || it->second.phase != Phase::kDeciding) return;
    Deal& deal = it->second;
    DealDecision decision;
    decision.deal_id = deal_id;
    decision.initiator = host_.self_;
    decision.verdict = deal.verdict;
    decision.legs = deal.enlist.proposal.legs;
    decision.diagnostic = deal.diagnostic;
    msg.decision = std::move(decision);
    msg.signature = host_.key_.sign(msg.decision.signed_bytes());
    // The decision is durable before any leg acts on it: recovery must
    // never see a half-replicated deal without knowing the verdict.
    hit_crash_point("deal-decide.pre-journal");
    journal_deal(walrec::kDealDecided, msg.encode());
    hit_crash_point("deal-decide.journaled");
    deal.decision = msg;
    labels = leg_labels(deal);
    if (deal.verdict == DealDecision::Verdict::kCommit &&
        escape_.has_value()) {
      deal.phase = Phase::kAwaitingTtp;
      to_ttp = true;
    } else {
      deal.phase = Phase::kReplicating;
    }
  }
  host_.record_evidence(evidence_kind::kDealDecision, msg.encode(), labels);
  B2B_DEBUG(host_.self_, ": deal ", deal_id, " decided ",
            msg.decision.verdict == DealDecision::Verdict::kCommit
                ? "COMMIT"
                : "ABORT");
  if (to_ttp) {
    register_with_ttp(deal_id);
  } else {
    replicate_decision(deal_id);
  }
}

void DealCoordinator::register_with_ttp(const std::string& deal_id) {
  struct LegSnap {
    ObjectId object;
    std::string label;
  };
  std::vector<LegSnap> legs;
  PartyId ttp;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = deals_.find(deal_id);
    if (it == deals_.end() || !escape_.has_value()) return;
    for (const Leg& leg : it->second.legs) {
      legs.push_back({leg.object, leg.label});
    }
    ttp = escape_->ttp;
  }
  // Bundle every leg's transcript (shard locks; mutex_ not held).
  DealTerminationRequest request;
  request.deal_id = deal_id;
  request.requester = host_.self_;
  for (const LegSnap& leg : legs) {
    if (!exec_on_object(leg.object, [&](Replica& replica) {
          auto transcript = replica.staged_termination_request(leg.label);
          if (transcript.has_value()) {
            request.legs.push_back(std::move(*transcript));
          }
        })) {
      return;
    }
  }
  Bytes body =
      request.encode_with_signature(host_.key_.sign(request.signed_bytes()));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = deals_.find(deal_id);
    if (it == deals_.end()) return;
    it->second.ttp_request = body;
    ++stats_.ttp_registrations;
    wire::Encoder enc;
    enc.str(deal_id);
    journal_deal(walrec::kDealTtpSubmitted, std::move(enc).take());
  }
  host_.record_evidence(evidence_kind::kDealTtpRequest, body);
  host_.send(ttp, Envelope{MsgType::kDealTerminationRequest,
                           legs.front().object, std::move(body)});
}

bool DealCoordinator::on_ttp_verdict(const PartyId& from,
                                     const Envelope& envelope) {
  if (envelope.type != MsgType::kDealTerminationVerdict) return false;
  Bytes signature;
  DealTerminationVerdict verdict;
  try {
    verdict = DealTerminationVerdict::decode_fields(envelope.body, &signature);
  } catch (const CodecError& e) {
    host_.record_evidence(
        evidence_kind::kViolation,
        bytes_of("undecodable deal verdict from " + from.str()));
    return true;
  }
  std::vector<std::string> labels;
  Bytes overriding_abort;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!escape_.has_value() || from != escape_->ttp ||
        !escape_->ttp_key.verify(verdict.signed_bytes(), signature)) {
      host_.record_evidence(
          evidence_kind::kViolation,
          bytes_of("unverifiable deal verdict from " + from.str()));
      return true;
    }
    auto it = deals_.find(verdict.deal_id);
    if (it == deals_.end() || it->second.phase != Phase::kAwaitingTtp) {
      return true;  // duplicate or late verdict: already acted on
    }
    Deal& deal = it->second;
    journal_deal(walrec::kDealVerdictDelivered, envelope.body);
    ++stats_.ttp_verdicts;
    if (verdict.verdict != 1) {
      // Certified abort overrides the journaled commit decision; the
      // replacement is journaled so recovery replays the final word.
      DealDecision decision;
      decision.deal_id = deal.id;
      decision.initiator = host_.self_;
      decision.verdict = DealDecision::Verdict::kAbort;
      decision.legs = deal.enlist.proposal.legs;
      decision.diagnostic = "ttp certified abort";
      DealDecisionMsg msg;
      msg.decision = std::move(decision);
      msg.signature = host_.key_.sign(msg.decision.signed_bytes());
      journal_deal(walrec::kDealDecided, msg.encode());
      overriding_abort = msg.encode();
      labels = leg_labels(deal);
      deal.decision = std::move(msg);
      deal.verdict = DealDecision::Verdict::kAbort;
      deal.diagnostic = "ttp certified abort";
    }
    deal.phase = Phase::kReplicating;
  }
  host_.record_evidence(evidence_kind::kDealTtpVerdict, envelope.body);
  if (!overriding_abort.empty()) {
    // The legs are sent the abort, not the commit registered with the
    // TTP: the evidence log says so, and the verdict before it rules the
    // commit out (Arbiter::arbitrate_deal).
    host_.record_evidence(evidence_kind::kDealDecision, overriding_abort,
                          labels);
  }
  replicate_decision(verdict.deal_id);
  return true;
}

// ---------------------------------------------------------------------------
// Replication & close
// ---------------------------------------------------------------------------

void DealCoordinator::replicate_decision(const std::string& deal_id) {
  struct LegSnap {
    ObjectId object;
    std::string label;
  };
  std::vector<LegSnap> legs;
  DealDecisionMsg msg;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = deals_.find(deal_id);
    if (it == deals_.end() || it->second.phase != Phase::kReplicating ||
        !it->second.decision.has_value()) {
      return;
    }
    msg = *it->second.decision;
    for (const Leg& leg : it->second.legs) {
      legs.push_back({leg.object, leg.label});
    }
  }
  const bool commit = msg.decision.verdict == DealDecision::Verdict::kCommit;
  bool first = true;
  for (const LegSnap& leg : legs) {
    if (!first) hit_crash_point("deal-decide.mid-replicate");
    first = false;
    if (!exec_on_object(leg.object, [&](Replica& replica) {
          if (commit) {
            replica.commit_staged_run(leg.label, msg);
          } else {
            replica.abort_staged_run(leg.label, msg);
          }
        })) {
      return;
    }
  }
  close_deal(deal_id);
}

void DealCoordinator::close_deal(const std::string& deal_id) {
  RunHandle handle;
  RunResult::Outcome outcome = RunResult::Outcome::kAborted;
  std::string diagnostic;
  std::vector<PartyId> vetoers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = deals_.find(deal_id);
    if (it == deals_.end() || it->second.phase == Phase::kClosed) return;
    Deal& deal = it->second;
    deal.phase = Phase::kClosed;
    wire::Encoder enc;
    enc.str(deal_id);
    journal_deal(walrec::kDealClosed, std::move(enc).take());
    const bool commit =
        deal.decision.has_value() &&
        deal.decision->decision.verdict == DealDecision::Verdict::kCommit;
    if (commit) {
      outcome = RunResult::Outcome::kAgreed;
      diagnostic = "deal committed";
      ++stats_.committed;
    } else {
      for (const Leg& leg : deal.legs) {
        vetoers.insert(vetoers.end(), leg.vetoers.begin(),
                       leg.vetoers.end());
      }
      outcome = vetoers.empty() ? RunResult::Outcome::kAborted
                                : RunResult::Outcome::kVetoed;
      diagnostic = deal.diagnostic.empty() ? "deal aborted" : deal.diagnostic;
      ++stats_.aborted;
    }
    handle = deal.result;
    for (const Leg& leg : deal.legs) {
      leg_index_.erase(leg.label);
    }
  }
  host_.record_evidence(evidence_kind::kDealClosed, bytes_of(deal_id));
  host_.seal_evidence();
  B2B_DEBUG(host_.self_, ": deal ", deal_id, " closed: ", diagnostic);
  complete_handle(handle, outcome, std::move(diagnostic), std::move(vetoers),
                  deal_id);
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

std::vector<RunHandle> DealCoordinator::resume(RecoveredDealState recovered) {
  std::vector<RunHandle> handles;
  for (auto& [deal_id, enlist_bytes] : recovered.open) {
    DealEnlistMsg enlist;
    try {
      enlist = DealEnlistMsg::decode(enlist_bytes);
    } catch (const CodecError& e) {
      host_.record_evidence(
          evidence_kind::kViolation,
          bytes_of("undecodable journaled deal enlist: " + deal_id));
      continue;
    }

    Deal deal;
    deal.id = deal_id;
    deal.enlist = enlist;
    deal.result = std::make_shared<RunResult>();
    for (const DealLeg& l : enlist.proposal.legs) {
      Leg leg;
      leg.object = l.object;
      leg.label = l.proposed.label();
      leg.proposed = l.proposed;
      deal.legs.push_back(std::move(leg));
    }
    handles.push_back(deal.result);

    auto decision_it = recovered.decisions.find(deal_id);
    auto verdict_it = recovered.ttp_verdicts.find(deal_id);
    const bool ttp_pending = recovered.ttp_submitted.contains(deal_id) &&
                             verdict_it == recovered.ttp_verdicts.end();

    if (decision_it != recovered.decisions.end()) {
      // Verdict chosen before the crash. The journaled decision map holds
      // the last word (the TTP-abort path journals an overriding abort
      // after kDealVerdictDelivered).
      DealDecisionMsg msg;
      try {
        msg = DealDecisionMsg::decode(decision_it->second);
      } catch (const CodecError& e) {
        host_.record_evidence(
            evidence_kind::kViolation,
            bytes_of("undecodable journaled deal decision: " + deal_id));
        continue;
      }
      bool replayed_verdict_abort = false;
      if (verdict_it != recovered.ttp_verdicts.end()) {
        Bytes signature;
        try {
          DealTerminationVerdict verdict = DealTerminationVerdict::decode_fields(
              verdict_it->second, &signature);
          replayed_verdict_abort = verdict.verdict != 1;
        } catch (const CodecError&) {
        }
      }
      if (replayed_verdict_abort &&
          msg.decision.verdict == DealDecision::Verdict::kCommit) {
        // Crash landed between journaling the verdict and journaling the
        // overriding abort decision: re-derive and journal it now.
        DealDecision decision;
        decision.deal_id = deal_id;
        decision.initiator = host_.self_;
        decision.verdict = DealDecision::Verdict::kAbort;
        decision.legs = enlist.proposal.legs;
        decision.diagnostic = "ttp certified abort";
        msg.decision = std::move(decision);
        msg.signature = host_.key_.sign(msg.decision.signed_bytes());
        journal_deal(walrec::kDealDecided, msg.encode());
      }
      if (replayed_verdict_abort) {
        // on_ttp_verdict files the verdict and the overriding abort after
        // journaling them; a crash in between leaves the evidence log
        // naming the registered commit as the last decision. File them.
        const Bytes abort = msg.encode();
        const std::vector<Bytes> filed = host_.run_evidence(
            deal.legs.front().label, evidence_kind::kDealDecision);
        if (filed.empty() || filed.back() != abort) {
          host_.record_evidence(evidence_kind::kDealTtpVerdict,
                                verdict_it->second);
          host_.record_evidence(evidence_kind::kDealDecision, abort,
                                leg_labels(deal));
        }
      }
      deal.verdict = msg.decision.verdict;
      deal.diagnostic = msg.decision.diagnostic;
      deal.decision = std::move(msg);
      if (ttp_pending && deal.verdict == DealDecision::Verdict::kCommit &&
          escape_.has_value()) {
        // Registered but unanswered: re-submit (the TTP's verdict cache
        // makes this idempotent) and wait.
        deal.phase = Phase::kAwaitingTtp;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.started;
          for (const Leg& leg : deal.legs) leg_index_[leg.label] = deal_id;
          deals_.insert_or_assign(deal_id, std::move(deal));
        }
        schedule(0, [this, id = deal_id] { register_with_ttp(id); });
      } else if (deal.verdict == DealDecision::Verdict::kCommit &&
                 escape_.has_value() &&
                 verdict_it == recovered.ttp_verdicts.end()) {
        // Decided commit, never registered: registration comes first.
        deal.phase = Phase::kAwaitingTtp;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.started;
          for (const Leg& leg : deal.legs) leg_index_[leg.label] = deal_id;
          deals_.insert_or_assign(deal_id, std::move(deal));
        }
        schedule(0, [this, id = deal_id] { register_with_ttp(id); });
      } else {
        // Decision is final (abort, certified commit, or no escape
        // configured): re-drive it into every leg. Legs already closed
        // before the crash make commit/abort_staged_run a no-op.
        deal.phase = Phase::kReplicating;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.started;
          for (const Leg& leg : deal.legs) leg_index_[leg.label] = deal_id;
          deals_.insert_or_assign(deal_id, std::move(deal));
        }
        schedule(0, [this, id = deal_id] { replicate_decision(id); });
      }
      continue;
    }

    // No decision yet: back to preparing. Re-send propose+enlist to
    // recipients whose responses are missing, re-derive preparedness from
    // the restored runs, and decide if everything is already in.
    deal.phase = Phase::kPreparing;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.started;
      for (const Leg& leg : deal.legs) leg_index_[leg.label] = deal_id;
      deals_.insert_or_assign(deal_id, std::move(deal));
    }
    bool lost_leg = false;
    for (const DealLeg& l : enlist.proposal.legs) {
      const std::string label = l.proposed.label();
      Replica::StagedRunStatus status;
      if (!exec_on_object(l.object, [&](Replica& replica) {
            if (!replica.resume_staged_run(label, enlist)) return;
            status = replica.staged_run_status(label);
          })) {
        return handles;
      }
      if (!status.open) {
        lost_leg = true;
        continue;
      }
      if (status.complete) {
        on_leg_prepared(l.object, label, status.all_accept, status.vetoers);
      }
    }
    std::string to_decide;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = deals_.find(deal_id);
      if (it != deals_.end() && it->second.phase == Phase::kPreparing) {
        if (lost_leg) {
          // A leg vanished without a journaled decision (it can only have
          // been closed by a decision or a cancel, neither of which is on
          // record): the safe outcome is abort.
          it->second.phase = Phase::kDeciding;
          it->second.verdict = DealDecision::Verdict::kAbort;
          it->second.diagnostic = "leg lost across recovery";
          to_decide = deal_id;
        } else if (enlist.proposal.deadline_micros != 0) {
          const std::uint64_t now = host_.clock_.now_micros();
          if (now >= enlist.proposal.deadline_micros) {
            it->second.phase = Phase::kDeciding;
            it->second.verdict = DealDecision::Verdict::kAbort;
            it->second.diagnostic = "deal deadline expired";
            to_decide = deal_id;
          } else if (!it->second.deadline_armed) {
            arm_deal_deadline(it->second,
                              enlist.proposal.deadline_micros - now);
          }
        }
      }
    }
    if (!to_decide.empty()) {
      schedule(0, [this, to_decide] { decide_deal(to_decide); });
    }
  }

  // Keep locally derived ids ahead of everything replayed.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [deal_id, deal] : deals_) {
      const std::uint64_t n = local_deal_counter(deal_id, host_.self_.str());
      if (n >= next_local_seq_) next_local_seq_ = n + 1;
    }
  }

  // Orphan staged runs: staged (kDealStaged + kProposerRun journaled) but
  // the deal never opened — nothing was ever sent, cancel quietly.
  std::vector<Coordinator::ObjectShard*> shards;
  {
    std::shared_lock<std::shared_mutex> lock(host_.shard_map_mutex_);
    shards.reserve(host_.shards_.size());
    for (const auto& [object, shard] : host_.shards_) {
      shards.push_back(shard.get());
    }
  }
  for (Coordinator::ObjectShard* shard : shards) {
    std::lock_guard<std::recursive_mutex> lock(*shard->mutex);
    auto staged = shard->replica->staged_run();
    if (!staged.has_value()) continue;
    bool known;
    {
      std::lock_guard<std::mutex> deal_lock(mutex_);
      known = deals_.contains(staged->second);
    }
    if (known) continue;
    try {
      shard->replica->cancel_staged_run(staged->first);
    } catch (const SimulatedCrash& crash) {
      host_.crashed_.store(true, std::memory_order_release);
      return handles;
    }
  }
  return handles;
}

}  // namespace b2b::core
