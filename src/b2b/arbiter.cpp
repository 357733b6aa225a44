#include "b2b/arbiter.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "crypto/timestamp.hpp"

namespace b2b::core {

namespace {

/// The protocol message inside an evidence record: payloads are framed
/// {blob message, blob optional stamp}. Throws CodecError.
Bytes message_of(const store::EvidenceRecord& record) {
  wire::Decoder dec{record.payload};
  Bytes message = dec.blob();
  dec.blob();
  dec.expect_done();
  return message;
}

bool is_kind(const std::string& kind, const char* sent, const char* received) {
  return kind == sent || kind == received;
}

/// A run's transcript as one party's log holds it, in the run's format:
/// the first proposal, the first response per responder (with those the
/// decide aggregates, which a responder holds only there) and the first
/// decide.
struct Transcript {
  std::optional<RunPropose> propose;
  std::vector<RunResponse> responses;
  std::optional<RunDecide> decide;
};

Transcript transcript_of(const store::EvidenceLog& log,
                         const std::string& run_label,
                         const RunFormat& format) {
  Transcript transcript;
  std::set<PartyId> responders_seen;
  // Later equivocations are separate evidence, not part of the
  // canonical transcript.
  auto add = [&](const RunResponse& resp) {
    if (responders_seen.insert(resp.responder()).second) {
      transcript.responses.push_back(resp);
    }
  };
  for (const store::EvidenceRecord* record : log.run(run_label)) {
    const std::string& kind = record->kind;
    try {
      if (is_kind(kind, format.propose_sent, format.propose_received)) {
        if (!transcript.propose.has_value()) {
          transcript.propose =
              RunPropose::decode(format.propose, message_of(*record));
        }
      } else if (is_kind(kind, format.respond_sent, format.respond_received)) {
        add(RunResponse::decode(format.respond, message_of(*record)));
      } else if (is_kind(kind, format.decide_sent, format.decide_received) &&
                 !transcript.decide.has_value()) {
        transcript.decide =
            RunDecide::decode(format.decide, message_of(*record));
      }
    } catch (const CodecError&) {
      // Undecodable record: skip; the verifier will flag any gap.
    }
  }
  if (transcript.decide.has_value()) {
    for (const RunResponse& resp : transcript.decide->responses()) add(resp);
  }
  return transcript;
}

/// The paper's single-run transcript of a state run.
RunTranscript state_transcript(const Transcript& transcript) {
  RunTranscript out{transcript.propose->state()->single(), {}, std::nullopt};
  for (const RunResponse& resp : transcript.responses) {
    out.responses.push_back(*resp.state());
  }
  if (transcript.decide.has_value()) {
    const BatchDecideMsg& d = *transcript.decide->state();
    out.decide = DecideMsg{d.proposer, d.object, d.proposed, d.responses,
                           d.authenticators.front()};
  }
  return out;
}

}  // namespace

std::optional<RunTranscript> Arbiter::reconstruct(
    const store::EvidenceLog& log, const std::string& run_label) {
  Transcript transcript = transcript_of(log, run_label, RunFormat::of(1));
  if (!transcript.propose.has_value()) return std::nullopt;
  return state_transcript(transcript);
}

ArbitrationReport Arbiter::arbitrate(
    const store::EvidenceLog& log, const std::string& run_label,
    const std::vector<PartyId>* expected_recipients) const {
  ArbitrationReport report;
  // A membership run's label is its new group tuple's ("g"-prefixed).
  const bool membership = run_label.starts_with("g");
  const Transcript transcript = transcript_of(
      log, run_label,
      membership ? RunFormat::membership() : RunFormat::of(1));
  if (!transcript.propose.has_value()) {
    report.ruling = "no proposal on record for run " + run_label +
                    ": nothing to arbitrate";
    return report;
  }
  report.proposal_found = true;
  report.decide_found = transcript.decide.has_value();
  const std::string who = transcript.propose->proposer().str();
  const std::string what = membership ? "membership change" : "state";
  const std::string identified = membership ? "group" : "state";
  if (const MembershipProposeMsg* propose = transcript.propose->membership()) {
    std::vector<MembershipRespondMsg> responses;
    for (const RunResponse& resp : transcript.responses) {
      responses.push_back(*resp.membership());
    }
    report.verdict = verifier_.verify_membership_run(
        *propose, responses,
        report.decide_found ? &transcript.decide->membership()->authenticator
                            : nullptr,
        expected_recipients);
  } else {
    report.verdict = verifier_.verify_state_run(state_transcript(transcript),
                                                expected_recipients);
  }

  if (report.verdict.agreed) {
    report.ruling = "run " + run_label + ": " + what + " proposed by " + who +
                    " was unanimously agreed; evidence intact; the " +
                    identified + " identified by the proposal is VALID";
  } else if (!report.verdict.vetoers.empty() && report.verdict.evidence_intact) {
    std::string vetoers;
    for (const PartyId& v : report.verdict.vetoers) {
      if (!vetoers.empty()) vetoers += ", ";
      vetoers += v.str();
    }
    report.ruling = "run " + run_label + ": " + what + " proposed by " + who +
                    " was vetoed by " + vetoers + "; evidence intact; the " +
                    identified + " is INVALID";
  } else if (!report.decide_found) {
    report.ruling = "run " + run_label + ": proposed by " + who +
                    " but no decision message is on record; the run is "
                    "INCOMPLETE and the " + identified +
                    " cannot be shown valid";
  } else {
    report.ruling = "run " + run_label + ": evidence is NOT intact (" +
                    std::to_string(report.verdict.violations.size()) +
                    " defect(s)); the " + identified + " cannot be shown valid";
  }
  return report;
}

Arbiter::DealArbitrationReport Arbiter::arbitrate_deal(
    const store::EvidenceLog& log, const std::string& leg_label,
    const std::map<PartyId, crypto::RsaPublicKey>& keys,
    const std::vector<PartyId>* expected_recipients) const {
  DealArbitrationReport report;
  auto blame = [&report](const PartyId& who, std::string what) {
    report.violations.push_back(std::move(what));
    if (std::find(report.blamed.begin(), report.blamed.end(), who) ==
        report.blamed.end()) {
      report.blamed.push_back(who);
    }
  };
  auto key_of = [&keys](const PartyId& party) -> const crypto::RsaPublicKey* {
    auto it = keys.find(party);
    return it == keys.end() ? nullptr : &it->second;
  };

  // An abort verdict of the TTP for `deal_id` on the chain strictly
  // between records `after` and `before`.
  auto certified_abort_between = [&log](const std::string& deal_id,
                                        std::uint64_t after,
                                        std::uint64_t before) {
    for (const store::EvidenceRecord* record :
         log.find_kind(evidence_kind::kDealTtpVerdict)) {
      if (record->index <= after || record->index >= before) continue;
      try {
        Bytes signature;
        DealTerminationVerdict verdict = DealTerminationVerdict::decode_fields(
            message_of(*record), &signature);
        if (verdict.deal_id == deal_id && verdict.verdict != 1) return true;
      } catch (const CodecError&) {
      }
    }
    return false;
  };

  // Collect the distinct signed deal artifacts filed under the leg.
  std::vector<DealEnlistMsg> enlists;
  std::vector<DealDecisionMsg> decisions;
  std::uint64_t newest_decision_index = 0;
  for (const store::EvidenceRecord* record : log.run(leg_label)) {
    const std::string& kind = record->kind;
    try {
      if (is_kind(kind, evidence_kind::kDealOpen,
                  evidence_kind::kDealEnlistReceived)) {
        DealEnlistMsg msg = DealEnlistMsg::decode(message_of(*record));
        if (std::find(enlists.begin(), enlists.end(), msg) == enlists.end()) {
          enlists.push_back(std::move(msg));
        }
      } else if (is_kind(kind, evidence_kind::kDealDecision,
                         evidence_kind::kDealDecisionReceived)) {
        DealDecisionMsg msg = DealDecisionMsg::decode(message_of(*record));
        if (std::find(decisions.begin(), decisions.end(), msg) !=
            decisions.end()) {
          continue;
        }
        if (!decisions.empty() &&
            msg.decision.verdict == DealDecision::Verdict::kAbort &&
            certified_abort_between(msg.decision.deal_id,
                                    newest_decision_index, record->index)) {
          // The initiator registered a commit, the TTP certified an
          // abort, and this is the abort the legs were sent.
          decisions.clear();
        }
        decisions.push_back(std::move(msg));
        newest_decision_index = record->index;
      }
    } catch (const CodecError&) {
      report.violations.push_back("undecodable deal record on run " +
                                  leg_label);
    }
  }

  // The enlist: exactly one verified announcement binding this leg.
  std::optional<PartyId> initiator;
  std::string deal_id;
  for (const DealEnlistMsg& msg : enlists) {
    const DealProposal& proposal = msg.proposal;
    const crypto::RsaPublicKey* pub = key_of(proposal.initiator);
    if (pub == nullptr ||
        !pub->verify(proposal.signed_bytes(), msg.signature)) {
      report.violations.push_back("deal enlist with bad signature on run " +
                                  leg_label);
      continue;
    }
    const bool covers_leg = std::any_of(
        proposal.legs.begin(), proposal.legs.end(),
        [&](const DealLeg& leg) { return leg.proposed.label() == leg_label; });
    if (!covers_leg) {
      blame(proposal.initiator,
            "signed deal enlist does not cover run " + leg_label);
      continue;
    }
    if (!report.enlist_found) {
      report.enlist_found = true;
      initiator = proposal.initiator;
      deal_id = proposal.deal_id;
    } else {
      // A second, different, validly signed enlist binding the same run:
      // the initiator showed different deal views to different parties.
      report.equivocation = true;
      blame(proposal.initiator,
            "equivocating deal enlists bind run " + leg_label);
    }
  }

  // The decision(s): exactly one verified verdict per deal id is honest.
  bool first_decision = true;
  for (const DealDecisionMsg& msg : decisions) {
    const DealDecision& decision = msg.decision;
    const crypto::RsaPublicKey* pub = key_of(decision.initiator);
    if (pub == nullptr ||
        !pub->verify(decision.signed_bytes(), msg.signature)) {
      report.violations.push_back("deal decision with bad signature on run " +
                                  leg_label);
      continue;
    }
    if (initiator.has_value() && decision.initiator != *initiator) {
      blame(decision.initiator,
            "deal decision signed by a party other than the initiator");
      continue;
    }
    if (!deal_id.empty() && decision.deal_id != deal_id) {
      blame(decision.initiator, "deal decision for a different deal id");
      continue;
    }
    if (first_decision) {
      first_decision = false;
      report.decision_found = true;
      report.committed =
          decision.verdict == DealDecision::Verdict::kCommit;
    } else {
      // Two validly signed, different verdicts for one deal id:
      // non-repudiable equivocation, blamable on the initiator alone.
      report.equivocation = true;
      blame(decision.initiator,
            "equivocating deal decisions for deal " + decision.deal_id);
    }
  }

  // Cross-check deal-level artifacts against the per-run transcript.
  report.leg = arbitrate(log, leg_label, expected_recipients);
  if (initiator.has_value() && !report.equivocation) {
    if (report.decision_found && report.committed &&
        report.leg.decide_found && !report.leg.verdict.agreed) {
      blame(*initiator,
            "commit decision but the leg transcript does not show unanimous "
            "agreement");
    }
    if (report.decision_found && !report.committed &&
        report.leg.verdict.agreed) {
      blame(*initiator,
            "leg installed by its decide despite a signed deal abort");
    }
    if (!report.decision_found && report.leg.decide_found) {
      blame(*initiator,
            "leg decided without any deal decision on record");
    }
  }

  if (!report.enlist_found) {
    report.ruling = "run " + leg_label +
                    ": no verifiable deal enlist on record; arbitrate the "
                    "run itself";
  } else if (report.equivocation) {
    report.ruling = "deal " + deal_id + ", run " + leg_label +
                    ": EQUIVOCATION by the initiator is proven by the "
                    "conflicting signed artifacts";
  } else if (!report.blamed.empty()) {
    report.ruling = "deal " + deal_id + ", run " + leg_label + ": " +
                    std::to_string(report.violations.size()) +
                    " defect(s); blame is provable";
  } else if (report.decision_found) {
    report.ruling = "deal " + deal_id + ", run " + leg_label + ": " +
                    (report.committed ? "COMMITTED" : "ABORTED") +
                    " consistently with the leg transcript; evidence intact";
  } else {
    report.ruling = "deal " + deal_id + ", run " + leg_label +
                    ": enlisted but undecided on this party's record; the "
                    "deal is INCOMPLETE here";
  }
  return report;
}

Arbiter::AnchorReport Arbiter::verify_anchored_spans(
    const store::EvidenceLog& log, const crypto::RsaPublicKey& signer,
    const crypto::RsaPublicKey* tss_key) {
  AnchorReport report;
  report.chain_intact = log.verify_chain();
  if (!report.chain_intact) {
    report.problems.push_back("evidence hash chain is broken");
  }
  for (const store::EvidenceRecord& record : log.records()) {
    if (record.kind != evidence_kind::kEvidenceAnchor) continue;
    ++report.anchors_seen;
    const std::string where =
        "anchor at record " + std::to_string(record.index);
    EvidenceAnchor anchor;
    Bytes stamp;
    try {
      // Evidence payloads are framed {blob payload, blob optional stamp};
      // an anchor's stamp is the TSS's stamp over its signed bytes.
      wire::Decoder dec{record.payload};
      anchor = EvidenceAnchor::decode(dec.blob());
      stamp = dec.blob();
      dec.expect_done();
    } catch (const CodecError&) {
      report.problems.push_back(where + " does not decode");
      continue;
    }
    const Bytes signed_bytes = anchor.signed_bytes();
    bool ok = true;
    if (anchor.index >= record.index) {
      // An anchor vouches only for records strictly before itself.
      report.problems.push_back(where + " claims to cover a later index");
      ok = false;
    } else if (log.at(anchor.index).record_hash != anchor.head_hash) {
      report.problems.push_back(
          where + " does not match the chain hash of record " +
          std::to_string(anchor.index) + " (spliced or tampered span)");
      ok = false;
    }
    if (ok && !signer.verify(signed_bytes, anchor.signature)) {
      report.problems.push_back(where + " carries a bad signature");
      ok = false;
    }
    std::optional<std::uint64_t> stamp_micros;
    if (ok && tss_key != nullptr) {
      std::optional<crypto::Timestamp> ts;
      try {
        if (!stamp.empty()) ts = crypto::Timestamp::decode(stamp);
      } catch (const CodecError&) {
      }
      if (!ts.has_value()) {
        report.problems.push_back(where + " carries no trusted stamp");
        ok = false;
      } else if (ts->message_hash != crypto::Sha256::hash(signed_bytes)) {
        report.problems.push_back(where +
                                  " carries a stamp over other bytes");
        ok = false;
      } else if (!crypto::TimestampService::verify(*ts, *tss_key)) {
        report.problems.push_back(where + " carries a bad trusted stamp");
        ok = false;
      } else {
        stamp_micros = ts->time_micros;
      }
    }
    if (ok) {
      ++report.anchors_valid;
      report.anchors.push_back({anchor.index, stamp_micros});
      if (!report.highest_anchored_index.has_value() ||
          anchor.index > *report.highest_anchored_index) {
        report.highest_anchored_index = anchor.index;
      }
    }
  }
  for (const store::EvidenceRecord& record : log.records()) {
    if (record.kind != evidence_kind::kEvidenceAnchor &&
        (!report.highest_anchored_index.has_value() ||
         record.index > *report.highest_anchored_index)) {
      ++report.trailing_records;
    }
  }
  report.all_anchors_valid =
      report.chain_intact && report.anchors_valid == report.anchors_seen;
  return report;
}

}  // namespace b2b::core
