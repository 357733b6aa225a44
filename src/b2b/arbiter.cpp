#include "b2b/arbiter.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "crypto/timestamp.hpp"

namespace b2b::core {

std::optional<RunTranscript> Arbiter::reconstruct(
    const store::MessageStore& messages, const std::string& run_label) {
  RunTranscript transcript;
  bool have_propose = false;
  std::set<PartyId> responders_seen;

  for (const auto& stored : messages.run(run_label)) {
    try {
      if (stored.kind == "propose" && !have_propose) {
        transcript.propose = ProposeMsg::decode(stored.payload);
        have_propose = true;
      } else if (stored.kind == "respond") {
        RespondMsg resp = RespondMsg::decode(stored.payload);
        // Keep the first copy per responder (later equivocations are
        // separate evidence, not part of the canonical transcript).
        if (responders_seen.insert(resp.response.responder).second) {
          transcript.responses.push_back(std::move(resp));
        }
      } else if (stored.kind == "decide" && !transcript.decide.has_value()) {
        transcript.decide = DecideMsg::decode(stored.payload);
      }
    } catch (const CodecError&) {
      // Undecodable stored bytes: skip; the verifier will flag any gap.
    }
  }
  if (!have_propose) return std::nullopt;
  // Prefer the responses aggregated in the decide when the local store
  // lacks direct copies (responders only hold their own response).
  if (transcript.decide.has_value()) {
    for (const RespondMsg& resp : transcript.decide->responses) {
      if (responders_seen.insert(resp.response.responder).second) {
        transcript.responses.push_back(resp);
      }
    }
  }
  return transcript;
}

ArbitrationReport Arbiter::arbitrate(
    const store::MessageStore& messages, const std::string& run_label,
    const std::vector<PartyId>* expected_recipients) const {
  ArbitrationReport report;
  std::optional<RunTranscript> transcript =
      reconstruct(messages, run_label);
  if (!transcript.has_value()) {
    report.ruling = "no proposal on record for run " + run_label +
                    ": nothing to arbitrate";
    return report;
  }
  report.proposal_found = true;
  report.decide_found = transcript->decide.has_value();
  report.verdict =
      verifier_.verify_state_run(*transcript, expected_recipients);

  const Proposal& prop = transcript->propose.proposal;
  std::string who = prop.proposer.str();
  if (report.verdict.agreed) {
    report.ruling = "run " + run_label + ": state proposed by " + who +
                    " was unanimously agreed; evidence intact; the state "
                    "identified by the proposal is VALID";
  } else if (!report.verdict.vetoers.empty() && report.verdict.evidence_intact) {
    std::string vetoers;
    for (const PartyId& v : report.verdict.vetoers) {
      if (!vetoers.empty()) vetoers += ", ";
      vetoers += v.str();
    }
    report.ruling = "run " + run_label + ": state proposed by " + who +
                    " was vetoed by " + vetoers +
                    "; evidence intact; the state is INVALID";
  } else if (!report.decide_found) {
    report.ruling = "run " + run_label + ": proposed by " + who +
                    " but no decision message is on record; the run is "
                    "INCOMPLETE and the state cannot be shown valid";
  } else {
    report.ruling = "run " + run_label + ": evidence is NOT intact (" +
                    std::to_string(report.verdict.violations.size()) +
                    " defect(s)); the state cannot be shown valid";
  }
  return report;
}

Arbiter::DealArbitrationReport Arbiter::arbitrate_deal(
    const store::MessageStore& messages, const std::string& leg_label,
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

  // Collect the distinct signed deal artifacts stored under the leg.
  std::vector<DealEnlistMsg> enlists;
  std::vector<DealDecisionMsg> decisions;
  for (const auto& stored : messages.run(leg_label)) {
    try {
      if (stored.kind == "deal.enlist") {
        DealEnlistMsg msg = DealEnlistMsg::decode(stored.payload);
        if (std::find(enlists.begin(), enlists.end(), msg) == enlists.end()) {
          enlists.push_back(std::move(msg));
        }
      } else if (stored.kind == "deal.decision") {
        DealDecisionMsg msg = DealDecisionMsg::decode(stored.payload);
        if (std::find(decisions.begin(), decisions.end(), msg) ==
            decisions.end()) {
          decisions.push_back(std::move(msg));
        }
      }
    } catch (const CodecError&) {
      report.violations.push_back("undecodable stored deal message on run " +
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
  report.leg = arbitrate(messages, leg_label, expected_recipients);
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
