// Non-repudiation evidence: kinds, transcripts and third-party verification.
//
// §4.3: the authenticated decision of the group on P_i's proposal is the
// full transcript {propose, all signed responses, decide-with-authenticator}.
// "Any party can compute the group's decision" from it. EvidenceVerifier is
// that computation, written so that it can be run by a party to the
// interaction *or* by an outside arbiter holding only the public keys —
// which is what the paper's extra-protocol dispute resolution needs.
//
// The verifier is deliberately paranoid: every signature is checked, every
// echoed tuple is compared, the revealed authenticator is checked against
// the committed hash, and the group decision is *computed* from the signed
// decisions (never read from an unsigned flag), so a dishonest party cannot
// misrepresent a vetoed state as valid or a valid state as vetoed (§4.1).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "b2b/messages.hpp"
#include "crypto/rsa.hpp"

namespace b2b::core {

/// Evidence-record kinds used in the local non-repudiation log.
namespace evidence_kind {
inline constexpr const char* kProposeSent = "propose.sent";
inline constexpr const char* kProposeReceived = "propose.recv";
inline constexpr const char* kRespondSent = "respond.sent";
inline constexpr const char* kRespondReceived = "respond.recv";
inline constexpr const char* kDecideSent = "decide.sent";
inline constexpr const char* kDecideReceived = "decide.recv";
inline constexpr const char* kStateInstalled = "state.installed";
inline constexpr const char* kStateRolledBack = "state.rolledback";
inline constexpr const char* kViolation = "violation";
inline constexpr const char* kMembershipRequest = "membership.request";
inline constexpr const char* kMembershipPropose = "membership.propose";
inline constexpr const char* kMembershipRespond = "membership.respond";
inline constexpr const char* kMembershipDecide = "membership.decide";
inline constexpr const char* kMembershipApplied = "membership.applied";
// Deal subsystem (DESIGN.md §12).
inline constexpr const char* kDealOpen = "deal.open";
inline constexpr const char* kDealEnlistReceived = "deal.enlist.recv";
inline constexpr const char* kDealPrepared = "deal.prepared";
inline constexpr const char* kDealDecision = "deal.decision";
inline constexpr const char* kDealDecisionReceived = "deal.decision.recv";
inline constexpr const char* kDealClosed = "deal.closed";
inline constexpr const char* kDealTtpRequest = "deal.ttp.request";
inline constexpr const char* kDealTtpVerdict = "deal.ttp.verdict";
// State runs of K >= 2 items (DESIGN.md §13); a single run uses the kinds
// above. Responses ride under the standard respond.* kinds — a batch
// responder sends one ordinary signed response.
inline constexpr const char* kBatchProposeSent = "batch.propose.sent";
inline constexpr const char* kBatchProposeReceived = "batch.propose.recv";
inline constexpr const char* kBatchDecideSent = "batch.decide.sent";
inline constexpr const char* kBatchDecideReceived = "batch.decide.recv";
/// Signed, TSS-stamped anchor over the evidence chain head, appended
/// whenever a run closes (see Arbiter::verify_anchored_spans).
inline constexpr const char* kEvidenceAnchor = "evidence.anchor";
}  // namespace evidence_kind

/// A signed anchor over the evidence-chain head (DESIGN.md §13(c)). When
/// a run closes, the coordinator signs {index, record_hash} of the newest
/// evidence record, has the TSS stamp those signed bytes, and appends the
/// anchor (stamp in its framing's stamp slot) to the chain itself. An
/// arbiter holding the signer's and the TSS's public keys can then
/// validate a whole anchored span offline — two signature checks plus the
/// (cheap) hash-chain walk — and bound when each record existed.
struct EvidenceAnchor {
  /// Index of the covered (head) record — the anchor vouches for every
  /// record up to and including this one.
  std::uint64_t index = 0;
  /// That record's chain hash (EvidenceRecord::record_hash).
  crypto::Digest head_hash{};
  /// Signer's RSA signature over signed_bytes().
  Bytes signature;

  /// Domain-separated bytes the signature covers.
  Bytes signed_bytes() const;
  Bytes encode() const;
  static EvidenceAnchor decode(BytesView data);  // throws CodecError
};

/// Everything generated during one state-coordination run.
struct RunTranscript {
  ProposeMsg propose;
  std::vector<RespondMsg> responses;
  std::optional<DecideMsg> decide;
};

/// Outcome of third-party verification of a transcript.
struct VerifiedRun {
  /// True iff all signatures verify and all cross-message checks pass.
  bool evidence_intact = false;
  /// True iff evidence_intact, the decide message is present, and every
  /// recipient's signed decision is accept — i.e. the state is *valid* in
  /// the paper's sense.
  bool agreed = false;
  /// Parties whose signed decision was reject.
  std::vector<PartyId> vetoers;
  /// Human-readable description of every defect found.
  std::vector<std::string> violations;
};

class EvidenceVerifier {
 public:
  explicit EvidenceVerifier(std::map<PartyId, crypto::RsaPublicKey> keys);

  /// Verify a full state-coordination transcript. `expected_recipients`,
  /// when given, additionally checks that a response is present from every
  /// recipient (completeness of the decide aggregation).
  VerifiedRun verify_state_run(
      const RunTranscript& transcript,
      const std::vector<PartyId>* expected_recipients = nullptr) const;

  /// Verify a membership run (connect / evict / voluntary disconnect).
  VerifiedRun verify_membership_run(
      const MembershipProposeMsg& propose,
      const std::vector<MembershipRespondMsg>& responses,
      const Bytes* authenticator,
      const std::vector<PartyId>* expected_recipients = nullptr) const;

  /// Compute the unanimous-accept group decision over signed responses
  /// without verifying signatures (callers that already verified them).
  static bool unanimous(const std::vector<RespondMsg>& responses);

 private:
  bool check_signature(const PartyId& signer, BytesView message,
                       BytesView signature, std::vector<std::string>* out,
                       const std::string& what) const;

  std::map<PartyId, crypto::RsaPublicKey> keys_;
};

}  // namespace b2b::core
