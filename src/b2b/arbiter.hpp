// Arbiter: extra-protocol dispute resolution (§4.1, §7).
//
// "It is assumed that, if necessary, this evidence can be used in
// extra-protocol arbitration to resolve disputes." The Arbiter plays that
// third party: given one participant's evidence log — hash-chained,
// anchored, and holding every signed protocol message it sent or received
// filed under its run (§4.2) — it reconstructs the transcript of a named
// run and verifies it with only public keys, reaching the same verdict a
// participant would, and listing every defect when the evidence is not
// intact. A membership run (§4.5), filed under its "g"-prefixed group-run
// label, is rebuilt from its membership.* records and verified the same
// way. Batched runs (K >= 2 items) are not reconstructed; their evidence
// is checked through the anchors (verify_anchored_spans).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "b2b/deal_messages.hpp"
#include "b2b/evidence.hpp"
#include "store/evidence_log.hpp"

namespace b2b::core {

/// The outcome of arbitration over one run.
struct ArbitrationReport {
  /// A proposal for the run was found in the log.
  bool proposal_found = false;
  /// A decide message for the run was found.
  bool decide_found = false;
  /// Full cryptographic verdict (meaningful when proposal_found).
  VerifiedRun verdict;
  /// One-paragraph human-readable ruling.
  std::string ruling;
};

class Arbiter {
 public:
  explicit Arbiter(EvidenceVerifier verifier) : verifier_(std::move(verifier)) {}

  /// Rebuild the transcript of `run_label` from a participant's evidence
  /// log: its propose, respond and decide records, sent or received.
  /// Returns nullopt if the log holds no (single-item) proposal for the
  /// run.
  static std::optional<RunTranscript> reconstruct(
      const store::EvidenceLog& log, const std::string& run_label);

  /// Arbitrate the run: reconstruct, verify, and rule — a state run, or a
  /// membership run under a group-run label. When `expected_recipients` is
  /// given, response completeness is enforced (required to rule a state
  /// or group *valid*).
  ArbitrationReport arbitrate(
      const store::EvidenceLog& log, const std::string& run_label,
      const std::vector<PartyId>* expected_recipients = nullptr) const;

  /// Deal-phase arbitration over one leg (DESIGN.md §12): verify the
  /// signed enlist and decision artifacts filed under the leg's run label
  /// and cross-check them against the per-run transcript. Defection —
  /// prepare-then-refuse, equivocating verdicts, a committed leg with no
  /// commit decision — surfaces as violations blamed on a party. At the
  /// initiator, a commit registered with the TTP and overridden by its
  /// certified abort is not equivocation: an abort decision that follows
  /// the TTP's abort verdict for the deal on the chain supersedes it.
  struct DealArbitrationReport {
    bool enlist_found = false;
    bool decision_found = false;
    /// The verified deal verdict (meaningful when decision_found and no
    /// equivocation): true = commit.
    bool committed = false;
    /// Two differently-signed decisions for the same deal id were found.
    bool equivocation = false;
    /// Party to blame for each violation (the deal initiator for enlist/
    /// decision defects) — empty means no provable defector.
    std::vector<PartyId> blamed;
    std::vector<std::string> violations;
    /// Per-run arbitration of the leg itself.
    ArbitrationReport leg;
    std::string ruling;
  };
  DealArbitrationReport arbitrate_deal(
      const store::EvidenceLog& log, const std::string& leg_label,
      const std::map<PartyId, crypto::RsaPublicKey>& keys,
      const std::vector<PartyId>* expected_recipients = nullptr) const;

  /// Offline validation of an anchored evidence log (DESIGN.md §13(c)).
  /// Walks the hash chain, then checks every "evidence.anchor" record:
  /// the anchor must decode, its head_hash must equal the chain hash of
  /// the record it claims to cover, and its signature must verify under
  /// `signer`. With `tss_key`, its trusted stamp must also be present,
  /// cover H(signed_bytes()) and verify under that key. A log whose chain
  /// is intact and whose newest anchor is valid is trustworthy up to that
  /// anchor's index with ONE signature check (two with the stamp) — the
  /// chain links everything below it.
  struct AnchorReport {
    /// One valid anchor.
    struct Anchor {
      /// Index of the newest record it covers.
      std::uint64_t covered = 0;
      /// Time of its verified trusted stamp (set only when `tss_key` was
      /// given). Every record it covers existed by then.
      std::optional<std::uint64_t> stamp_micros;
    };
    /// EvidenceLog::verify_chain over the whole log.
    bool chain_intact = false;
    std::size_t anchors_seen = 0;
    std::size_t anchors_valid = 0;
    /// Every valid anchor, in log order.
    std::vector<Anchor> anchors;
    /// Highest index covered by a VALID anchor (nullopt if none).
    std::optional<std::uint64_t> highest_anchored_index;
    /// Non-anchor records after highest_anchored_index (all of them when
    /// no anchor is valid): evidence no valid anchor vouches for yet.
    std::size_t trailing_records = 0;
    /// chain_intact and every anchor present is valid.
    bool all_anchors_valid = false;
    std::vector<std::string> problems;
  };
  static AnchorReport verify_anchored_spans(
      const store::EvidenceLog& log, const crypto::RsaPublicKey& signer,
      const crypto::RsaPublicKey* tss_key = nullptr);

 private:
  EvidenceVerifier verifier_;
};

}  // namespace b2b::core
