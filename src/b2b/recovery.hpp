// Write-ahead-journal record taxonomy and the crash-injection signal.
//
// The Coordinator journals everything it needs to survive a crash (§3:
// "persistence of both validated object state and of the information
// required to reach validation decisions") as typed records in a
// store::Journal. This header names the record types — shared between the
// journal writers in replica.cpp / coordinator.cpp and the replay loop in
// Coordinator — and defines the exception-like signal an armed crash
// point raises.
//
// Record payload layout (after the type byte the Journal frames):
//   kPartyKey          str(party)  blob(RsaPublicKey::encode)
//   kEvidence          str(kind)   blob(framed payload)  u64(time_micros)
//                      str(run label)...  [to the end: the runs whose
//                      transcript the record belongs to, so replay
//                      rebuilds the evidence log's run index]
//   kSnapshot          str(object) blob(ReplicaSnapshot::encode)
//
// The evidence log is the only store of protocol messages (§4.2); there
// is no separate per-message record. The latest kSnapshot is the only
// durable image of an object's agreed state (§3's checkpoint), written
// once per install at a size that does not grow with history: replay
// protection is rebuilt from the run records below, not from snapshots.
//
// One record family covers every run: a state run of K >= 1 hash-chained
// items (a single run is a batch of one, DESIGN.md §13) and a membership
// run (§4.5 connect/disconnect/evict, whose sponsor is its proposer).
// Proposes, responses and decides are journaled as u8(MsgType)
// blob(wire body), so the type picks the codec. A run is identified by
// its run tuple's label (a state run's final item's; a membership run's
// new group tuple's, "g"-prefixed); the run records below put every
// item's label into replay protection:
//   kProposerRun       str(object) blob(Replica::ProposerRunRecord::encode)
//   kResponseReceived  str(object) u8(MsgType) blob(response)
//   kDecideSent        str(object) u8(MsgType) blob(decide)
//   kProposerClosed    str(object) str(run label)
//   kResponderRun      str(object) blob(Replica::ResponderRunRecord::encode)
//   kDecideDelivered   str(object) u8(MsgType) blob(decide)
//   kResponderClosed   str(object) str(run label)
//
// The membership request around a run has its own records:
//   kSubjectRequest        str(object) blob(SubjectRequestRecord::encode)
//   kSubjectClosed         str(object) str(request nonce)
//   kSubjectAnswer         str(object) str(request nonce) u8(MsgType)
//                          blob(answer body)  [sponsor side: the welcome,
//                          confirm or reject a duplicate request is
//                          re-answered with]
//
// TTP-certified termination (§7): the submission is journaled before the
// request goes to the arbiter (so a recovering party re-fetches the
// cached verdict instead of forgetting it asked), and the verdict is
// journaled before the runs it concludes are closed:
//   kTerminationSubmitted  str(object) str(run label) u8(as_proposer)
//   kVerdictDelivered      str(object) blob(TerminationVerdict::encode)
//
// Deal subsystem (multi-object atomic coordination, DESIGN.md §12). The
// deal layer journals at the COORDINATOR level (no object prefix — the
// deal spans objects) except for the two per-replica facts:
//   kDealOpen              blob(DealEnlistMsg::encode)   [coordinator]
//   kDealDecided           blob(DealDecisionMsg::encode) [coordinator]
//   kDealClosed            str(deal id)                  [coordinator]
//   kDealTtpSubmitted      str(deal id)                  [coordinator]
//   kDealVerdictDelivered  blob(signed DealTerminationVerdict) [coordinator]
//   kDealStaged            str(object) str(run label) str(deal id)
//   kDealEnlisted          str(object) blob(DealEnlistMsg::encode)
//
// Append ordering under sharding (DESIGN.md §9): all shards feed ONE
// journal stream, serialised by the coordinator's journal mutex, so
// records from concurrent objects interleave but each object's records
// stay in program order (replay keys every record by its object/label).
// kEvidence is stricter: the evidence mutex holds timestamping, the
// journal append and the in-memory chain append as one critical section,
// so the hash chain's link order is exactly the journal's record order —
// replay recomputes and re-verifies the chain in append order and would
// reject any divergence.
#pragma once

#include <cstdint>

namespace b2b::core {

namespace walrec {
// Type 0 is store::Journal::kIncarnationMarker (journal-internal).
inline constexpr std::uint8_t kPartyKey = 1;
inline constexpr std::uint8_t kEvidence = 2;
// 3 was a second copy of every installed state (a checkpoint history
// that recovery never read), retired when the snapshot became the only
// durable image of it. Never reuse it: its first field is an object id,
// so replay's object-scoped default branch skips it as unknown.
// 4 was a second copy of every protocol message, retired when the
// evidence log became the only message store. Never reuse it: replay
// skips it explicitly (its first field is a run label, not an object id).
inline constexpr std::uint8_t kRetiredMessage = 4;
inline constexpr std::uint8_t kSnapshot = 5;
inline constexpr std::uint8_t kProposerRun = 6;
inline constexpr std::uint8_t kResponseReceived = 7;
inline constexpr std::uint8_t kDecideSent = 8;
inline constexpr std::uint8_t kProposerClosed = 9;
inline constexpr std::uint8_t kResponderRun = 10;
inline constexpr std::uint8_t kDecideDelivered = 11;
inline constexpr std::uint8_t kResponderClosed = 12;
// 13–19 (kSponsorRun, kMembershipResponse, kMembershipDecideSent,
// kSponsorClosed, kMembershipResponderRun, kMembershipDecideDelivered,
// kMembershipResponderClosed) were a second record family for membership
// runs, retired when a membership run became a run of the one engine
// under types 6–12. Never reuse these numbers: replay skips them as
// unknown, and a journal written before cannot be replayed.
inline constexpr std::uint8_t kSubjectRequest = 20;
inline constexpr std::uint8_t kSubjectClosed = 21;
inline constexpr std::uint8_t kTerminationSubmitted = 22;
inline constexpr std::uint8_t kVerdictDelivered = 23;
// Deal subsystem (DESIGN.md §12). 24–28 are coordinator-level (replayed in
// Coordinator::replay_journal before the object-scoped default branch);
// 29–30 are object-scoped.
inline constexpr std::uint8_t kDealOpen = 24;
inline constexpr std::uint8_t kDealDecided = 25;
inline constexpr std::uint8_t kDealClosed = 26;
inline constexpr std::uint8_t kDealTtpSubmitted = 27;
inline constexpr std::uint8_t kDealVerdictDelivered = 28;
inline constexpr std::uint8_t kDealStaged = 29;
inline constexpr std::uint8_t kDealEnlisted = 30;
// 31–34 were separate pipelined-batch records, retired when a batch became
// a K-item state run under types 6–12. Never reuse these numbers: replay
// skips them as unknown.
inline constexpr std::uint8_t kSubjectAnswer = 35;
}  // namespace walrec

/// Raised by an armed crash point to kill a coordinator mid-operation.
/// Deliberately NOT derived from std::exception: the protocol layer
/// catches std::exception around application callbacks (update
/// validation), and a simulated crash must never be swallowed there — it
/// has to unwind all the way to the coordinator entry point, which marks
/// the coordinator crashed and goes silent.
struct SimulatedCrash {
  const char* point;
};

}  // namespace b2b::core
