// Deal subsystem: atomic cross-object coordination (DESIGN.md §12).
//
// A *deal* binds state-coordination runs on several B2B objects into one
// all-or-nothing unit: either every leg's proposed state is installed by
// its group, or none is. The paper's per-object protocol already yields
// signed, non-repudiable evidence for each run; the deal layer adds a
// signed cross-leg proposal (the enlist), a signed cross-leg verdict (the
// decision), and — because organisations are mutually distrusting — a
// TTP-arbitrated escape hatch reusing the §7 termination machinery so
// that a defecting initiator cannot strand honest participants.
//
// Phases, driven by the initiator's DealCoordinator:
//
//   1. stage    — a proposer run is created and journaled on every leg
//                 object, but nothing is sent (the kDealStaged record is
//                 written *before* the proposer-run record so a crash
//                 between them leaves an inert marker, never a runnable
//                 standalone run).
//   2. open     — the signed DealEnlistMsg is journaled (kDealOpen) and
//                 each leg's propose + enlist is sent; participants park
//                 their responder runs undecided.
//   3. prepare  — each leg's response set completes; the run parks
//                 (Replica::DealHooks::on_leg_prepared) instead of
//                 auto-deciding.
//   4. decide   — all legs prepared+accepted => signed commit decision;
//                 any veto or deadline => signed abort decision. The
//                 decision is journaled (kDealDecided) before any leg
//                 acts on it.
//   5. replicate— commit: each leg's normal decide (authenticator
//                 reveal) runs, with the DealDecisionMsg broadcast as
//                 the cross-leg non-repudiation artifact; abort: each
//                 leg rolls back and the abort decision releases parked
//                 participants.
//
// Escape hatches: with a TTP configured, a *commit* decision is first
// registered atomically with the TTP (kDealTerminationRequest carrying
// every leg's transcript). The TTP certifies commit iff every leg's
// response set is complete, valid and unanimous, writing its per-run
// verdict cache for all legs in one critical section — so a parked
// participant that independently escapes via its per-run §7 deadline
// always receives an answer consistent with the deal outcome. Aborts
// never need the TTP: the signed abort decision (or a per-run certified
// abort) releases participants.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "b2b/deal_messages.hpp"
#include "b2b/replica.hpp"

namespace b2b::core {

class Coordinator;

/// Deal-layer journal state reconstructed by Coordinator::replay_journal
/// from the coordinator-scoped deal records (walrec 24-28).
struct RecoveredDealState {
  /// deal id -> encoded DealEnlistMsg (kDealOpen); erased by kDealClosed.
  std::map<std::string, Bytes> open;
  /// deal id -> encoded DealDecisionMsg (last kDealDecided wins: the TTP
  /// abort path journals a second, overriding decision).
  std::map<std::string, Bytes> decisions;
  /// deal ids whose TTP registration was journaled (kDealTtpSubmitted).
  std::set<std::string> ttp_submitted;
  /// deal id -> signed DealTerminationVerdict body (kDealVerdictDelivered).
  std::map<std::string, Bytes> ttp_verdicts;

  bool empty() const {
    return open.empty() && decisions.empty() && ttp_submitted.empty() &&
           ttp_verdicts.empty();
  }
};

/// Initiator-side driver for multi-object deals. One per Coordinator,
/// created by it; participants need no driver (their replicas park and
/// release runs via the message handlers in Replica).
///
/// Locking: `mutex_` is a leaf under the shard locks — the replica hooks
/// take it while holding their shard's mutex, so no DealCoordinator path
/// may enter a shard while holding `mutex_`. Shard work is always done
/// between unlocked sections on snapshots of deal state.
class DealCoordinator {
 public:
  /// One leg of a deal spec: the proposed payload/state for one object.
  struct LegSpec {
    ObjectId object;
    Bytes payload;    // update bytes (is_update) or ignored
    Bytes new_state;  // full proposed state
    bool is_update = true;
  };

  struct DealSpec {
    /// Optional explicit id; derived deterministically when empty.
    std::string deal_id;
    std::vector<LegSpec> legs;
    /// Relative deal deadline; 0 = none. Also stamped (as an absolute
    /// virtual time) into the signed proposal so participants can prove
    /// how long they were obliged to stay parked.
    std::uint64_t deadline_micros = 0;
  };

  /// TTP-arbitrated escape configuration (deal-level registration).
  struct TtpEscape {
    PartyId ttp;
    crypto::RsaPublicKey ttp_key;
  };

  struct Stats {
    std::uint64_t started = 0;
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t ttp_registrations = 0;
    std::uint64_t ttp_verdicts = 0;
  };

  explicit DealCoordinator(Coordinator& host);

  /// Route a commit decision through deal-level TTP registration before
  /// replication. Aborts never involve the TTP.
  void enable_ttp_escape(TtpEscape escape);

  /// Start a deal across `spec.legs` (distinct objects, all hosted by
  /// this coordinator, this party a member of each). Returns a handle
  /// that completes kAgreed (committed), kVetoed (aborted on a veto,
  /// with the vetoers) or kAborted (any other abort) once every leg has
  /// been driven to its final state.
  RunHandle start_deal(DealSpec spec);

  Stats stats() const;

  /// The signed decision for a deal this coordinator initiated, once one
  /// has been journaled (testing/verification).
  std::optional<DealDecisionMsg> decision_of(const std::string& deal_id) const;

  // -- wiring used by Coordinator ------------------------------------------

  /// Hooks to install on every registered replica.
  Replica::DealHooks make_hooks();

  /// Handle a kDealTerminationVerdict envelope (routed here before shard
  /// dispatch). Returns true if consumed.
  bool on_ttp_verdict(const PartyId& from, const Envelope& envelope);

  /// Resume deals from replayed journal state; called after every object
  /// has been registered and per-run resume has run. Also cancels orphan
  /// staged runs (staged, never opened). Returns handles for resumed
  /// deals.
  std::vector<RunHandle> resume(RecoveredDealState recovered);

 private:
  enum class Phase : std::uint8_t {
    kPreparing,    // legs staged + launched, responses arriving
    kDeciding,     // verdict chosen, decision not yet journaled/acted on
    kAwaitingTtp,  // commit registered with the TTP, awaiting verdict
    kReplicating,  // decision being driven into every leg
    kClosed,
  };

  struct Leg {
    ObjectId object;
    std::string label;  // staged run label (StateTuple::label())
    StateTuple proposed;
    RunHandle handle;  // per-leg run handle (parked until decision)
    std::size_t recipient_count = 0;
    bool prepared = false;
    bool accepted = false;
    std::vector<PartyId> vetoers;
  };

  struct Deal {
    std::string id;
    DealEnlistMsg enlist;
    std::vector<Leg> legs;
    RunHandle result;
    Phase phase = Phase::kPreparing;
    DealDecision::Verdict verdict = DealDecision::Verdict::kAbort;
    std::string diagnostic;
    std::optional<DealDecisionMsg> decision;
    Bytes ttp_request;  // encoded signed request, kept for re-send
    bool deadline_armed = false;
  };

  /// The run labels of a deal's legs: deal-level evidence (the enlist and
  /// the decision) is filed under every leg's run.
  static std::vector<std::string> leg_labels(const Deal& deal);

  /// Run `fn` on the leg object's replica under its shard lock with
  /// simulated-crash containment. Returns false if the coordinator is
  /// (or becomes) crashed. Never call while holding mutex_.
  bool exec_on_object(const ObjectId& object,
                      const std::function<void(Replica&)>& fn);
  /// Throw SimulatedCrash if `point` is armed on the host.
  void hit_crash_point(const char* point);
  /// Append a coordinator-scoped deal record (+ fsync barrier).
  void journal_deal(std::uint8_t type, Bytes payload);
  /// Schedule `fn` on the host clock with anchor + crash containment.
  void schedule(std::uint64_t delay_micros, std::function<void()> fn);

  void on_leg_prepared(const ObjectId& object, const std::string& label,
                       bool all_accept, const std::vector<PartyId>& vetoers);
  void on_leg_deadline(const ObjectId& object, const std::string& label);
  void arm_deal_deadline(Deal& deal, std::uint64_t deadline_micros);

  /// Journal + act on the pending verdict (phase kDeciding). Either
  /// registers a commit with the TTP (-> kAwaitingTtp) or replicates
  /// directly.
  void decide_deal(const std::string& deal_id);
  /// Build, sign and send the deal-level TTP registration request.
  void register_with_ttp(const std::string& deal_id);
  /// Drive the journaled decision into every leg, then close the deal.
  void replicate_decision(const std::string& deal_id);
  void close_deal(const std::string& deal_id);
  void complete_handle(const RunHandle& handle, RunResult::Outcome outcome,
                       std::string diagnostic, std::vector<PartyId> vetoers,
                       const std::string& label);

  std::string derive_deal_id(const std::vector<LegSpec>& legs);

  Coordinator& host_;

  mutable std::mutex mutex_;
  std::map<std::string, Deal> deals_;          // by deal id
  std::map<std::string, std::string> leg_index_;  // leg label -> deal id
  std::optional<TtpEscape> escape_;
  std::uint64_t next_local_seq_ = 1;
  Stats stats_;
};

}  // namespace b2b::core
