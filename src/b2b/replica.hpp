// Replica: the per-object, per-party protocol engine.
//
// One Replica exists at each organisation for each shared object (the
// "physical realisation" of Figure 2b). It holds the local copy of the
// object, the party's view of the agreed state tuple T_agreed, the group
// tuple G and the ordered member list, and it runs both sides of the
// state coordination protocol (§4.3) and of the connection /
// disconnection protocols (§4.5).
//
// Safety posture: every check of §4.4 is enforced here. A message that
// fails signature or cross-message consistency checks produces a
// `violation` evidence record and never changes local state; a proposal
// that fails a semantic check produces a *signed reject response* so the
// proposer holds non-repudiable evidence of the veto. Invalid state is
// never installed (§4.1's fail-safe guarantee).
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "b2b/deal_messages.hpp"
#include "b2b/evidence.hpp"
#include "b2b/messages.hpp"
#include "b2b/object.hpp"
#include "b2b/tuples.hpp"
#include "crypto/rsa.hpp"
#include "net/runtime.hpp"

namespace b2b::core {

/// Completion state of one coordination run, shared with the caller.
/// `outcome` is atomic so an Executor on a socket runtime can poll
/// done() from another thread; the completing replica writes the other
/// fields *before* storing the outcome, so whoever observes done() also
/// observes a consistent diagnostic/vetoers/sequence.
struct RunResult {
  enum class Outcome {
    kPending,  // run still active (§4.4: blocking is detectable, not fatal)
    kAgreed,   // unanimously agreed and installed
    kVetoed,   // rejected by at least one party; state rolled back
    kAborted,  // aborted locally before completion (e.g. busy, lost race)
  };

  std::atomic<Outcome> outcome{Outcome::kPending};
  std::string diagnostic;
  std::vector<PartyId> vetoers;
  std::uint64_t sequence = 0;
  std::string run_label;

  bool done() const { return outcome.load() != Outcome::kPending; }

  /// Invoked exactly once when the run completes (async mode plumbing).
  std::function<void(const RunResult&)> on_complete;
};

using RunHandle = std::shared_ptr<RunResult>;

/// Durable image of a replica's replicated state (§3: "check-pointing of
/// object state upon installation of a newly-validated state"), journaled
/// at every change to it; replay restores the latest. Its size does not
/// grow with history: replay protection and in-flight runs come back from
/// the journal's run records, not from the snapshot.
struct ReplicaSnapshot {
  bool connected = false;
  std::vector<PartyId> members;
  GroupTuple group_tuple;
  StateTuple agreed_tuple;
  Bytes agreed_state;
  std::uint64_t last_seen_sequence = 0;

  Bytes encode() const;
  static ReplicaSnapshot decode(BytesView data);  // throws CodecError

  friend bool operator==(const ReplicaSnapshot&,
                         const ReplicaSnapshot&) = default;
};

/// How the group's decision is computed from the signed responses (§7:
/// "automatic resolution ... by resorting to majority decision on state
/// changes"). Under kUnanimous (the paper's base protocol) any veto
/// invalidates. Under kMajority a state is installed when a strict
/// majority of the full group (the proposer counts as an implicit accept,
/// invariant 2) signed accept — individual vetoes are overridden but
/// remain on the non-repudiation record. All parties must be configured
/// identically; a full response set is still required, so this trades the
/// per-party veto for termination of *decisions*, not of message loss.
enum class DecisionRule : std::uint8_t {
  kUnanimous = 0,
  kMajority = 1,
};

/// Sponsor selection policy (§4.5.1). The default rotates responsibility
/// to the most recently joined member; footnote 2 of the paper describes
/// the alternative where the initial member sponsors every request unless
/// it is itself the subject. All parties must be configured identically.
enum class SponsorPolicy : std::uint8_t {
  kRotating = 0,
  kFixedInitial = 1,
};

/// Insertion-ordered set of membership-request nonces with a bounded
/// footprint — the membership analogue of net::DedupWindow. Nonces are
/// random, so there is no total order to watermark on; the eviction
/// watermark is FIFO insertion order instead: past the capacity the
/// oldest nonce is forgotten. A replayed request whose nonce has been
/// evicted is still rejected downstream by the membership state checks
/// (the subject is already a member / the evictee is already gone), so
/// eviction bounds memory without opening a replay window onto state.
class BoundedNonceSet {
 public:
  explicit BoundedNonceSet(std::size_t capacity = 256)
      : capacity_(capacity) {}

  /// False when the nonce is already present (the duplicate signal).
  bool insert(const std::string& nonce) {
    if (!set_.insert(nonce).second) return false;
    order_.push_back(nonce);
    while (set_.size() > capacity_ && !order_.empty()) {
      // The front may have been lazily erased; then this is a no-op and
      // the loop advances to the next-oldest entry.
      set_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

  /// Lazy erase: the FIFO entry stays behind and is skipped on eviction.
  void erase(const std::string& nonce) { set_.erase(nonce); }
  bool contains(const std::string& nonce) const {
    return set_.contains(nonce);
  }
  std::size_t size() const { return set_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::set<std::string> set_;
  std::deque<std::string> order_;
};

class Replica {
 public:
  /// Everything the replica needs from its hosting coordinator.
  struct Callbacks {
    /// Transmit an envelope to a peer (reliable, once-only).
    std::function<void(const PartyId& to, const Envelope&)> send;
    /// Virtual clock (microseconds).
    std::function<std::uint64_t()> now;
    /// Append (kind, payload) to the non-repudiation log (clock-timed by
    /// the coordinator; the trusted stamp comes with the next seal). A
    /// protocol message is filed under its run's label, so the log is
    /// also the run's transcript (§4.2); other records pass "".
    std::function<void(const std::string& kind, const Bytes& payload,
                       const std::string& run_label)>
        record_evidence;
    /// Read the transcript back: the payloads of the records of `kind`
    /// filed under `run_label`, in chain order. Runs under the
    /// coordinator's evidence lock (shard -> evidence).
    std::function<std::vector<Bytes>(const std::string& run_label,
                                      const std::string& kind)>
        run_evidence;
    /// Seal the non-repudiation log: one signed, TSS-stamped anchor over
    /// its head record (DESIGN.md §13(c)). Called when a run closes here.
    std::function<void()> seal_evidence;
    /// Look up a member's public key (nullptr if unknown).
    std::function<const crypto::RsaPublicKey*(const PartyId&)> key_of;
    /// Learn a newly admitted member's public key.
    std::function<void(const PartyId&, const crypto::RsaPublicKey&)> learn_key;
    /// Surface a protocol event (forwarded to coord_callback and observers).
    std::function<void(const CoordEvent&)> notify;
    /// Run `fn` after `delay_micros` of virtual time (deadline timers).
    std::function<void(std::uint64_t delay_micros, std::function<void()> fn)>
        schedule;
    /// Append one typed record (see recovery.hpp) to the hosting
    /// coordinator's write-ahead journal; the coordinator prepends the
    /// object id. Null when journaling is disabled — every journal-only
    /// behaviour (idempotent duplicate handling, run probes) is gated on
    /// this so the journal-less protocol is bit-for-bit the original.
    std::function<void(std::uint8_t type, const Bytes& payload)>
        journal_record;
    /// Durability barrier: records appended so far survive any crash
    /// once this returns (WAL discipline: barrier before send/install).
    std::function<void()> journal_barrier;
    /// Crash-point hook: invoked with a point name at every persist/send
    /// boundary; an armed hook throws SimulatedCrash. Null in production.
    std::function<void(const char* point)> crash_point;
  };

  Replica(PartyId self, ObjectId object, B2BObject& impl,
          const crypto::RsaPrivateKey& key, net::Rng& rng,
          Callbacks callbacks);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // --- bootstrap ------------------------------------------------------------

  /// Install the genesis group and state out of band (the initial
  /// agreement between organisations that precedes protocol use).
  /// `members` must be ordered by join time and include self.
  void bootstrap(std::vector<PartyId> members, const Bytes& initial_state);

  /// True once bootstrapped or connected; false before, and again after a
  /// voluntary disconnection completes.
  bool connected() const { return connected_; }

  // --- local coordination API (driven by the Controller) --------------------

  /// Propose overwriting the shared state (§4.3). `new_state` is the
  /// serialized state the local object already holds (invariant 2: the
  /// proposer's current state is the proposed state).
  RunHandle propose_state(Bytes new_state);

  /// Propose an update (delta) yielding `new_state` (§4.3.1).
  RunHandle propose_update(Bytes update, Bytes new_state);

  /// One item of a state run: an overwrite (`payload` IS the new state)
  /// or an update (delta) yielding `new_state`.
  struct BatchOp {
    bool is_update = false;
    Bytes payload;
    Bytes new_state;
  };

  /// Propose K state changes as ONE coordination run (run pipelining,
  /// DESIGN.md §13). The ops are hash-chained; the proposer signs once, a
  /// responder answers the whole run with one signed response, and the
  /// single decide reveals every per-item authenticator — K agreed states
  /// for one signature per party. The installed tuple sequence is
  /// bit-for-bit what K sequential runs would have produced; one op is
  /// exactly the paper's run. Unlike propose_state/propose_update the
  /// caller must NOT pre-mutate the object: the replica applies the final
  /// state itself (invariant 2).
  RunHandle propose_batch(std::vector<BatchOp> ops);

  // --- deal legs (DESIGN.md §12; driven by the DealCoordinator) --------------

  /// Result of staging one deal leg: the run handle, plus the label and
  /// proposed tuple the deal layer needs to enlist participants.
  struct StagedLeg {
    RunHandle handle;
    std::string label;
    StateTuple proposed;
    std::size_t recipient_count = 0;
  };

  /// Phase A of a deal leg: create and journal a *staged* proposer run —
  /// identical to propose_update/propose_state except that NOTHING is
  /// sent yet and, once the response set completes, the run parks
  /// undecided (DealHooks::on_leg_prepared fires) instead of
  /// auto-deciding. Throws std::runtime_error if this replica is busy.
  StagedLeg stage_deal_run(bool is_update, Bytes payload, Bytes new_state,
                           const std::string& deal_id);

  /// Phase B (after the deal-open record is durable): send the staged
  /// run's propose followed by the deal enlist to every recipient, arm
  /// probes and (if configured) the leg deadline.
  void launch_staged_run(const std::string& label,
                         const DealEnlistMsg& enlist);

  /// Commit a prepared staged leg: un-stages the run and drives the
  /// normal decide phase (authenticator reveal, install). The decision
  /// message is broadcast alongside as the cross-leg evidence artifact.
  void commit_staged_run(const std::string& label,
                         const DealDecisionMsg& decision);

  /// Abort a staged leg (prepared or not): broadcast the signed abort
  /// decision, roll the object back to agreed state, complete the run
  /// handle as aborted.
  void abort_staged_run(const std::string& label,
                        const DealDecisionMsg& decision);

  /// Quietly discard a staged run that was never launched (crash between
  /// staging and the deal-open record): nothing was sent, so no peer ever
  /// saw it. Rolls back and completes the handle as aborted.
  void cancel_staged_run(const std::string& label);

  /// Recovery: re-send the staged run's propose + enlist to recipients
  /// whose responses are missing and re-arm probes. Returns false if no
  /// such staged run is open.
  bool resume_staged_run(const std::string& label,
                         const DealEnlistMsg& enlist);

  /// Status of a staged run's parked response set.
  struct StagedRunStatus {
    bool open = false;      // staged run with this label exists
    bool complete = false;  // every recipient responded
    bool all_accept = false;
    std::vector<PartyId> vetoers;
  };
  StagedRunStatus staged_run_status(const std::string& label) const;

  /// The open staged run, if any: (label, deal id). At most one (a
  /// replica has at most one proposer run).
  std::optional<std::pair<std::string, std::string>> staged_run() const;

  /// Build the per-leg transcript for deal-level TTP registration. The
  /// returned request carries the propose + all collected responses and
  /// is unsigned (the deal-level request signature covers it). Empty if
  /// no staged run with this label is open.
  std::optional<TerminationRequest> staged_termination_request(
      const std::string& label) const;

  /// Hooks the deal layer installs to learn about leg progress. Both are
  /// invoked under this replica's shard lock — implementations may only
  /// touch deal-internal (leaf) state and schedule work, never call back
  /// into any shard.
  struct DealHooks {
    /// Fires when a staged run's response set completes.
    std::function<void(const ObjectId& object, const std::string& label,
                       bool all_accept, const std::vector<PartyId>& vetoers)>
        on_leg_prepared;
    /// Fires instead of a per-run TTP referral when a *staged* proposer
    /// run hits its deadline (the deal layer owns initiator escalation).
    std::function<void(const ObjectId& object, const std::string& label)>
        on_leg_deadline;
  };
  void set_deal_hooks(DealHooks hooks) { deal_hooks_ = std::move(hooks); }

  /// Subject side: ask to join the group coordinating this object.
  /// `via` is any known member; a non-sponsor member relays to the
  /// legitimate sponsor (§4.5.1).
  RunHandle request_connect(const PartyId& via);

  /// Propose eviction of `subjects` (§4.5.4). Relays to the sponsor when
  /// the caller is not the sponsor.
  RunHandle propose_eviction(std::vector<PartyId> subjects);

  /// Voluntary disconnection of this party (§4.5.4).
  RunHandle request_disconnect();

  // --- message dispatch ------------------------------------------------------

  /// Handle one incoming protocol message.
  void handle(const PartyId& from, const Envelope& envelope);

  // --- introspection ----------------------------------------------------------

  const PartyId& self() const { return self_; }
  const ObjectId& object_id() const { return object_; }
  B2BObject& impl() { return impl_; }
  const std::vector<PartyId>& members() const { return members_; }
  const StateTuple& agreed_tuple() const { return agreed_tuple_; }
  const GroupTuple& group_tuple() const { return group_tuple_; }
  const Bytes& agreed_state() const { return agreed_state_; }
  std::uint64_t last_seen_sequence() const { return last_seen_seq_; }

  /// The legitimate sponsor for a connection request: the most recently
  /// joined member (§4.5.1).
  PartyId connect_sponsor() const;

  /// The legitimate sponsor for disconnection of `subject`: the most
  /// recently joined member, or its predecessor if it is the subject.
  PartyId disconnect_sponsor(const PartyId& subject) const;

  /// Labels of protocol runs this replica believes are still active —
  /// the evidence that "the protocol run is active" (§4.4).
  std::vector<std::string> active_run_labels() const;
  bool busy() const;

  /// Extra-protocol resolution hook (§7): locally abandon a blocked run,
  /// rolling back any provisional state. Records evidence of the abort.
  /// Returns false if no such run is active.
  bool resolve_blocked_run(const std::string& run_label);

  /// Count of misbehaviour detections recorded by this replica.
  std::uint64_t violations_detected() const { return violations_detected_; }

  /// Configure sponsor selection (must match across all parties).
  void set_sponsor_policy(SponsorPolicy policy) { sponsor_policy_ = policy; }
  SponsorPolicy sponsor_policy() const { return sponsor_policy_; }

  /// Configure the group decision rule (must match across all parties).
  void set_decision_rule(DecisionRule rule) { decision_rule_ = rule; }
  DecisionRule decision_rule() const { return decision_rule_; }

  // --- TTP-certified termination (§7 extension) ---------------------------------

  struct TtpConfig {
    PartyId ttp;
    crypto::RsaPublicKey ttp_key;
    /// Virtual-time deadline: a run still active this long after it was
    /// seen locally is referred to the TTP.
    std::uint64_t deadline_micros = 0;
  };

  /// Enable deadline-based certified termination. Requires the hosting
  /// coordinator to provide Callbacks::schedule.
  void enable_ttp_termination(TtpConfig config);
  bool ttp_termination_enabled() const { return ttp_.has_value(); }

  // --- journal-based recovery (write-ahead journal replay) ---------------------

  /// Durable image of an in-flight proposer-side run, journaled before
  /// the propose is sent: a state run of K >= 1 items or a membership run
  /// (§4.5, whose sponsor is its proposer). Carries every authenticator
  /// and every item's full state, so a recovered proposer can redo the
  /// decide (which reveals every authenticator) and the installs.
  struct ProposerRunRecord {
    RunPropose propose;
    std::vector<Bytes> authenticators;  // r_i: preimage of item i's rand_hash
    std::vector<Bytes> states;  // full state after item i; none for membership
    std::vector<PartyId> recipients;

    Bytes encode() const;
    static ProposerRunRecord decode(BytesView data);  // throws CodecError
  };

  /// Durable image of an in-flight responder-side run, journaled (with
  /// the validated per-item scratch states) before the signed response is
  /// sent. It is also the live responder run.
  struct ResponderRunRecord {
    RunPropose propose;
    std::vector<Bytes> pending_states;  // empty when we rejected the run
    RunResponse my_response;
    /// Membership at response time: the decide's response coverage is
    /// checked against this, not against the (possibly since-changed)
    /// current member list.
    std::vector<PartyId> members_at_response;

    /// The run holds this replica busy while it is open: once accepted,
    /// or from the start for a kind that locks on reject.
    bool locks() const {
      return my_response.decision().accept || propose.format().locks_on_reject;
    }

    Bytes encode() const;
    static ResponderRunRecord decode(BytesView data);  // throws CodecError
  };

  /// Durable image of a subject-side connect/disconnect request (or a
  /// relayed eviction request), journaled before it goes to the sponsor
  /// so a recovering subject re-sends the SAME nonce — which the sponsor
  /// recognises and answers idempotently — instead of forging a second
  /// request under a fresh one.
  struct SubjectRequestRecord {
    MembershipRequest request;
    Bytes signature;
    PartyId sent_to;
    bool relayed_eviction = false;

    Bytes encode() const;
    static SubjectRequestRecord decode(BytesView data);  // throws CodecError
  };

  /// Everything the coordinator's journal replay reconstructed for one
  /// object: the latest snapshot, the still-open runs on both sides, and
  /// replay protection. Snapshots carry no run labels: `seen_labels`
  /// collects every label the run records name, which is every label the
  /// replica ever saw (each path that notes one journals its run record
  /// before the next snapshot).
  struct RecoveredObjectState {
    std::optional<ReplicaSnapshot> snapshot;
    std::optional<ProposerRunRecord> proposer_run;
    std::map<PartyId, RunResponse> proposer_responses;
    /// Set when the decide was journaled but the run not closed: the
    /// decide phase is redone (idempotently) to the journaled outcome.
    std::optional<RunDecide> proposer_decide;
    std::map<std::string, ResponderRunRecord> responder_runs;
    /// Decides journaled as delivered whose installation may not have
    /// completed before the crash; concluded again on resume.
    std::map<std::string, RunDecide> responder_decides;
    std::set<std::string> seen_labels;
    std::uint64_t max_sequence = 0;

    // --- membership requests (§4.5) ---------------------------------------
    std::optional<SubjectRequestRecord> subject_request;
    /// Membership-request nonces the sponsor side had acted on: survives
    /// so a recovered sponsor does not re-run an already-applied change
    /// when the subject probes it under the original nonce.
    std::set<std::string> processed_nonces;
    /// The answers sent for those requests (see subject_answers_).
    std::map<std::string, std::pair<MsgType, Bytes>> subject_answers;

    // --- TTP termination (§7) -----------------------------------------------
    std::map<std::string, bool> termination_submissions;  // label->proposer?
    std::map<std::string, Bytes> verdicts;  // label -> signed verdict body

    // --- deal legs (DESIGN.md §12) --------------------------------------------
    /// Open staged proposer runs: run label -> deal id. (At most one per
    /// object, but keyed for symmetry with the closing record.)
    std::map<std::string, std::string> staged_runs;
    /// Participant-side enlists journaled as received: run label ->
    /// encoded DealEnlistMsg.
    std::map<std::string, Bytes> deal_enlists;
  };

  /// Rebuild this replica from a journal replay (called by the hosting
  /// coordinator during register_object, instead of bootstrap). Restores
  /// replicated state, re-opens in-flight runs, re-establishes the accept
  /// lock and invariant 2 (the object holds our own open proposal's
  /// state). Records a "recovery" evidence record.
  void restore_recovered(const RecoveredObjectState& recovered);

  /// Redo-and-resend phase of recovery, run after every object is
  /// restored: finishes journaled-but-uninstalled decides (idempotent
  /// redo), re-sends the in-flight propose/response messages, and re-arms
  /// the capped run probes. Returns the handles of runs still in flight
  /// (already-complete redos resolve their handles before returning).
  std::vector<RunHandle> resume_recovered_runs();

  /// Capped periodic re-probe configuration (journal-gated liveness: the
  /// transport acks a frame before the coordinator journals it, so a
  /// message can be acked-then-lost in a crash; probes re-drive the
  /// exchange). Must be set before any run starts.
  void set_run_probe(std::uint64_t interval_micros, int max_probes) {
    run_probe_interval_micros_ = interval_micros;
    max_run_probes_ = max_probes;
  }

 private:
  // --- journaling helpers ----------------------------------------------------
  bool journaling() const {
    return static_cast<bool>(callbacks_.journal_record);
  }
  void journal_record(std::uint8_t type, const Bytes& payload);
  void journal_barrier();
  void hit_crash_point(const char* point);
  ReplicaSnapshot export_snapshot() const;
  /// Journal the current durable replicated state (kSnapshot + barrier).
  void journal_snapshot();
  /// A run closed at this party: journal that it closed (record `type`,
  /// then a barrier), then seal the evidence log so the run's records are
  /// anchored and time-stamped. Crash point "run.pre-seal" lies between.
  void close_run(std::uint8_t type, const std::string& label);
  /// Seal the evidence log now (see Callbacks::seal_evidence).
  void seal_evidence();
  /// Append to the evidence log, filed under `run_label` when the record
  /// is a protocol message of that run (see Callbacks::record_evidence).
  void record_evidence(const std::string& kind, const Bytes& payload,
                       const std::string& run_label = "");
  /// True when run `label`'s transcript holds a `kind` record whose
  /// payload is exactly `body`.
  bool received_before(const std::string& label, const std::string& kind,
                       const Bytes& body) const;
  /// Re-send the decide (of any format) this party sent for a closed run
  /// to `to` (a recovering responder probing us). Only a decide this
  /// party proposed, never one it received: the membership evidence
  /// kinds carry no direction. Returns false if none is on record.
  bool maybe_resend_decide(const std::string& label, const PartyId& to);
  /// Arm one capped re-probe of a still-open run (journal-gated).
  void arm_run_probe(const std::string& label, bool as_proposer, int attempt);

  // --- membership requests (membership.cpp) ----------------------------------
  /// Re-send the stored welcome/reject/confirm answer of an already
  /// answered subject request (journal-gated duplicate handling).
  bool maybe_reanswer_membership_request(const std::string& nonce_key,
                                         const PartyId& subject);
  /// Answer a subject request; journal and keep the answer so a duplicate
  /// of the same request (recovering subject probing us) can be
  /// re-answered.
  void answer_subject(const std::string& nonce_key, const PartyId& subject,
                      MsgType type, Bytes payload);
  /// Refuse a connect request, signed (§4.5.3: the same shape whether the
  /// sponsor or a member refused).
  void reject_connect(const MembershipRequest& request);
  /// Journal the pending subject-side request (kSubjectRequest + barrier).
  void journal_subject_request(const MembershipRequest& request,
                               const Bytes& signature, const PartyId& sent_to,
                               bool relayed_eviction);
  /// Close the pending subject-side request (kSubjectClosed + barrier).
  void close_subject_request(const std::string& nonce_key);
  /// Capped re-probe of the pending subject request (journal-gated).
  void arm_subject_probe(std::string nonce_key, int attempt);
  void resend_subject_request();
  /// Settle a relayed eviction whose run concluded here (we requested it,
  /// and either sponsored it after all or received its decide).
  void settle_relayed_eviction(const MembershipRequest& request, bool agreed,
                               std::string diagnostic,
                               std::vector<PartyId> vetoers,
                               std::uint64_t sequence,
                               const std::string& label);
  void abort_runs_on_departure();

  // --- shared helpers (replica_common in replica.cpp) -----------------------
  std::uint64_t next_sequence();
  void note_sequence(std::uint64_t sequence);
  Bytes fresh_random();
  void record_violation(const std::string& what, const PartyId& suspect);
  /// Like record_violation, but for events that are evidence-worthy yet
  /// explainable by benign races (stale views after membership changes,
  /// duplicate decides): logged, not counted as misbehaviour.
  void record_anomaly(const std::string& what, const PartyId& party);
  void send_envelope(const PartyId& to, MsgType type, Bytes body);
  bool is_member(const PartyId& party) const;
  /// `bookkeep = false` installs the tuple/state without evidence or
  /// journal snapshot — used for the intermediate items of a run, whose
  /// bookkeeping the final item's install subsumes (replay restores only
  /// the latest snapshot, and the decide evidence already carries every
  /// item tuple). Skipping it keeps a batch's per-item cost to hashing
  /// and installs: records carry no stamp of their own (the run's anchor
  /// covers them), but each would still cost a journal append and a
  /// chain hash, and a snapshot another append.
  void install_agreed_state(const StateTuple& tuple, Bytes state,
                            bool apply_to_object, bool bookkeep = true);
  /// Install every item of an agreed run in order (bookkeeping on the
  /// final item only). With `event` set, fires it once per installed
  /// item, carrying that item's sequence number.
  void install_run(const std::vector<BatchItem>& items,
                   std::vector<Bytes> states, bool apply_to_object,
                   std::optional<CoordEvent> event);
  void complete(const RunHandle& handle, RunResult::Outcome outcome,
                std::string diagnostic, std::vector<PartyId> vetoers,
                std::uint64_t sequence, const std::string& label);
  /// Surface a protocol event to the application and the coordinator.
  void emit(const CoordEvent& event);
  /// The state the object holds: our open run's proposed state (invariant
  /// 2), else the agreed one.
  const Bytes& held_state() const;

  // --- the run engine: proposer side ----------------------------------------
  struct ProposerRun : ProposerRunRecord {
    std::map<PartyId, RunResponse> responses;
    RunHandle result;
    /// Deal leg (DESIGN.md §12): park the completed response set for the
    /// deal layer instead of auto-deciding.
    bool deal_staged = false;
    std::string deal_id;

    std::string label() const { return propose.label(); }
  };
  /// The state run builder behind propose_state/propose_update/
  /// propose_batch and stage_deal_run. `object_holds_proposal`: the caller
  /// already applied the proposed state (invariant 2), so an abort must
  /// restore the object instead of leaving it alone. A non-empty `deal_id`
  /// stages the run for the deal layer: journaled, but neither sent nor
  /// decided.
  RunHandle open_run(std::vector<BatchOp> ops, bool object_holds_proposal,
                     const std::string& deal_id = "");
  /// The membership run builder (§4.5): the sponsor proposes the change
  /// `request` asks for.
  RunHandle start_membership_run(MembershipRequest request,
                                 Bytes request_signature, RunHandle handle);
  /// The opener, first half: take the run's labels out of replay and
  /// journal its propose. A staged run is parked here (returns false).
  bool journal_run_open(ProposerRun& run);
  /// The opener, second half: send the propose, arm the run's deadline and
  /// probe. A run with no one to ask decides at once.
  void send_run_open(ProposerRun run);
  /// Re-send our open run's propose (and a deal leg's `enlist`) to every
  /// recipient whose response is still missing.
  void resend_propose_to_silent(const Bytes& enlist = {});
  /// Close our open run as aborted: roll back (or abandon) with `note` on
  /// record, complete its handle with `diagnostic`, close it.
  void abort_proposer_run(const std::string& diagnostic, const Bytes& note);
  void handle_respond(const PartyId& from, MsgType type, const Bytes& body);
  /// The decide step: tally the responses, journal and send the decide,
  /// act on the outcome, close the run.
  void finish_run_as_proposer();
  bool response_signed(const RunResponse& response) const;
  /// Per-kind: act on a decided run at its proposer (install the states,
  /// or apply the member change and answer the subject).
  void proposer_outcome(const BatchProposeMsg& propose, ProposerRun& run,
                        bool agreed, std::vector<PartyId> vetoers,
                        const std::string& diagnostic,
                        const RunDecide& decide);
  void proposer_outcome(const MembershipProposeMsg& propose, ProposerRun& run,
                        bool agreed, std::vector<PartyId> vetoers,
                        const std::string& diagnostic,
                        const RunDecide& decide);

  // --- the run engine: responder side ---------------------------------------
  using ResponderRun = ResponderRunRecord;
  void handle_propose(const PartyId& from, MsgType type, const Bytes& body);
  void handle_decide(const PartyId& from, MsgType type, const Bytes& body);
  /// Per-kind: judge the proposal and sign the response — or, given
  /// `verdict`, answer with that decision unjudged. A state run's
  /// validated item states go to `states`.
  RunResponse respond_to(const BatchProposeMsg& propose,
                         std::optional<Decision> verdict,
                         std::vector<Bytes>* states);
  RunResponse respond_to(const MembershipProposeMsg& propose,
                         std::optional<Decision> verdict,
                         std::vector<Bytes>* states);
  /// The responder validation loop: run-level checks (`digest` is the
  /// recomputed payload_digest()), then every item in order against the
  /// state the previous item produced. Appends the validated per-item
  /// states to `states`.
  Decision validate_run(const BatchProposeMsg& msg,
                        const crypto::Digest& digest,
                        std::vector<Bytes>* states);
  /// The per-item step of validate_run; the object holds the state whose
  /// hash is `prev_state_hash`.
  Decision evaluate_proposal(const Proposal& prop, const BatchItem& item,
                             const crypto::Digest& prev_state_hash,
                             Bytes* state_out);
  Decision evaluate_membership_proposal(const MembershipProposeMsg& msg);
  /// Re-derive every item state of an agreed run from our own copy of the
  /// payloads (nullopt if any hash cannot be confirmed).
  std::optional<std::vector<Bytes>> derive_agreed_states(
      const BatchProposeMsg& propose);

  /// Shared tail of handle_decide, TTP-certified decisions and the
  /// recovery redo: verify the aggregated responses, compute the group
  /// decision, act on it, close the run. `run` must already be removed
  /// from the map.
  void conclude_responder_run(const std::string& label, ResponderRun run,
                              const std::vector<RunResponse>& responses,
                              const PartyId& attribute_to);
  /// Per-kind: act on a decided run at a responder.
  void responder_outcome(const BatchProposeMsg& propose, ResponderRun& run,
                         bool agreed,
                         const std::vector<RunResponse>& responses);
  void responder_outcome(const MembershipProposeMsg& propose,
                         ResponderRun& run, bool agreed,
                         const std::vector<RunResponse>& responses);

  // --- TTP termination helpers ---------------------------------------------------
  void arm_deadline(const std::string& label, bool as_proposer);
  void request_termination(const std::string& label, bool as_proposer);
  /// Our open state run's transcript, as its proposer refers it.
  TerminationRequest proposer_termination_request() const;
  void handle_termination_verdict(const PartyId& from, const Bytes& body);

  // --- deal legs ----------------------------------------------------------------
  /// True while `label` is our open staged (deal-leg) proposer run.
  bool staged(const std::string& label) const;
  void handle_deal_enlist(const PartyId& from, const Bytes& body);
  void handle_deal_decision(const PartyId& from, const Bytes& body);
  /// Re-send the stored deal decision of a closed (aborted) staged run to
  /// a probing responder. Returns false if none is on record.
  bool maybe_resend_deal_decision(const std::string& label, const PartyId& to);

  // --- membership requests and answers (membership.cpp) --------------------
  void handle_connect_request(const PartyId& from, const Bytes& body);
  void handle_connect_welcome(const PartyId& from, const Bytes& body);
  void handle_connect_reject(const PartyId& from, const Bytes& body);
  void handle_disconnect_request(const PartyId& from, const Bytes& body);
  void handle_disconnect_confirm(const PartyId& from, const Bytes& body);
  void apply_membership_change(const MembershipProposal& proposal);
  /// Sponsor-side request intake shared by fresh and deferred requests.
  void process_membership_request(MembershipRequest request, Bytes signature);
  /// Hand a request we cannot serve (departed) to another member.
  void forward_membership_request(const MembershipRequest& request,
                                  const Bytes& signature,
                                  const PartyId& exclude);
  /// Process deferred requests once no run is active (§4.5.1 "blocking").
  void drain_deferred_membership();

  // --- identity & collaborators ----------------------------------------------
  PartyId self_;
  ObjectId object_;
  B2BObject& impl_;
  const crypto::RsaPrivateKey& key_;
  net::Rng& rng_;
  Callbacks callbacks_;

  // --- replicated state --------------------------------------------------------
  bool connected_ = false;
  std::vector<PartyId> members_;  // ordered by join time
  GroupTuple group_tuple_;
  StateTuple agreed_tuple_;
  Bytes agreed_state_;
  std::uint64_t last_seen_seq_ = 0;
  std::set<std::string> seen_run_labels_;  // replay detection (§4.4)
  std::uint64_t violations_detected_ = 0;
  SponsorPolicy sponsor_policy_ = SponsorPolicy::kRotating;
  DecisionRule decision_rule_ = DecisionRule::kUnanimous;
  std::optional<TtpConfig> ttp_;

  /// Group decision from (consistent) accept count under the configured
  /// rule (a unanimous format ignores it); `accepts` counts recipient
  /// accepts (the proposer is implicit).
  bool group_accepts(std::size_t accepts, std::size_t recipients,
                     const RunFormat& format) const;

  // --- the open runs ---------------------------------------------------------
  /// Our own open run, of either kind: at most one at a time.
  std::optional<ProposerRun> proposer_run_;
  /// The runs we responded to and whose decide is still due.
  std::map<std::string, ResponderRun> responder_runs_;

  // --- membership requests -------------------------------------------------
  /// Subject-side pending connect/disconnect request.
  struct SubjectRequest {
    MembershipRequest request;
    RunHandle result;
  };
  std::optional<SubjectRequest> subject_request_;

  /// Eviction proposer (non-sponsor) waiting for the outcome.
  std::optional<RunHandle> relayed_eviction_result_;
  std::string relayed_eviction_nonce_;

  /// Membership requests deferred while a coordination run was active.
  /// Bounded: past kMaxDeferredMembership further requests are dropped
  /// with an anomaly record (the requester's capped probe retries).
  std::deque<std::pair<MembershipRequest, Bytes>> deferred_membership_;
  static constexpr std::size_t kMaxDeferredMembership = 64;
  /// Nonces of membership requests this sponsor has already acted on
  /// (bounded, watermark-style eviction — see BoundedNonceSet).
  BoundedNonceSet sponsor_nonces_;
  /// The welcome, confirm or reject sent for each answered request, by
  /// nonce (journal-gated, kSubjectAnswer): re-sent verbatim to a
  /// duplicate of the request.
  std::map<std::string, std::pair<MsgType, Bytes>> subject_answers_;
  /// Retry accounting for voluntary departures vetoed by transient
  /// view inconsistency.
  std::map<std::string, int> voluntary_retry_counts_;
  static constexpr int kMaxVoluntaryRetries = 32;
  /// Per-nonce forwarding budget for requests received while departed.
  std::map<std::string, int> forward_counts_;

  // --- journal-based recovery state ----------------------------------------------
  /// Decide journaled by our previous incarnation but not confirmed
  /// installed: redone (to the journaled outcome) in resume_recovered_runs.
  std::optional<RunDecide> recovered_decide_;
  /// Delivered decides whose conclusion must be redone on resume.
  std::map<std::string, RunDecide> pending_redo_decides_;
  /// The durable image of our own pending subject-side request: set while
  /// the request is unanswered (journal-gated), drives the subject probe
  /// and the recovery re-send under the original nonce.
  std::optional<SubjectRequestRecord> pending_subject_record_;
  /// TTP referrals journaled before the crash (label -> as_proposer):
  /// resubmitted on resume — the TTP's verdict cache makes resubmission a
  /// re-fetch of any decision it already issued.
  std::map<std::string, bool> recovered_termination_submissions_;
  /// Signed verdict bodies journaled as delivered but possibly not acted
  /// on; redone on resume once the TTP config is re-enabled.
  std::map<std::string, Bytes> pending_redo_verdicts_;
  std::uint64_t run_probe_interval_micros_ = 1'000'000;
  int max_run_probes_ = 12;

  // --- deal legs (DESIGN.md §12) --------------------------------------------------
  DealHooks deal_hooks_;
  /// Participant side: enlists received, keyed by leg run label. Kept for
  /// evidence/blame and decision verification; bounded by active deals.
  std::map<std::string, DealEnlistMsg> deal_enlists_;
  /// First signed deal decision seen per deal id — a later one with a
  /// different signed core is proof of initiator equivocation.
  std::map<std::string, DealDecisionMsg> deal_decisions_seen_;
};

}  // namespace b2b::core
