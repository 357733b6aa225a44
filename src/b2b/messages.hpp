// Protocol messages for state coordination (§4.3) and membership (§4.5).
//
// Every message that carries an assertion is split into a *signed core*
// (the canonical encoding returned by signed_bytes()) and the enclosing
// message. Verifiers always recompute the signed core from the decoded
// fields, so any inconsistency between "signed and unsigned parts" —
// the tampering §4.4 analyses — is detected by signature verification.
//
// The final decide messages carry no signature: they are authenticated by
// revealing the random number r whose hash the (signed) proposal committed
// to, exactly as the paper prescribes ("requires no signature since only
// P_i can produce the authenticator").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "b2b/tuples.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"

namespace b2b::crypto {
class RsaPublicKey;
}  // namespace b2b::crypto

namespace b2b::core {

struct RunFormat;

/// Discriminates the payload of a wire envelope.
enum class MsgType : std::uint8_t {
  kPropose = 1,
  kRespond = 2,
  kDecide = 3,
  // A state run of K >= 2 items (DESIGN.md §13): one signed proposal
  // opens a hash-chained batch; one decide closes all of them.
  kBatchPropose = 4,
  kBatchDecide = 5,
  kConnectRequest = 10,
  kMembershipPropose = 11,
  kMembershipRespond = 12,
  kMembershipDecide = 13,
  kConnectWelcome = 14,
  kConnectReject = 15,
  kDisconnectRequest = 16,
  kDisconnectConfirm = 17,
  kTerminationRequest = 20,  // party -> termination TTP (§7 extension)
  kTerminationVerdict = 21,  // termination TTP -> party
  // Deal subsystem (multi-object atomic coordination, DESIGN.md §12).
  kDealEnlist = 30,              // initiator -> leg recipients (with propose)
  kDealDecision = 31,            // initiator -> participants (signed verdict)
  kDealTerminationRequest = 32,  // initiator -> TTP (atomic registration)
  kDealTerminationVerdict = 33,  // TTP -> initiator
};

/// Length-prefixed lists, shared by the message and journal-record codecs.
void encode_party_list(wire::Encoder& enc, const std::vector<PartyId>& list);
std::vector<PartyId> decode_party_list(wire::Decoder& dec);
void encode_blob_list(wire::Encoder& enc, const std::vector<Bytes>& list);
std::vector<Bytes> decode_blob_list(wire::Decoder& dec);

/// Outermost wire frame: which object, which message kind, body.
struct Envelope {
  MsgType type{};
  ObjectId object;
  Bytes body;

  Bytes encode() const;
  static Envelope decode(BytesView data);
};

// ---------------------------------------------------------------------------
// State coordination (§4.3, update variant §4.3.1)
// ---------------------------------------------------------------------------

/// The signed core of a state-change proposal:
///   prop = { P_i, G_Pi, T_agreed, T_prop, payload kind, H(payload) }
/// For an overwrite, payload is the full new state and H(payload) equals
/// T_prop.state_hash; for an update, payload is the delta and
/// T_prop.state_hash is the hash of the state *after* applying it.
struct Proposal {
  PartyId proposer;
  ObjectId object;
  GroupTuple group;      // proposer's view of the group
  StateTuple agreed;     // T_agreed as viewed by the proposer
  StateTuple proposed;   // T_prop
  bool is_update = false;
  crypto::Digest payload_hash{};  // H(payload bytes in the ProposeMsg)

  Bytes signed_bytes() const;
  void encode_into(wire::Encoder& enc) const;
  static Proposal decode_from(wire::Decoder& dec);

  friend bool operator==(const Proposal&, const Proposal&) = default;
};

/// Protocol message 1: propose. Carries the payload (state or update) and
/// the proposer's signature over the proposal core.
struct ProposeMsg {
  Proposal proposal;
  Bytes payload;
  Bytes signature;

  Bytes encode() const;
  static ProposeMsg decode(BytesView data);

  friend bool operator==(const ProposeMsg&, const ProposeMsg&) = default;
};

/// The signed core of a response: receipt for the proposal plus the
/// responder's decision and its own view of agreed/current state and group
/// (the consistency-check material of §4.3).
struct Response {
  PartyId responder;
  ObjectId object;
  StateTuple proposed;            // echo of T_prop (the receipt)
  StateTuple agreed_view;         // T_agreed as viewed by the responder
  StateTuple current_view;        // T_current as viewed by the responder
  GroupTuple group_view;          // responder's view of the group
  crypto::Digest payload_integrity{};  // H(payload as actually received)
  Decision decision;

  Bytes signed_bytes() const;
  void encode_into(wire::Encoder& enc) const;
  static Response decode_from(wire::Decoder& dec);

  friend bool operator==(const Response&, const Response&) = default;
};

/// Protocol message 2: respond (one per recipient, sent to the proposer).
struct RespondMsg {
  Response response;
  Bytes signature;

  /// A state response answers runs of any K: both state rows share the
  /// respond fields.
  const RunFormat& format() const;
  const StateTuple& tuple() const { return response.proposed; }
  Bytes encode() const;
  static RespondMsg decode(BytesView data);
  void encode_into(wire::Encoder& enc) const;
  static RespondMsg decode_from(wire::Decoder& dec);

  friend bool operator==(const RespondMsg&, const RespondMsg&) = default;
};

/// Protocol message 3: decide. Aggregates every signed response and reveals
/// the authenticator r (preimage of T_prop.rand_hash). Unsigned by design.
struct DecideMsg {
  PartyId proposer;
  ObjectId object;
  StateTuple proposed;  // identifies the run
  std::vector<RespondMsg> responses;
  Bytes authenticator;  // r

  Bytes encode() const;
  static DecideMsg decode(BytesView data);

  friend bool operator==(const DecideMsg&, const DecideMsg&) = default;
};

// ---------------------------------------------------------------------------
// State runs of K >= 1 items (DESIGN.md §13): a single run is a batch of one
// ---------------------------------------------------------------------------

/// One item of a state run: a sub-proposal in the hash chain. `proposed`
/// is the sub-tuple this item installs — sequence numbers are consecutive
/// across the run, and each rand_hash commits to its own authenticator, so
/// installed tuples are bit-identical to the tuples K sequential runs would
/// have produced.
struct BatchItem {
  bool is_update = false;
  Bytes payload;        // full state (overwrite) or delta (update)
  StateTuple proposed;  // sub-tuple installed by this item

  void encode_into(wire::Encoder& enc) const;
  static BatchItem decode_from(wire::Decoder& dec);
  Bytes encode() const;

  friend bool operator==(const BatchItem&, const BatchItem&) = default;
};

/// The batch hash chain. Its genesis binds the object and the agreed
/// tuple the batch departs from; each item extends the head with the hash
/// of its full encoding. The proposer signs ONE proposal core whose
/// payload_hash is the final head — that single signature therefore
/// attests to every item, in order, and to nothing else.
crypto::Digest batch_chain_genesis(const ObjectId& object,
                                   const StateTuple& agreed);
crypto::Digest batch_chain_extend(const crypto::Digest& head,
                                  const BatchItem& item);
crypto::Digest batch_chain_head(const ObjectId& object,
                                const StateTuple& agreed,
                                const std::vector<BatchItem>& items);

/// The signed core of a batch proposal is a regular Proposal — with
/// `proposed` = the FINAL item's sub-tuple (which labels the run) and
/// `payload_hash` = the batch chain head — but signed under its own
/// domain tag so a batch signature can never be replayed as a plain
/// single-run proposal or vice versa.
Bytes batch_proposal_signed_bytes(const Proposal& proposal);

/// How a run goes on the wire: one row per kind of run, here and nowhere
/// else. A state run's row is chosen by K alone. K = 1 is exactly the
/// paper's §4.3 run: kPropose carries a ProposeMsg (payload_hash =
/// H(payload), signed over Proposal::signed_bytes()) and kDecide closes
/// it. K >= 2 is the pipelined batch: kBatchPropose carries every item
/// (payload_hash = the chain head, signed under the batch tag) and
/// kBatchDecide closes it by revealing every authenticator. A membership
/// run (§4.5) is the same exchange over a group tuple and member list:
/// kMembershipPropose, kMembershipRespond, kMembershipDecide, under the
/// membership.* evidence kinds, which carry no direction. A run closes
/// only with the decide of its own format (§4.4).
struct RunFormat {
  bool batched = false;
  MsgType propose{};
  MsgType respond{};
  MsgType decide{};
  const char* propose_sent = "";  // evidence kinds
  const char* propose_received = "";
  const char* respond_sent = "";
  const char* respond_received = "";
  const char* decide_sent = "";
  const char* decide_received = "";
  /// Membership runs stay unanimous whatever the DecisionRule.
  bool unanimous = false;
  /// An open responder run holds the replica busy even after a reject
  /// (a state responder run only once it accepted).
  bool locks_on_reject = false;
  /// The kind's word in violation and anomaly texts.
  const char* kind = "";

  static const RunFormat& of(std::size_t items);
  static const RunFormat& membership();
};

/// Protocol message 1 of a K-item run: ONE signed proposal for the whole
/// run, `proposal.proposed` = the final item's sub-tuple. Responders
/// validate the items in order against scratch state and answer with a
/// single standard RespondMsg whose payload_integrity echoes the
/// payload_digest() they computed.
struct BatchProposeMsg {
  Proposal proposal;
  std::vector<BatchItem> items;  // in application order, K >= 1
  Bytes signature;

  const RunFormat& format() const { return RunFormat::of(items.size()); }
  const PartyId& proposer() const { return proposal.proposer; }
  const StateTuple& tuple() const { return proposal.proposed; }
  /// What proposal.payload_hash must commit to: H(payload) for one item,
  /// the chain head (over proposal.object/agreed) for a batch.
  crypto::Digest payload_digest() const;
  /// The bytes the proposer signs.
  Bytes signed_bytes() const;
  /// The paper's propose message; only meaningful for a single item.
  ProposeMsg single() const;

  /// The wire body in format().
  Bytes encode() const;
  /// Decodes a body that arrived as `type`; throws CodecError, also for a
  /// kBatchPropose of fewer than two items.
  static BatchProposeMsg decode(MsgType type, BytesView data);
  /// u8(wire type) blob(encode()) — for journal records.
  void encode_into(wire::Encoder& enc) const;
  static BatchProposeMsg decode_from(wire::Decoder& dec);

  friend bool operator==(const BatchProposeMsg&,
                         const BatchProposeMsg&) = default;
};

/// Protocol message 3 of a K-item run: aggregates every signed response
/// and reveals EVERY item's authenticator (auth[i] is the preimage of
/// item i's rand_hash), so a responder installs each sub-tuple only
/// against its own revealed preimage — no sub-state can be forged by
/// replaying a prefix. Unsigned by design.
struct BatchDecideMsg {
  PartyId proposer;
  ObjectId object;
  StateTuple proposed;  // final sub-tuple; identifies the run
  std::vector<RespondMsg> responses;
  std::vector<Bytes> authenticators;  // one per item, in order

  const RunFormat& format() const {
    return RunFormat::of(authenticators.size());
  }
  const StateTuple& tuple() const { return proposed; }
  /// The wire body in format(); throws like BatchProposeMsg::decode.
  Bytes encode() const;
  static BatchDecideMsg decode(MsgType type, BytesView data);
  /// u8(wire type) blob(encode()) — for journal records.
  void encode_into(wire::Encoder& enc) const;
  static BatchDecideMsg decode_from(wire::Decoder& dec);

  friend bool operator==(const BatchDecideMsg&,
                         const BatchDecideMsg&) = default;
};

// ---------------------------------------------------------------------------
// Membership (§4.5): connection, eviction, voluntary disconnection
// ---------------------------------------------------------------------------

enum class MembershipKind : std::uint8_t {
  kConnect = 1,
  kEvict = 2,
  kVoluntaryDisconnect = 3,
};

/// Initial request from the subject (connect / voluntary disconnect) or
/// from the eviction proposer to the sponsor. Signed by its sender.
struct MembershipRequest {
  MembershipKind kind{};
  PartyId sender;               // subject, or eviction proposer
  ObjectId object;
  std::vector<PartyId> subjects;  // who joins/leaves (evict may list several)
  Bytes subject_public_key;       // connect only: encoded RsaPublicKey
  Bytes request_nonce;            // r_new: uniquely labels the request

  Bytes signed_bytes() const;
  void encode_into(wire::Encoder& enc) const;
  static MembershipRequest decode_from(wire::Decoder& dec);
  Bytes encode() const;
  static MembershipRequest decode(BytesView data);

  friend bool operator==(const MembershipRequest&,
                         const MembershipRequest&) = default;
};

/// Sponsor's proposal of a membership change to the recipient set.
/// new_group is the group tuple that will identify the changed membership.
struct MembershipProposal {
  PartyId sponsor;
  ObjectId object;
  MembershipRequest request;      // echo of the (signed) request
  Bytes request_signature;        // signature from the request sender
  GroupTuple current_group;       // sponsor's view before the change
  GroupTuple new_group;           // tuple identifying the proposed group
  StateTuple agreed;              // sponsor's view of agreed object state
  std::vector<PartyId> new_members;  // the proposed ordered member list

  Bytes signed_bytes() const;
  friend bool operator==(const MembershipProposal&,
                         const MembershipProposal&) = default;
};

/// Message: sponsor -> recipients (everyone but the sponsor and, for
/// connect/evict, the subject).
struct MembershipProposeMsg {
  MembershipProposal proposal;
  Bytes signature;  // sponsor's

  const RunFormat& format() const { return RunFormat::membership(); }
  const PartyId& proposer() const { return proposal.sponsor; }
  const GroupTuple& tuple() const { return proposal.new_group; }
  Bytes signed_bytes() const { return proposal.signed_bytes(); }
  Bytes encode() const;
  static MembershipProposeMsg decode(BytesView data);

  friend bool operator==(const MembershipProposeMsg&,
                         const MembershipProposeMsg&) = default;
};

/// A recipient's signed response to a membership proposal. For voluntary
/// disconnection the decision must be accept (no veto, §4.5.4).
struct MembershipResponse {
  PartyId responder;
  ObjectId object;
  GroupTuple new_group;     // echo (receipt)
  GroupTuple group_view;    // responder's current view
  StateTuple agreed_view;   // responder's view of agreed object state
  Decision decision;

  Bytes signed_bytes() const;
  void encode_into(wire::Encoder& enc) const;
  static MembershipResponse decode_from(wire::Decoder& dec);

  friend bool operator==(const MembershipResponse&,
                         const MembershipResponse&) = default;
};

struct MembershipRespondMsg {
  MembershipResponse response;
  Bytes signature;

  const RunFormat& format() const { return RunFormat::membership(); }
  const GroupTuple& tuple() const { return response.new_group; }
  Bytes encode() const;
  static MembershipRespondMsg decode(BytesView data);
  void encode_into(wire::Encoder& enc) const;
  static MembershipRespondMsg decode_from(wire::Decoder& dec);

  friend bool operator==(const MembershipRespondMsg&,
                         const MembershipRespondMsg&) = default;
};

/// Sponsor -> recipients: aggregated responses + revealed authenticator.
struct MembershipDecideMsg {
  PartyId sponsor;
  ObjectId object;
  GroupTuple new_group;  // identifies the run
  std::vector<MembershipRespondMsg> responses;
  Bytes authenticator;  // preimage of new_group.rand_hash

  const RunFormat& format() const { return RunFormat::membership(); }
  const GroupTuple& tuple() const { return new_group; }
  Bytes encode() const;
  static MembershipDecideMsg decode(BytesView data);

  friend bool operator==(const MembershipDecideMsg&,
                         const MembershipDecideMsg&) = default;
};

/// Sponsor -> new member after an agreed connect: everything the subject
/// needs to install a verified replica (§4.5.3): the member list with
/// public keys, the agreed state with per-member signed agreed tuples
/// (inside the aggregated responses), and the authenticator.
struct ConnectWelcomeMsg {
  PartyId sponsor;
  ObjectId object;
  GroupTuple new_group;
  std::vector<PartyId> members;          // ordered by join time, incl. subject
  std::vector<Bytes> member_public_keys;  // parallel to `members`
  StateTuple agreed;                      // sponsor's signed view
  Bytes agreed_state;                     // S_agreed bytes
  std::vector<MembershipRespondMsg> responses;
  Bytes authenticator;
  Bytes sponsor_signature;  // over {new_group, members, agreed}

  Bytes signed_bytes() const;
  Bytes encode() const;
  static ConnectWelcomeMsg decode(BytesView data);
};

/// Sponsor -> subject: rejection. Deliberately identical in shape whether
/// the sponsor rejected immediately or a member vetoed (§4.5.3: the subject
/// learns nothing more either way).
struct ConnectRejectMsg {
  PartyId sponsor;
  ObjectId object;
  Bytes request_nonce;  // echoes the request this rejects
  Bytes signature;      // sponsor's, over {“reject”, object, nonce}

  Bytes signed_bytes() const;
  Bytes encode() const;
  static ConnectRejectMsg decode(BytesView data);
};

/// Sponsor -> voluntarily departing subject: confirmation carrying the
/// evidence that the remaining group saw the disconnection.
struct DisconnectConfirmMsg {
  PartyId sponsor;
  ObjectId object;
  GroupTuple new_group;
  std::vector<MembershipRespondMsg> responses;
  Bytes authenticator;

  Bytes encode() const;
  static DisconnectConfirmMsg decode(BytesView data);
};

// ---------------------------------------------------------------------------
// The messages of a run of either kind (DESIGN.md §4.5, §13(a))
// ---------------------------------------------------------------------------
//
// One run engine carries state runs and membership runs. It reads their
// messages only through these wrappers; the per-kind steps take the typed
// message (state() / membership()).

/// What the three messages of a run share, whatever its kind: the typed
/// message, the codec (Run::decode picks it by wire type; a journal
/// record holds u8(wire type) blob(body)) and the run tuple's label.
template <class Run, class State, class Membership,
          MsgType RunFormat::*kType>
struct RunMessage {
  std::variant<State, Membership> msg;

  const State* state() const { return std::get_if<State>(&msg); }
  const Membership* membership() const {
    return std::get_if<Membership>(&msg);
  }
  /// Applies `f` to the typed message.
  template <class F>
  decltype(auto) with(F&& f) const {
    return std::visit(std::forward<F>(f), msg);
  }
  /// The row of the run's format.
  const RunFormat& format() const {
    return with([](const auto& m) -> const RunFormat& { return m.format(); });
  }
  /// The label of the run tuple (a state run's final item's).
  std::string label() const {
    return with([](const auto& m) { return m.tuple().label(); });
  }
  /// The wire body in format().
  Bytes encode() const {
    return with([](const auto& m) { return m.encode(); });
  }
  void encode_into(wire::Encoder& enc) const {
    enc.u8(static_cast<std::uint8_t>(format().*kType)).blob(encode());
  }
  static Run decode_from(wire::Decoder& dec) {
    auto type = static_cast<MsgType>(dec.u8());
    return Run::decode(type, dec.blob());
  }

  friend bool operator==(const RunMessage&, const RunMessage&) = default;
};

/// Message 1 of a run: a state run's K-item propose or a membership
/// propose.
struct RunPropose : RunMessage<RunPropose, BatchProposeMsg,
                               MembershipProposeMsg, &RunFormat::propose> {
  const PartyId& proposer() const;  // the sponsor of a membership run
  const ObjectId& object() const;
  std::uint64_t sequence() const;
  /// Every label the run takes out of replay: one per item.
  std::vector<std::string> labels() const;
  /// H(r_i) for each authenticator the decide must reveal, in order.
  std::vector<crypto::Digest> rand_hashes() const;
  /// Whether the proposer asks `member` to respond: every member but the
  /// proposer, and but the members a removal takes out.
  bool asks(const PartyId& member) const;
  bool signed_by(const crypto::RsaPublicKey* key) const;
  /// Throws CodecError, also for a batch whose items contradict the head
  /// tuple the proposer signed.
  static RunPropose decode(MsgType type, BytesView data);
};

/// Message 2: a recipient's signed response of either kind.
struct RunResponse : RunMessage<RunResponse, RespondMsg, MembershipRespondMsg,
                                &RunFormat::respond> {
  const PartyId& responder() const;
  const Decision& decision() const;
  /// It echoes `propose`'s run tuple.
  bool answers(const RunPropose& propose) const;
  /// An accept whose view fields agree with the proposal: only these count
  /// towards agreement (an accept contradicting the proposal is internally
  /// inconsistent content, §4.4).
  bool consistent_accept(const RunPropose& propose) const;
  bool signed_by(const crypto::RsaPublicKey* key) const;
  static RunResponse decode(MsgType type, BytesView data);
};

/// Message 3: the decide of either kind, aggregating the responses and
/// revealing the authenticators.
struct RunDecide : RunMessage<RunDecide, BatchDecideMsg, MembershipDecideMsg,
                              &RunFormat::decide> {
  /// The decide `proposer` sends for `propose`'s run.
  static RunDecide of(const RunPropose& propose, const PartyId& proposer,
                      const std::vector<RunResponse>& responses,
                      const std::vector<Bytes>& authenticators);
  const PartyId& proposer() const;
  std::vector<Bytes> authenticators() const;
  std::vector<RunResponse> responses() const;
  static RunDecide decode(MsgType type, BytesView data);
};

}  // namespace b2b::core
