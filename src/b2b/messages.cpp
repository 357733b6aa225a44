#include "b2b/messages.hpp"

#include "b2b/evidence.hpp"
#include "common/error.hpp"

namespace b2b::core {

namespace {

/// Domain-separation tags so a signature over one message kind can never
/// be replayed as a signature over another.
constexpr std::uint8_t kTagProposal = 0x01;
constexpr std::uint8_t kTagResponse = 0x02;
constexpr std::uint8_t kTagMembershipRequest = 0x03;
constexpr std::uint8_t kTagMembershipProposal = 0x04;
constexpr std::uint8_t kTagMembershipResponse = 0x05;
constexpr std::uint8_t kTagConnectWelcome = 0x06;
constexpr std::uint8_t kTagConnectReject = 0x07;
constexpr std::uint8_t kTagBatchProposal = 0x08;

}  // namespace

void encode_party_list(wire::Encoder& enc, const std::vector<PartyId>& list) {
  enc.varint(list.size());
  for (const auto& p : list) enc.str(p.str());
}

std::vector<PartyId> decode_party_list(wire::Decoder& dec) {
  std::uint64_t n = dec.varint();
  std::vector<PartyId> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.emplace_back(dec.str());
  return out;
}

void encode_blob_list(wire::Encoder& enc, const std::vector<Bytes>& list) {
  enc.varint(list.size());
  for (const Bytes& blob : list) enc.blob(blob);
}

std::vector<Bytes> decode_blob_list(wire::Decoder& dec) {
  std::uint64_t n = dec.varint();
  std::vector<Bytes> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(dec.blob());
  return out;
}

// --------------------------------------------------------------------------
// Envelope
// --------------------------------------------------------------------------

Bytes Envelope::encode() const {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(type)).str(object.str()).blob(body);
  return std::move(enc).take();
}

Envelope Envelope::decode(BytesView data) {
  wire::Decoder dec{data};
  Envelope env;
  env.type = static_cast<MsgType>(dec.u8());
  env.object = ObjectId{dec.str()};
  env.body = dec.blob();
  dec.expect_done();
  return env;
}

// --------------------------------------------------------------------------
// Proposal / ProposeMsg
// --------------------------------------------------------------------------

void Proposal::encode_into(wire::Encoder& enc) const {
  enc.str(proposer.str()).str(object.str());
  group.encode_into(enc);
  agreed.encode_into(enc);
  proposed.encode_into(enc);
  enc.boolean(is_update).raw(crypto::digest_bytes(payload_hash));
}

Proposal Proposal::decode_from(wire::Decoder& dec) {
  Proposal p;
  p.proposer = PartyId{dec.str()};
  p.object = ObjectId{dec.str()};
  p.group = GroupTuple::decode_from(dec);
  p.agreed = StateTuple::decode_from(dec);
  p.proposed = StateTuple::decode_from(dec);
  p.is_update = dec.boolean();
  p.payload_hash = crypto::digest_from_bytes(dec.raw(32));
  return p;
}

Bytes Proposal::signed_bytes() const {
  wire::Encoder enc;
  enc.u8(kTagProposal);
  encode_into(enc);
  return std::move(enc).take();
}

Bytes ProposeMsg::encode() const {
  wire::Encoder enc;
  proposal.encode_into(enc);
  enc.blob(payload).blob(signature);
  return std::move(enc).take();
}

ProposeMsg ProposeMsg::decode(BytesView data) {
  wire::Decoder dec{data};
  ProposeMsg msg;
  msg.proposal = Proposal::decode_from(dec);
  msg.payload = dec.blob();
  msg.signature = dec.blob();
  dec.expect_done();
  return msg;
}

// --------------------------------------------------------------------------
// Response / RespondMsg
// --------------------------------------------------------------------------

void Response::encode_into(wire::Encoder& enc) const {
  enc.str(responder.str()).str(object.str());
  proposed.encode_into(enc);
  agreed_view.encode_into(enc);
  current_view.encode_into(enc);
  group_view.encode_into(enc);
  enc.raw(crypto::digest_bytes(payload_integrity));
  decision.encode_into(enc);
}

Response Response::decode_from(wire::Decoder& dec) {
  Response r;
  r.responder = PartyId{dec.str()};
  r.object = ObjectId{dec.str()};
  r.proposed = StateTuple::decode_from(dec);
  r.agreed_view = StateTuple::decode_from(dec);
  r.current_view = StateTuple::decode_from(dec);
  r.group_view = GroupTuple::decode_from(dec);
  r.payload_integrity = crypto::digest_from_bytes(dec.raw(32));
  r.decision = Decision::decode_from(dec);
  return r;
}

Bytes Response::signed_bytes() const {
  wire::Encoder enc;
  enc.u8(kTagResponse);
  encode_into(enc);
  return std::move(enc).take();
}

void RespondMsg::encode_into(wire::Encoder& enc) const {
  response.encode_into(enc);
  enc.blob(signature);
}

RespondMsg RespondMsg::decode_from(wire::Decoder& dec) {
  RespondMsg msg;
  msg.response = Response::decode_from(dec);
  msg.signature = dec.blob();
  return msg;
}

Bytes RespondMsg::encode() const {
  wire::Encoder enc;
  encode_into(enc);
  return std::move(enc).take();
}

RespondMsg RespondMsg::decode(BytesView data) {
  wire::Decoder dec{data};
  RespondMsg msg = decode_from(dec);
  dec.expect_done();
  return msg;
}

// --------------------------------------------------------------------------
// DecideMsg
// --------------------------------------------------------------------------

Bytes DecideMsg::encode() const {
  wire::Encoder enc;
  enc.str(proposer.str()).str(object.str());
  proposed.encode_into(enc);
  enc.varint(responses.size());
  for (const auto& r : responses) r.encode_into(enc);
  enc.blob(authenticator);
  return std::move(enc).take();
}

DecideMsg DecideMsg::decode(BytesView data) {
  wire::Decoder dec{data};
  DecideMsg msg;
  msg.proposer = PartyId{dec.str()};
  msg.object = ObjectId{dec.str()};
  msg.proposed = StateTuple::decode_from(dec);
  std::uint64_t n = dec.varint();
  msg.responses.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    msg.responses.push_back(RespondMsg::decode_from(dec));
  }
  msg.authenticator = dec.blob();
  dec.expect_done();
  return msg;
}

// --------------------------------------------------------------------------
// State runs of K >= 1 items (DESIGN.md §13)
// --------------------------------------------------------------------------

void BatchItem::encode_into(wire::Encoder& enc) const {
  enc.boolean(is_update).blob(payload);
  proposed.encode_into(enc);
}

BatchItem BatchItem::decode_from(wire::Decoder& dec) {
  BatchItem item;
  item.is_update = dec.boolean();
  item.payload = dec.blob();
  item.proposed = StateTuple::decode_from(dec);
  return item;
}

Bytes BatchItem::encode() const {
  wire::Encoder enc;
  encode_into(enc);
  return std::move(enc).take();
}

crypto::Digest batch_chain_genesis(const ObjectId& object,
                                   const StateTuple& agreed) {
  wire::Encoder enc;
  enc.str("b2b.batch.genesis").str(object.str());
  agreed.encode_into(enc);
  return crypto::Sha256::hash(std::move(enc).take());
}

crypto::Digest batch_chain_extend(const crypto::Digest& head,
                                  const BatchItem& item) {
  crypto::Sha256 hasher;
  hasher.update(crypto::digest_bytes(head));
  hasher.update(crypto::digest_bytes(crypto::Sha256::hash(item.encode())));
  return hasher.finish();
}

crypto::Digest batch_chain_head(const ObjectId& object,
                                const StateTuple& agreed,
                                const std::vector<BatchItem>& items) {
  crypto::Digest head = batch_chain_genesis(object, agreed);
  for (const BatchItem& item : items) head = batch_chain_extend(head, item);
  return head;
}

Bytes batch_proposal_signed_bytes(const Proposal& proposal) {
  wire::Encoder enc;
  enc.u8(kTagBatchProposal);
  proposal.encode_into(enc);
  return std::move(enc).take();
}

const RunFormat& RunFormat::of(std::size_t items) {
  static const RunFormat kSingle{
      false,
      MsgType::kPropose,
      MsgType::kDecide,
      "propose",
      "decide",
      evidence_kind::kProposeSent,
      evidence_kind::kProposeReceived,
      evidence_kind::kDecideSent,
      evidence_kind::kDecideReceived,
  };
  static const RunFormat kBatch{
      true,
      MsgType::kBatchPropose,
      MsgType::kBatchDecide,
      "batch-propose",
      "batch-decide",
      evidence_kind::kBatchProposeSent,
      evidence_kind::kBatchProposeReceived,
      evidence_kind::kBatchDecideSent,
      evidence_kind::kBatchDecideReceived,
  };
  return items > 1 ? kBatch : kSingle;
}

crypto::Digest BatchProposeMsg::payload_digest() const {
  if (!format().batched) return crypto::Sha256::hash(items.front().payload);
  return batch_chain_head(proposal.object, proposal.agreed, items);
}

Bytes BatchProposeMsg::signed_bytes() const {
  return format().batched ? batch_proposal_signed_bytes(proposal)
                          : proposal.signed_bytes();
}

ProposeMsg BatchProposeMsg::single() const {
  return ProposeMsg{proposal, items.front().payload, signature};
}

Bytes BatchProposeMsg::encode() const {
  if (!format().batched) return single().encode();
  wire::Encoder enc;
  proposal.encode_into(enc);
  enc.varint(items.size());
  for (const auto& item : items) item.encode_into(enc);
  enc.blob(signature);
  return std::move(enc).take();
}

BatchProposeMsg BatchProposeMsg::decode(MsgType type, BytesView data) {
  BatchProposeMsg msg;
  if (type == MsgType::kPropose) {
    ProposeMsg single = ProposeMsg::decode(data);
    msg.proposal = single.proposal;
    msg.items.push_back(BatchItem{single.proposal.is_update,
                                  std::move(single.payload),
                                  single.proposal.proposed});
    msg.signature = std::move(single.signature);
    return msg;
  }
  if (type != MsgType::kBatchPropose) throw CodecError("not a propose");
  wire::Decoder dec{data};
  msg.proposal = Proposal::decode_from(dec);
  std::uint64_t n = dec.varint();
  if (n < 2) throw CodecError("batch propose with fewer than two items");
  msg.items.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    msg.items.push_back(BatchItem::decode_from(dec));
  }
  msg.signature = dec.blob();
  dec.expect_done();
  return msg;
}

void BatchProposeMsg::encode_into(wire::Encoder& enc) const {
  enc.u8(static_cast<std::uint8_t>(format().propose)).blob(encode());
}

BatchProposeMsg BatchProposeMsg::decode_from(wire::Decoder& dec) {
  auto type = static_cast<MsgType>(dec.u8());
  return decode(type, dec.blob());
}

Bytes BatchDecideMsg::encode() const {
  if (!format().batched) {
    return DecideMsg{proposer, object, proposed, responses,
                     authenticators.front()}
        .encode();
  }
  wire::Encoder enc;
  enc.str(proposer.str()).str(object.str());
  proposed.encode_into(enc);
  enc.varint(responses.size());
  for (const auto& r : responses) r.encode_into(enc);
  encode_blob_list(enc, authenticators);
  return std::move(enc).take();
}

BatchDecideMsg BatchDecideMsg::decode(MsgType type, BytesView data) {
  BatchDecideMsg msg;
  if (type == MsgType::kDecide) {
    DecideMsg single = DecideMsg::decode(data);
    msg.proposer = std::move(single.proposer);
    msg.object = std::move(single.object);
    msg.proposed = single.proposed;
    msg.responses = std::move(single.responses);
    msg.authenticators.push_back(std::move(single.authenticator));
    return msg;
  }
  if (type != MsgType::kBatchDecide) throw CodecError("not a decide");
  wire::Decoder dec{data};
  msg.proposer = PartyId{dec.str()};
  msg.object = ObjectId{dec.str()};
  msg.proposed = StateTuple::decode_from(dec);
  std::uint64_t n = dec.varint();
  msg.responses.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    msg.responses.push_back(RespondMsg::decode_from(dec));
  }
  msg.authenticators = decode_blob_list(dec);
  if (msg.authenticators.size() < 2) {
    throw CodecError("batch decide with fewer than two items");
  }
  dec.expect_done();
  return msg;
}

void BatchDecideMsg::encode_into(wire::Encoder& enc) const {
  enc.u8(static_cast<std::uint8_t>(format().decide)).blob(encode());
}

BatchDecideMsg BatchDecideMsg::decode_from(wire::Decoder& dec) {
  auto type = static_cast<MsgType>(dec.u8());
  return decode(type, dec.blob());
}

// --------------------------------------------------------------------------
// MembershipRequest
// --------------------------------------------------------------------------

void MembershipRequest::encode_into(wire::Encoder& enc) const {
  enc.u8(static_cast<std::uint8_t>(kind)).str(sender.str()).str(object.str());
  encode_party_list(enc, subjects);
  enc.blob(subject_public_key).blob(request_nonce);
}

MembershipRequest MembershipRequest::decode_from(wire::Decoder& dec) {
  MembershipRequest r;
  r.kind = static_cast<MembershipKind>(dec.u8());
  r.sender = PartyId{dec.str()};
  r.object = ObjectId{dec.str()};
  r.subjects = decode_party_list(dec);
  r.subject_public_key = dec.blob();
  r.request_nonce = dec.blob();
  return r;
}

Bytes MembershipRequest::signed_bytes() const {
  wire::Encoder enc;
  enc.u8(kTagMembershipRequest);
  encode_into(enc);
  return std::move(enc).take();
}

Bytes MembershipRequest::encode() const {
  wire::Encoder enc;
  encode_into(enc);
  return std::move(enc).take();
}

MembershipRequest MembershipRequest::decode(BytesView data) {
  wire::Decoder dec{data};
  MembershipRequest r = decode_from(dec);
  dec.expect_done();
  return r;
}

// --------------------------------------------------------------------------
// MembershipProposal / MembershipProposeMsg
// --------------------------------------------------------------------------

namespace {

void encode_membership_proposal(wire::Encoder& enc,
                                const MembershipProposal& p) {
  enc.str(p.sponsor.str()).str(p.object.str());
  p.request.encode_into(enc);
  enc.blob(p.request_signature);
  p.current_group.encode_into(enc);
  p.new_group.encode_into(enc);
  p.agreed.encode_into(enc);
  encode_party_list(enc, p.new_members);
}

MembershipProposal decode_membership_proposal(wire::Decoder& dec) {
  MembershipProposal p;
  p.sponsor = PartyId{dec.str()};
  p.object = ObjectId{dec.str()};
  p.request = MembershipRequest::decode_from(dec);
  p.request_signature = dec.blob();
  p.current_group = GroupTuple::decode_from(dec);
  p.new_group = GroupTuple::decode_from(dec);
  p.agreed = StateTuple::decode_from(dec);
  p.new_members = decode_party_list(dec);
  return p;
}

}  // namespace

Bytes MembershipProposal::signed_bytes() const {
  wire::Encoder enc;
  enc.u8(kTagMembershipProposal);
  encode_membership_proposal(enc, *this);
  return std::move(enc).take();
}

Bytes MembershipProposeMsg::encode() const {
  wire::Encoder enc;
  encode_membership_proposal(enc, proposal);
  enc.blob(signature);
  return std::move(enc).take();
}

MembershipProposeMsg MembershipProposeMsg::decode(BytesView data) {
  wire::Decoder dec{data};
  MembershipProposeMsg msg;
  msg.proposal = decode_membership_proposal(dec);
  msg.signature = dec.blob();
  dec.expect_done();
  return msg;
}

// --------------------------------------------------------------------------
// MembershipResponse / MembershipRespondMsg
// --------------------------------------------------------------------------

void MembershipResponse::encode_into(wire::Encoder& enc) const {
  enc.str(responder.str()).str(object.str());
  new_group.encode_into(enc);
  group_view.encode_into(enc);
  agreed_view.encode_into(enc);
  decision.encode_into(enc);
}

MembershipResponse MembershipResponse::decode_from(wire::Decoder& dec) {
  MembershipResponse r;
  r.responder = PartyId{dec.str()};
  r.object = ObjectId{dec.str()};
  r.new_group = GroupTuple::decode_from(dec);
  r.group_view = GroupTuple::decode_from(dec);
  r.agreed_view = StateTuple::decode_from(dec);
  r.decision = Decision::decode_from(dec);
  return r;
}

Bytes MembershipResponse::signed_bytes() const {
  wire::Encoder enc;
  enc.u8(kTagMembershipResponse);
  encode_into(enc);
  return std::move(enc).take();
}

void MembershipRespondMsg::encode_into(wire::Encoder& enc) const {
  response.encode_into(enc);
  enc.blob(signature);
}

MembershipRespondMsg MembershipRespondMsg::decode_from(wire::Decoder& dec) {
  MembershipRespondMsg msg;
  msg.response = MembershipResponse::decode_from(dec);
  msg.signature = dec.blob();
  return msg;
}

Bytes MembershipRespondMsg::encode() const {
  wire::Encoder enc;
  encode_into(enc);
  return std::move(enc).take();
}

MembershipRespondMsg MembershipRespondMsg::decode(BytesView data) {
  wire::Decoder dec{data};
  MembershipRespondMsg msg = decode_from(dec);
  dec.expect_done();
  return msg;
}

// --------------------------------------------------------------------------
// MembershipDecideMsg
// --------------------------------------------------------------------------

Bytes MembershipDecideMsg::encode() const {
  wire::Encoder enc;
  enc.str(sponsor.str()).str(object.str());
  new_group.encode_into(enc);
  enc.varint(responses.size());
  for (const auto& r : responses) r.encode_into(enc);
  enc.blob(authenticator);
  return std::move(enc).take();
}

MembershipDecideMsg MembershipDecideMsg::decode(BytesView data) {
  wire::Decoder dec{data};
  MembershipDecideMsg msg;
  msg.sponsor = PartyId{dec.str()};
  msg.object = ObjectId{dec.str()};
  msg.new_group = GroupTuple::decode_from(dec);
  std::uint64_t n = dec.varint();
  msg.responses.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    msg.responses.push_back(MembershipRespondMsg::decode_from(dec));
  }
  msg.authenticator = dec.blob();
  dec.expect_done();
  return msg;
}

// --------------------------------------------------------------------------
// ConnectWelcomeMsg / ConnectRejectMsg / DisconnectConfirmMsg
// --------------------------------------------------------------------------

Bytes ConnectWelcomeMsg::signed_bytes() const {
  wire::Encoder enc;
  enc.u8(kTagConnectWelcome).str(sponsor.str()).str(object.str());
  new_group.encode_into(enc);
  encode_party_list(enc, members);
  enc.varint(member_public_keys.size());
  for (const auto& key : member_public_keys) enc.blob(key);
  agreed.encode_into(enc);
  enc.raw(crypto::digest_bytes(crypto::Sha256::hash(agreed_state)));
  return std::move(enc).take();
}

Bytes ConnectWelcomeMsg::encode() const {
  wire::Encoder enc;
  enc.str(sponsor.str()).str(object.str());
  new_group.encode_into(enc);
  encode_party_list(enc, members);
  enc.varint(member_public_keys.size());
  for (const auto& key : member_public_keys) enc.blob(key);
  agreed.encode_into(enc);
  enc.blob(agreed_state);
  enc.varint(responses.size());
  for (const auto& r : responses) r.encode_into(enc);
  enc.blob(authenticator).blob(sponsor_signature);
  return std::move(enc).take();
}

ConnectWelcomeMsg ConnectWelcomeMsg::decode(BytesView data) {
  wire::Decoder dec{data};
  ConnectWelcomeMsg msg;
  msg.sponsor = PartyId{dec.str()};
  msg.object = ObjectId{dec.str()};
  msg.new_group = GroupTuple::decode_from(dec);
  msg.members = decode_party_list(dec);
  std::uint64_t keys = dec.varint();
  msg.member_public_keys.reserve(keys);
  for (std::uint64_t i = 0; i < keys; ++i) {
    msg.member_public_keys.push_back(dec.blob());
  }
  msg.agreed = StateTuple::decode_from(dec);
  msg.agreed_state = dec.blob();
  std::uint64_t n = dec.varint();
  msg.responses.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    msg.responses.push_back(MembershipRespondMsg::decode_from(dec));
  }
  msg.authenticator = dec.blob();
  msg.sponsor_signature = dec.blob();
  dec.expect_done();
  return msg;
}

Bytes ConnectRejectMsg::signed_bytes() const {
  wire::Encoder enc;
  enc.u8(kTagConnectReject).str(sponsor.str()).str(object.str());
  enc.blob(request_nonce);
  return std::move(enc).take();
}

Bytes ConnectRejectMsg::encode() const {
  wire::Encoder enc;
  enc.str(sponsor.str()).str(object.str()).blob(request_nonce).blob(signature);
  return std::move(enc).take();
}

ConnectRejectMsg ConnectRejectMsg::decode(BytesView data) {
  wire::Decoder dec{data};
  ConnectRejectMsg msg;
  msg.sponsor = PartyId{dec.str()};
  msg.object = ObjectId{dec.str()};
  msg.request_nonce = dec.blob();
  msg.signature = dec.blob();
  dec.expect_done();
  return msg;
}

Bytes DisconnectConfirmMsg::encode() const {
  wire::Encoder enc;
  enc.str(sponsor.str()).str(object.str());
  new_group.encode_into(enc);
  enc.varint(responses.size());
  for (const auto& r : responses) r.encode_into(enc);
  enc.blob(authenticator);
  return std::move(enc).take();
}

DisconnectConfirmMsg DisconnectConfirmMsg::decode(BytesView data) {
  wire::Decoder dec{data};
  DisconnectConfirmMsg msg;
  msg.sponsor = PartyId{dec.str()};
  msg.object = ObjectId{dec.str()};
  msg.new_group = GroupTuple::decode_from(dec);
  std::uint64_t n = dec.varint();
  msg.responses.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    msg.responses.push_back(MembershipRespondMsg::decode_from(dec));
  }
  msg.authenticator = dec.blob();
  dec.expect_done();
  return msg;
}

}  // namespace b2b::core
