// Protocol message encoding: round trips, strict decoding, signature
// domain separation.
#include "b2b/messages.hpp"

#include <gtest/gtest.h>

#include "tests/support/test_keys.hpp"

namespace b2b::core {
namespace {

using crypto::test::shared_test_key;

StateTuple tuple(std::uint64_t seq, const char* tag) {
  return StateTuple{seq, crypto::Sha256::hash(bytes_of(tag)),
                    crypto::Sha256::hash(bytes_of(std::string(tag) + "s"))};
}

GroupTuple group_tuple(std::uint64_t seq) {
  return GroupTuple{seq, crypto::Sha256::hash(bytes_of("g")),
                    hash_members({PartyId{"a"}, PartyId{"b"}})};
}

ProposeMsg sample_propose() {
  ProposeMsg msg;
  msg.proposal.proposer = PartyId{"a"};
  msg.proposal.object = ObjectId{"doc"};
  msg.proposal.group = group_tuple(2);
  msg.proposal.agreed = tuple(2, "agreed");
  msg.proposal.proposed = tuple(3, "proposed");
  msg.proposal.is_update = false;
  msg.payload = bytes_of("new-state");
  msg.proposal.payload_hash = crypto::Sha256::hash(msg.payload);
  msg.signature = shared_test_key(0).sign(msg.proposal.signed_bytes());
  return msg;
}

RespondMsg sample_respond() {
  RespondMsg msg;
  msg.response.responder = PartyId{"b"};
  msg.response.object = ObjectId{"doc"};
  msg.response.proposed = tuple(3, "proposed");
  msg.response.agreed_view = tuple(2, "agreed");
  msg.response.current_view = tuple(2, "agreed");
  msg.response.group_view = group_tuple(2);
  msg.response.payload_integrity = crypto::Sha256::hash(bytes_of("new-state"));
  msg.response.decision = Decision::accepted();
  msg.signature = shared_test_key(1).sign(msg.response.signed_bytes());
  return msg;
}

TEST(MessagesTest, EnvelopeRoundTrip) {
  Envelope env{MsgType::kPropose, ObjectId{"doc"}, Bytes{1, 2, 3}};
  Envelope decoded = Envelope::decode(env.encode());
  EXPECT_EQ(decoded.type, MsgType::kPropose);
  EXPECT_EQ(decoded.object, ObjectId{"doc"});
  EXPECT_EQ(decoded.body, (Bytes{1, 2, 3}));
}

TEST(MessagesTest, ProposeRoundTrip) {
  ProposeMsg msg = sample_propose();
  EXPECT_EQ(ProposeMsg::decode(msg.encode()), msg);
}

TEST(MessagesTest, RespondRoundTrip) {
  RespondMsg msg = sample_respond();
  EXPECT_EQ(RespondMsg::decode(msg.encode()), msg);
}

TEST(MessagesTest, DecideRoundTrip) {
  DecideMsg msg;
  msg.proposer = PartyId{"a"};
  msg.object = ObjectId{"doc"};
  msg.proposed = tuple(3, "proposed");
  msg.responses = {sample_respond()};
  msg.authenticator = bytes_of("the-random-number");
  EXPECT_EQ(DecideMsg::decode(msg.encode()), msg);
}

TEST(MessagesTest, DecodeRejectsTruncatedPropose) {
  Bytes data = sample_propose().encode();
  data.resize(data.size() / 2);
  EXPECT_THROW(ProposeMsg::decode(data), CodecError);
}

TEST(MessagesTest, SignatureCoversAllProposalFields) {
  // Mutating any signed field must invalidate the signature.
  const ProposeMsg original = sample_propose();
  const crypto::RsaPublicKey& pub = shared_test_key(0).public_key();
  ASSERT_TRUE(pub.verify(original.proposal.signed_bytes(),
                         original.signature));

  auto verify_mutation = [&](auto mutate) {
    ProposeMsg copy = original;
    mutate(copy.proposal);
    return pub.verify(copy.proposal.signed_bytes(), copy.signature);
  };
  EXPECT_FALSE(verify_mutation([](Proposal& p) { p.proposer = PartyId{"x"}; }));
  EXPECT_FALSE(verify_mutation([](Proposal& p) { p.object = ObjectId{"x"}; }));
  EXPECT_FALSE(verify_mutation([](Proposal& p) { ++p.group.sequence; }));
  EXPECT_FALSE(verify_mutation([](Proposal& p) { ++p.agreed.sequence; }));
  EXPECT_FALSE(verify_mutation([](Proposal& p) { ++p.proposed.sequence; }));
  EXPECT_FALSE(verify_mutation([](Proposal& p) { p.is_update = true; }));
  EXPECT_FALSE(
      verify_mutation([](Proposal& p) { p.payload_hash[0] ^= 0x01; }));
}

TEST(MessagesTest, SignatureDomainSeparationBetweenMessageKinds) {
  // A proposal signature must not verify as a response signature even if an
  // attacker could force identical field encodings (the domain tag
  // differs). Construct the degenerate check directly over signed bytes.
  ProposeMsg propose = sample_propose();
  RespondMsg respond = sample_respond();
  EXPECT_NE(propose.proposal.signed_bytes()[0],
            respond.response.signed_bytes()[0]);

  MembershipRequest request;
  request.kind = MembershipKind::kConnect;
  request.sender = PartyId{"c"};
  request.object = ObjectId{"doc"};
  request.subjects = {PartyId{"c"}};
  request.request_nonce = bytes_of("nonce");
  EXPECT_NE(request.signed_bytes()[0], propose.proposal.signed_bytes()[0]);
}

TEST(MessagesTest, MembershipRequestRoundTrip) {
  MembershipRequest request;
  request.kind = MembershipKind::kEvict;
  request.sender = PartyId{"a"};
  request.object = ObjectId{"doc"};
  request.subjects = {PartyId{"b"}, PartyId{"c"}};
  request.request_nonce = bytes_of("nonce");
  EXPECT_EQ(MembershipRequest::decode(request.encode()), request);
}

TEST(MessagesTest, MembershipProposeRoundTrip) {
  MembershipProposeMsg msg;
  msg.proposal.sponsor = PartyId{"b"};
  msg.proposal.object = ObjectId{"doc"};
  msg.proposal.request.kind = MembershipKind::kConnect;
  msg.proposal.request.sender = PartyId{"c"};
  msg.proposal.request.object = ObjectId{"doc"};
  msg.proposal.request.subjects = {PartyId{"c"}};
  msg.proposal.request.subject_public_key =
      shared_test_key(2).public_key().encode();
  msg.proposal.request.request_nonce = bytes_of("n");
  msg.proposal.request_signature =
      shared_test_key(2).sign(msg.proposal.request.signed_bytes());
  msg.proposal.current_group = group_tuple(4);
  msg.proposal.new_group = GroupTuple{
      5, crypto::Sha256::hash(bytes_of("auth")),
      hash_members({PartyId{"a"}, PartyId{"b"}, PartyId{"c"}})};
  msg.proposal.agreed = tuple(4, "agreed");
  msg.proposal.new_members = {PartyId{"a"}, PartyId{"b"}, PartyId{"c"}};
  msg.signature = shared_test_key(1).sign(msg.proposal.signed_bytes());
  EXPECT_EQ(MembershipProposeMsg::decode(msg.encode()), msg);
}

TEST(MessagesTest, MembershipDecideRoundTrip) {
  MembershipRespondMsg resp;
  resp.response.responder = PartyId{"a"};
  resp.response.object = ObjectId{"doc"};
  resp.response.new_group = group_tuple(5);
  resp.response.group_view = group_tuple(4);
  resp.response.agreed_view = tuple(4, "agreed");
  resp.response.decision = Decision::accepted();
  resp.signature = shared_test_key(0).sign(resp.response.signed_bytes());

  MembershipDecideMsg msg;
  msg.sponsor = PartyId{"b"};
  msg.object = ObjectId{"doc"};
  msg.new_group = group_tuple(5);
  msg.responses = {resp};
  msg.authenticator = bytes_of("auth");
  EXPECT_EQ(MembershipDecideMsg::decode(msg.encode()), msg);
}

TEST(MessagesTest, ConnectWelcomeRoundTrip) {
  ConnectWelcomeMsg msg;
  msg.sponsor = PartyId{"b"};
  msg.object = ObjectId{"doc"};
  msg.new_group = group_tuple(5);
  msg.members = {PartyId{"a"}, PartyId{"b"}, PartyId{"c"}};
  msg.member_public_keys = {shared_test_key(0).public_key().encode(),
                            shared_test_key(1).public_key().encode(),
                            shared_test_key(2).public_key().encode()};
  msg.agreed = tuple(4, "agreed");
  msg.agreed_state = bytes_of("the-state");
  msg.authenticator = bytes_of("auth");
  msg.sponsor_signature = shared_test_key(1).sign(msg.signed_bytes());
  ConnectWelcomeMsg decoded = ConnectWelcomeMsg::decode(msg.encode());
  EXPECT_EQ(decoded.members, msg.members);
  EXPECT_EQ(decoded.agreed_state, msg.agreed_state);
  EXPECT_EQ(decoded.sponsor_signature, msg.sponsor_signature);
  // The sponsor signature still verifies over the decoded content.
  EXPECT_TRUE(shared_test_key(1).public_key().verify(
      decoded.signed_bytes(), decoded.sponsor_signature));
}

TEST(MessagesTest, ConnectRejectRoundTripAndSignature) {
  ConnectRejectMsg msg;
  msg.sponsor = PartyId{"b"};
  msg.object = ObjectId{"doc"};
  msg.request_nonce = bytes_of("nonce");
  msg.signature = shared_test_key(1).sign(msg.signed_bytes());
  ConnectRejectMsg decoded = ConnectRejectMsg::decode(msg.encode());
  EXPECT_EQ(decoded.request_nonce, msg.request_nonce);
  EXPECT_TRUE(shared_test_key(1).public_key().verify(decoded.signed_bytes(),
                                                     decoded.signature));
}

TEST(MessagesTest, DisconnectConfirmRoundTrip) {
  DisconnectConfirmMsg msg;
  msg.sponsor = PartyId{"b"};
  msg.object = ObjectId{"doc"};
  msg.new_group = group_tuple(9);
  msg.authenticator = bytes_of("auth");
  DisconnectConfirmMsg decoded = DisconnectConfirmMsg::decode(msg.encode());
  EXPECT_EQ(decoded.new_group, msg.new_group);
  EXPECT_EQ(decoded.authenticator, msg.authenticator);
}

// A state run's wire format is chosen by its item count alone: one item
// is exactly the paper's ProposeMsg/DecideMsg, bit for bit.
TEST(MessagesTest, SingleItemRunUsesThePapersWireFormat) {
  const ProposeMsg paper = sample_propose();
  BatchProposeMsg run =
      BatchProposeMsg::decode(MsgType::kPropose, paper.encode());
  ASSERT_EQ(run.items.size(), 1u);
  EXPECT_FALSE(run.format().batched);
  EXPECT_EQ(run.format().propose, MsgType::kPropose);
  EXPECT_EQ(run.encode(), paper.encode());
  EXPECT_EQ(run.single(), paper);
  EXPECT_EQ(run.signed_bytes(), paper.proposal.signed_bytes());
  EXPECT_EQ(run.payload_digest(), paper.proposal.payload_hash);

  DecideMsg decide;
  decide.proposer = PartyId{"a"};
  decide.object = ObjectId{"doc"};
  decide.proposed = tuple(3, "proposed");
  decide.responses = {sample_respond()};
  decide.authenticator = bytes_of("the-random-number");
  BatchDecideMsg run_decide =
      BatchDecideMsg::decode(MsgType::kDecide, decide.encode());
  EXPECT_EQ(run_decide.format().decide, MsgType::kDecide);
  EXPECT_EQ(run_decide.encode(), decide.encode());
}

TEST(MessagesTest, BatchRunRoundTripsAndRejectsFewerThanTwoItems) {
  BatchProposeMsg run;
  run.proposal = sample_propose().proposal;
  for (std::uint64_t i = 0; i < 2; ++i) {
    run.items.push_back(BatchItem{i == 1, bytes_of("p" + std::to_string(i)),
                                  tuple(3 + i, "item")});
  }
  run.proposal.payload_hash = run.payload_digest();
  EXPECT_EQ(run.payload_digest(),
            batch_chain_head(run.proposal.object, run.proposal.agreed,
                             run.items));
  EXPECT_EQ(run.signed_bytes(), batch_proposal_signed_bytes(run.proposal));
  ASSERT_EQ(run.format().propose, MsgType::kBatchPropose);
  EXPECT_EQ(BatchProposeMsg::decode(MsgType::kBatchPropose, run.encode()),
            run);
  wire::Encoder journaled;
  run.encode_into(journaled);
  const Bytes record = std::move(journaled).take();
  wire::Decoder dec{record};
  EXPECT_EQ(BatchProposeMsg::decode_from(dec), run);

  // A batch-format message carrying a single item is malformed: the
  // format must follow from the item count.
  wire::Encoder one;
  run.proposal.encode_into(one);
  one.varint(1);
  run.items.front().encode_into(one);
  one.blob(run.signature);
  EXPECT_THROW(BatchProposeMsg::decode(MsgType::kBatchPropose,
                                       std::move(one).take()),
               CodecError);
  EXPECT_THROW(BatchProposeMsg::decode(MsgType::kDecide, run.encode()),
               CodecError);

  BatchDecideMsg decide;
  decide.proposer = PartyId{"a"};
  decide.object = ObjectId{"doc"};
  decide.proposed = run.proposal.proposed;
  decide.responses = {sample_respond()};
  decide.authenticators = {bytes_of("r0"), bytes_of("r1")};
  ASSERT_EQ(decide.format().decide, MsgType::kBatchDecide);
  EXPECT_EQ(BatchDecideMsg::decode(MsgType::kBatchDecide, decide.encode()),
            decide);
  decide.authenticators.pop_back();
  // One authenticator is the plain decide, which a batch decoder refuses.
  EXPECT_THROW(BatchDecideMsg::decode(MsgType::kBatchDecide, decide.encode()),
               CodecError);
}

}  // namespace
}  // namespace b2b::core
