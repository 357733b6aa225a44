// Coordinator-level behaviour: trusted time-stamps on evidence anchors,
// the certificate directory, multi-object independence, checkpointing
// and protocol statistics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "b2b/arbiter.hpp"
#include "b2b/federation.hpp"
#include "common/error.hpp"
#include "wire/codec.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

const ObjectId kObj{"doc"};

struct CoordFixture {
  Federation fed{{"alpha", "beta"}};
  TestRegister alpha_obj, beta_obj;

  CoordFixture() {
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));
  }

  RunHandle agree(const Bytes& state) {
    alpha_obj.value = state;
    RunHandle h = fed.coordinator("alpha").propagate_new_state(kObj, state);
    fed.run_until_done(h);
    fed.settle();
    return h;
  }
};

/// One evidence anchor as read back from a log.
struct AnchorRecord {
  std::uint64_t record = 0;   // index of the anchor record
  std::uint64_t covered = 0;  // index of the newest record it covers
  std::uint64_t stamp_micros = 0;
};

// Linked time-stamping (DESIGN.md §13(c)): records carry no stamp of their
// own; each run's close appends a party-signed anchor whose TSS stamp
// covers H(anchor.signed_bytes()), and every record's time lies between
// the stamps of the anchors around it.
TEST(CoordinatorTest, AnchorStampsVerifyAndBoundEveryRecord) {
  CoordFixture t;
  t.agree(bytes_of("v1"));
  t.agree(bytes_of("v2"));
  t.agree(bytes_of("v3"));
  const crypto::RsaPublicKey& tss_key = t.fed.tss()->public_key();
  for (const std::string name : {"alpha", "beta"}) {
    Coordinator& coord = t.fed.coordinator(name);
    const store::EvidenceLog& log = coord.evidence();
    std::vector<AnchorRecord> anchors;
    for (const auto& record : log.records()) {
      auto unpacked = Coordinator::decode_evidence_payload(record.payload);
      if (record.kind != evidence_kind::kEvidenceAnchor) {
        EXPECT_FALSE(unpacked.timestamp.has_value()) << name << record.kind;
        continue;
      }
      ASSERT_TRUE(unpacked.timestamp.has_value()) << name << record.index;
      const EvidenceAnchor anchor = EvidenceAnchor::decode(unpacked.payload);
      EXPECT_EQ(unpacked.timestamp->message_hash,
                crypto::Sha256::hash(anchor.signed_bytes()));
      EXPECT_TRUE(crypto::TimestampService::verify(*unpacked.timestamp,
                                                   tss_key));
      EXPECT_TRUE(coord.public_key().verify(anchor.signed_bytes(),
                                            anchor.signature));
      EXPECT_EQ(log.at(anchor.index).record_hash, anchor.head_hash);
      anchors.push_back(
          {record.index, anchor.index, unpacked.timestamp->time_micros});
    }
    // One anchor per closed run, and none trails: the newest is the last
    // record and covers the one before it.
    ASSERT_EQ(anchors.size(), 3u) << name;
    EXPECT_EQ(anchors.back().record, log.size() - 1) << name;
    EXPECT_EQ(anchors.back().covered, log.size() - 2) << name;
    const Arbiter::AnchorReport report =
        Arbiter::verify_anchored_spans(log, coord.public_key(), &tss_key);
    EXPECT_TRUE(report.all_anchors_valid) << name;
    EXPECT_EQ(report.trailing_records, 0u) << name;
    ASSERT_EQ(report.anchors.size(), anchors.size()) << name;
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      EXPECT_EQ(report.anchors[i].covered, anchors[i].covered);
      EXPECT_EQ(report.anchors[i].stamp_micros, anchors[i].stamp_micros);
    }

    // A record's chain hash depends on the anchor before it (so on its
    // stamp), and the first anchor after it covers it.
    for (const auto& record : log.records()) {
      if (record.kind == evidence_kind::kEvidenceAnchor) continue;
      const AnchorRecord* before = nullptr;
      const AnchorRecord* after = nullptr;
      for (const AnchorRecord& a : anchors) {
        if (a.record < record.index) before = &a;
        if (after == nullptr && a.covered >= record.index) after = &a;
      }
      ASSERT_NE(after, nullptr) << name << record.index;
      EXPECT_LE(record.time_micros, after->stamp_micros)
          << name << record.index;
      if (before != nullptr) {
        EXPECT_GE(record.time_micros, before->stamp_micros)
            << name << record.index;
      }
    }
  }
}

TEST(CoordinatorTest, NoTssMeansUnstampedButUsableEvidence) {
  Federation::Options options;
  options.use_tss = false;
  Federation fed{{"a", "b"}, options};
  TestRegister a_obj, b_obj;
  fed.register_object("a", kObj, a_obj);
  fed.register_object("b", kObj, b_obj);
  fed.bootstrap_object(kObj, {"a", "b"}, bytes_of("genesis"));
  a_obj.value = bytes_of("v1");
  RunHandle h = fed.coordinator("a").propagate_new_state(kObj, a_obj.get_state());
  ASSERT_TRUE(fed.run_until_done(h));
  fed.settle();
  const auto& log = fed.coordinator("a").evidence();
  ASSERT_GT(log.size(), 0u);
  auto unpacked = Coordinator::decode_evidence_payload(log.at(0).payload);
  EXPECT_FALSE(unpacked.timestamp.has_value());
  EXPECT_TRUE(log.verify_chain());
}

// Without a TSS, anchors are still appended and party-signed; only the
// stamp slot stays empty.
TEST(CoordinatorTest, NoTssAnchorsAreSignedButUnstamped) {
  Federation::Options options;
  options.use_tss = false;
  Federation fed{{"a", "b"}, options};
  TestRegister a_obj, b_obj;
  fed.register_object("a", kObj, a_obj);
  fed.register_object("b", kObj, b_obj);
  fed.bootstrap_object(kObj, {"a", "b"}, bytes_of("genesis"));
  a_obj.value = bytes_of("v1");
  RunHandle h =
      fed.coordinator("a").propagate_new_state(kObj, a_obj.get_state());
  ASSERT_TRUE(fed.run_until_done(h));
  fed.settle();
  for (const std::string name : {"a", "b"}) {
    Coordinator& coord = fed.coordinator(name);
    const store::EvidenceLog& log = coord.evidence();
    ASSERT_FALSE(log.empty());
    const store::EvidenceRecord& last = log.at(log.size() - 1);
    ASSERT_EQ(last.kind, evidence_kind::kEvidenceAnchor) << name;
    EXPECT_FALSE(
        Coordinator::decode_evidence_payload(last.payload).timestamp)
        << name;
    const Arbiter::AnchorReport report =
        Arbiter::verify_anchored_spans(log, coord.public_key());
    EXPECT_TRUE(report.all_anchors_valid) << name;
    EXPECT_EQ(report.trailing_records, 0u) << name;
  }
}

// The arbiter's TSS binding: with the TSS key, the newest anchor's stamp
// must exist, cover that anchor's signed bytes and verify. Each forgery
// below leaves the party signature and the re-linked chain intact, so the
// two-argument check still passes; only the stamp check catches it.
class AnchorStampForgery : public ::testing::Test {
 protected:
  AnchorStampForgery() {
    t.agree(bytes_of("v1"));
    t.agree(bytes_of("v2"));
    for (const auto& record : log().records()) {
      if (record.kind == evidence_kind::kEvidenceAnchor) {
        anchor_records.push_back(record.index);
      }
    }
  }

  const store::EvidenceLog& log() {
    return t.fed.coordinator("alpha").evidence();
  }

  /// alpha's log with the newest anchor's stamp slot replaced, the chain
  /// re-linked (what a party with write access to its log can produce).
  store::EvidenceLog with_newest_stamp(const Bytes& stamp) {
    store::EvidenceLog out;
    for (const auto& record : log().records()) {
      Bytes payload = record.payload;
      if (record.index == anchor_records.back()) {
        wire::Encoder framed;
        framed.blob(Coordinator::decode_evidence_payload(payload).payload);
        framed.blob(stamp);
        payload = std::move(framed).take();
      }
      out.append(record.kind, std::move(payload), record.time_micros);
    }
    return out;
  }

  void expect_caught_only_with_tss_key(const store::EvidenceLog& forged,
                                       const std::string& problem) {
    const crypto::RsaPublicKey& signer =
        t.fed.coordinator("alpha").public_key();
    const Arbiter::AnchorReport with_key = Arbiter::verify_anchored_spans(
        forged, signer, &t.fed.tss()->public_key());
    EXPECT_TRUE(with_key.chain_intact);
    EXPECT_FALSE(with_key.all_anchors_valid);
    ASSERT_EQ(with_key.problems.size(), 1u);
    EXPECT_NE(with_key.problems.front().find(problem), std::string::npos)
        << with_key.problems.front();
    EXPECT_TRUE(Arbiter::verify_anchored_spans(forged, signer)
                    .all_anchors_valid);
  }

  CoordFixture t;
  std::vector<std::uint64_t> anchor_records;
};

TEST_F(AnchorStampForgery, StampFromAnotherTssKeyIsRejected) {
  ASSERT_GE(anchor_records.size(), 2u);
  const EvidenceAnchor newest = EvidenceAnchor::decode(
      Coordinator::decode_evidence_payload(
          log().at(anchor_records.back()).payload)
          .payload);
  crypto::TimestampService rogue(
      Federation::shared_keypair(Federation::Options{}.rsa_bits, 997),
      [] { return std::uint64_t{1}; });
  expect_caught_only_with_tss_key(
      with_newest_stamp(rogue.stamp(newest.signed_bytes()).encode()),
      "bad trusted stamp");
}

TEST_F(AnchorStampForgery, StampCopiedFromAnotherAnchorIsRejected) {
  ASSERT_GE(anchor_records.size(), 2u);
  const auto earlier = Coordinator::decode_evidence_payload(
      log().at(anchor_records.front()).payload);
  ASSERT_TRUE(earlier.timestamp.has_value());
  expect_caught_only_with_tss_key(
      with_newest_stamp(earlier.timestamp->encode()),
      "stamp over other bytes");
}

TEST_F(AnchorStampForgery, StrippedStampIsRejected) {
  expect_caught_only_with_tss_key(with_newest_stamp({}),
                                  "no trusted stamp");
}

TEST(CoordinatorTest, KeyDirectoryKnowsAllParties) {
  CoordFixture t;
  Coordinator& alpha = t.fed.coordinator("alpha");
  EXPECT_NE(alpha.key_of(PartyId{"alpha"}), nullptr);
  EXPECT_NE(alpha.key_of(PartyId{"beta"}), nullptr);
  EXPECT_EQ(alpha.key_of(PartyId{"stranger"}), nullptr);
  EXPECT_EQ(alpha.key_directory().size(), 2u);
}

TEST(CoordinatorTest, MultipleObjectsCoordinateIndependently) {
  Federation fed{{"a", "b"}};
  TestRegister a1, a2, b1, b2;
  const ObjectId first{"first"}, second{"second"};
  fed.register_object("a", first, a1);
  fed.register_object("b", first, b1);
  fed.register_object("a", second, a2);
  fed.register_object("b", second, b2);
  fed.bootstrap_object(first, {"a", "b"}, bytes_of("f0"));
  fed.bootstrap_object(second, {"a", "b"}, bytes_of("s0"));

  // Concurrent runs on distinct objects do not conflict (no busy rejects).
  a1.value = bytes_of("f1");
  a2.value = bytes_of("s1");
  RunHandle h1 = fed.coordinator("a").propagate_new_state(first, a1.value);
  RunHandle h2 = fed.coordinator("a").propagate_new_state(second, a2.value);
  fed.settle();
  EXPECT_EQ(h1->outcome, RunResult::Outcome::kAgreed);
  EXPECT_EQ(h2->outcome, RunResult::Outcome::kAgreed);
  EXPECT_EQ(b1.value, bytes_of("f1"));
  EXPECT_EQ(b2.value, bytes_of("s1"));
}

TEST(CoordinatorTest, RegisteringSameObjectTwiceThrows) {
  CoordFixture t;
  TestRegister another;
  EXPECT_THROW(t.fed.coordinator("alpha").register_object(kObj, another),
               Error);
  EXPECT_THROW(t.fed.coordinator("alpha").replica(ObjectId{"nope"}), Error);
  EXPECT_TRUE(t.fed.coordinator("alpha").has_object(kObj));
  EXPECT_FALSE(t.fed.coordinator("alpha").has_object(ObjectId{"nope"}));
}

TEST(CoordinatorTest, CheckpointsAccumulatePerAgreedState) {
  CoordFixture t;
  t.agree(bytes_of("v1"));
  t.agree(bytes_of("v2"));
  auto& checkpoints = t.fed.coordinator("beta").checkpoints();
  // genesis + two installs.
  EXPECT_EQ(checkpoints.count(kObj), 3u);
  auto latest = checkpoints.latest(kObj);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->state, bytes_of("v2"));
  EXPECT_EQ(latest->sequence, 2u);
  // Rollback material: the previous agreed state is retained.
  auto old = checkpoints.at_sequence(kObj, 1);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->state, bytes_of("v1"));
}

TEST(CoordinatorTest, ProtocolStatsCountPerMessageType) {
  CoordFixture t;
  t.agree(bytes_of("v1"));
  const auto& alpha_stats = t.fed.coordinator("alpha").protocol_stats();
  const auto& beta_stats = t.fed.coordinator("beta").protocol_stats();
  EXPECT_EQ(alpha_stats.sent_by_type.at(MsgType::kPropose), 1u);
  EXPECT_EQ(alpha_stats.sent_by_type.at(MsgType::kDecide), 1u);
  EXPECT_EQ(beta_stats.sent_by_type.at(MsgType::kRespond), 1u);
  EXPECT_GT(alpha_stats.envelope_bytes_sent, 0u);
  t.fed.coordinator("alpha").reset_protocol_stats();
  EXPECT_EQ(
      t.fed.coordinator("alpha").protocol_stats().envelopes_sent, 0u);
}

TEST(CoordinatorTest, MessageStoreHoldsFullRunTranscript) {
  CoordFixture t;
  RunHandle h = t.agree(bytes_of("v1"));
  const store::EvidenceLog& evidence = t.fed.coordinator("alpha").evidence();
  const auto transcript = evidence.run(h->run_label);
  ASSERT_EQ(transcript.size(), 3u);
  // propose sent + respond received + decide sent.
  EXPECT_EQ(transcript[0]->kind, evidence_kind::kProposeSent);
  EXPECT_EQ(transcript[1]->kind, evidence_kind::kRespondReceived);
  EXPECT_EQ(transcript[2]->kind, evidence_kind::kDecideSent);
}

}  // namespace
}  // namespace b2b::core
