// Tests for the §7 / §4 extension features: majority decision rule,
// composite objects, the dispute-resolution arbiter, replica snapshots
// (crash recovery), and TTP-certified termination.
#include <gtest/gtest.h>

#include "b2b/arbiter.hpp"
#include "b2b/composite.hpp"
#include "b2b/federation.hpp"
#include "b2b/termination.hpp"
#include "common/error.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

const ObjectId kObj{"doc"};

// ---------------------------------------------------------------------------
// Majority decision rule (§7: "resorting to majority decision")
// ---------------------------------------------------------------------------

struct MajorityFixture {
  std::vector<std::string> names{"a", "b", "c", "d"};  // before fed: init order
  Federation fed;
  std::vector<std::unique_ptr<TestRegister>> objects;

  static Federation::Options options() {
    Federation::Options o;
    o.decision_rule = DecisionRule::kMajority;
    return o;
  }

  MajorityFixture() : fed(names, options()) {
    for (const auto& name : names) {
      objects.push_back(std::make_unique<TestRegister>());
      fed.register_object(name, kObj, *objects.back());
    }
    fed.bootstrap_object(kObj, names, bytes_of("genesis"));
  }
};

TEST(MajorityRule, SingleVetoIsOverridden) {
  MajorityFixture t;
  t.objects[3]->policy = [](BytesView, const ValidationContext&) {
    return Decision::rejected("d always objects");
  };
  t.objects[0]->value = bytes_of("carried");
  RunHandle h =
      t.fed.coordinator("a").propagate_new_state(kObj, t.objects[0]->get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  // The dissenter is on record.
  ASSERT_EQ(h->vetoers.size(), 1u);
  EXPECT_EQ(h->vetoers[0], PartyId{"d"});
  t.fed.settle();
  // Everyone installs, INCLUDING the overridden vetoer.
  for (auto& obj : t.objects) EXPECT_EQ(obj->value, bytes_of("carried"));
  EXPECT_EQ(t.fed.coordinator("d").replica(kObj).agreed_tuple().sequence, 1u);
}

TEST(MajorityRule, TwoVetoesOfFourStillBlock) {
  MajorityFixture t;
  for (int i : {2, 3}) {
    t.objects[i]->policy = [](BytesView, const ValidationContext&) {
      return Decision::rejected("no");
    };
  }
  t.objects[0]->value = bytes_of("split");
  RunHandle h =
      t.fed.coordinator("a").propagate_new_state(kObj, t.objects[0]->get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  // 2 accepts (proposer + b) of 4 is not a strict majority.
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed);
  t.fed.settle();
  for (auto& obj : t.objects) EXPECT_EQ(obj->value, bytes_of("genesis"));
}

TEST(MajorityRule, OverriddenVetoerInstallsUpdateVariantToo) {
  MajorityFixture t;
  t.objects[3]->policy = [](BytesView, const ValidationContext&) {
    return Decision::rejected("d objects to updates too");
  };
  t.objects[0]->value = bytes_of("genesis+delta");
  t.objects[0]->pending_suffix = bytes_of("+delta");
  RunHandle h = t.fed.coordinator("a").propagate_update(
      kObj, t.objects[0]->get_update(), t.objects[0]->get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.objects[3]->value, bytes_of("genesis+delta"));
}

TEST(MajorityRule, UnanimousRuleStillDefault) {
  TestRegister reg;  // outlives the federation
  Federation fed{{"a", "b", "c"}};
  EXPECT_EQ(fed.coordinator("a").register_object(kObj, reg).decision_rule(),
            DecisionRule::kUnanimous);
}

// ---------------------------------------------------------------------------
// CompositeObject (§4)
// ---------------------------------------------------------------------------

struct CompositeFixture {
  Federation fed{{"a", "b"}};
  TestRegister a_first, a_second, b_first, b_second;
  CompositeObject a_composite, b_composite;

  CompositeFixture() {
    a_composite.add_component("first", a_first);
    a_composite.add_component("second", a_second);
    b_composite.add_component("first", b_first);
    b_composite.add_component("second", b_second);
    fed.register_object("a", kObj, a_composite);
    fed.register_object("b", kObj, b_composite);
    a_first.value = bytes_of("one");
    a_second.value = bytes_of("two");
    fed.bootstrap_object(kObj, {"a", "b"}, a_composite.get_state());
  }
};

TEST(Composite, BootstrapDistributesComponentStates) {
  CompositeFixture t;
  EXPECT_EQ(t.b_first.value, bytes_of("one"));
  EXPECT_EQ(t.b_second.value, bytes_of("two"));
}

TEST(Composite, AtomicMultiObjectTransition) {
  CompositeFixture t;
  t.a_first.value = bytes_of("one'");
  t.a_second.value = bytes_of("two'");
  RunHandle h = t.fed.coordinator("a").propagate_new_state(
      kObj, t.a_composite.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.b_first.value, bytes_of("one'"));
  EXPECT_EQ(t.b_second.value, bytes_of("two'"));
}

TEST(Composite, OneComponentVetoRejectsTheWholeTransition) {
  CompositeFixture t;
  t.b_second.policy = [](BytesView, const ValidationContext&) {
    return Decision::rejected("second says no");
  };
  t.a_first.value = bytes_of("one'");
  t.a_second.value = bytes_of("two'");
  RunHandle h = t.fed.coordinator("a").propagate_new_state(
      kObj, t.a_composite.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed);
  EXPECT_NE(h->diagnostic.find("component 'second'"), std::string::npos);
  // Atomic: NEITHER component changed anywhere (proposer rolled back).
  EXPECT_EQ(t.a_first.value, bytes_of("one"));
  EXPECT_EQ(t.a_second.value, bytes_of("two"));
  EXPECT_EQ(t.b_first.value, bytes_of("one"));
}

TEST(Composite, DuplicateComponentNameThrows) {
  CompositeObject composite;
  TestRegister r;
  composite.add_component("x", r);
  EXPECT_THROW(composite.add_component("x", r), Error);
  EXPECT_THROW(composite.component("missing"), Error);
  EXPECT_EQ(&composite.component("x"), &r);
}

TEST(Composite, MismatchedComponentListIsRejected) {
  CompositeFixture t;
  // A state claiming a different component layout must be vetoed, not
  // crash the validator.
  CompositeObject alien;
  TestRegister only;
  only.value = bytes_of("alien");
  alien.add_component("only", only);
  RunHandle h =
      t.fed.coordinator("a").propagate_new_state(kObj, alien.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed);
}

// ---------------------------------------------------------------------------
// Arbiter (extra-protocol dispute resolution)
// ---------------------------------------------------------------------------

struct ArbiterFixture {
  Federation fed{{"alpha", "beta"}};
  TestRegister alpha_obj, beta_obj;

  ArbiterFixture() {
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));
  }

  Arbiter arbiter() { return Arbiter(fed.make_verifier()); }
};

TEST(ArbiterTest, RulesAgreedRunValid) {
  ArbiterFixture t;
  t.alpha_obj.value = bytes_of("v1");
  RunHandle h = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();

  std::vector<PartyId> recipients{PartyId{"beta"}};
  ArbitrationReport report = t.arbiter().arbitrate(
      t.fed.coordinator("alpha").evidence(), h->run_label, &recipients);
  EXPECT_TRUE(report.proposal_found);
  EXPECT_TRUE(report.decide_found);
  EXPECT_TRUE(report.verdict.agreed);
  EXPECT_NE(report.ruling.find("VALID"), std::string::npos);
}

TEST(ArbiterTest, RulesVetoedRunInvalidNamingVetoer) {
  ArbiterFixture t;
  t.beta_obj.policy = [](BytesView, const ValidationContext&) {
    return Decision::rejected("no");
  };
  t.alpha_obj.value = bytes_of("v1");
  RunHandle h = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();

  ArbitrationReport report = t.arbiter().arbitrate(
      t.fed.coordinator("alpha").evidence(), h->run_label);
  EXPECT_FALSE(report.verdict.agreed);
  ASSERT_EQ(report.verdict.vetoers.size(), 1u);
  EXPECT_EQ(report.verdict.vetoers[0], PartyId{"beta"});
  EXPECT_NE(report.ruling.find("INVALID"), std::string::npos);
}

TEST(ArbiterTest, ResponderStoreSufficesViaDecideAggregation) {
  // Beta (a responder) never stores other responders' messages directly,
  // but its copy of the decide carries them all.
  ArbiterFixture t;
  t.alpha_obj.value = bytes_of("v1");
  RunHandle h = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();

  std::vector<PartyId> recipients{PartyId{"beta"}};
  ArbitrationReport report = t.arbiter().arbitrate(
      t.fed.coordinator("beta").evidence(), h->run_label, &recipients);
  EXPECT_TRUE(report.verdict.agreed);
}

TEST(ArbiterTest, IncompleteRunCannotBeShownValid) {
  // Mallory-style: beta receives a proposal but never a decide.
  ArbiterFixture t;
  // Use a raw message injection: alpha proposes, but we drop alpha's
  // decide by crashing beta... simpler: crash alpha right after beta
  // responds so the decide is never sent.
  Federation::Options options;
  options.reliable.max_retransmits = 3;
  Federation fed({"alpha", "beta"}, options);
  TestRegister a_obj, b_obj;
  fed.register_object("alpha", kObj, a_obj);
  fed.register_object("beta", kObj, b_obj);
  fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));
  a_obj.value = bytes_of("v1");
  RunHandle h =
      fed.coordinator("alpha").propagate_new_state(kObj, a_obj.get_state());
  // Kill alpha while the propose datagram is still in flight (in-flight
  // deliveries land even when the sender has since died, so beta receives
  // the proposal but its response finds no one to talk to).
  fed.scheduler().run_until(fed.scheduler().now() + 500);
  fed.network().set_alive(PartyId{"alpha"}, false);
  fed.settle();

  Arbiter arbiter{fed.make_verifier()};
  std::vector<PartyId> recipients{PartyId{"beta"}};
  // The run never completed, so take its label from the active-run list
  // (the handle's run_label is only set at completion).
  EXPECT_FALSE(h->done());
  auto labels = fed.coordinator("beta").replica(kObj).active_run_labels();
  ASSERT_EQ(labels.size(), 1u);
  ArbitrationReport report = arbiter.arbitrate(
      fed.coordinator("beta").evidence(), labels[0], &recipients);
  EXPECT_TRUE(report.proposal_found);
  EXPECT_FALSE(report.decide_found);
  EXPECT_FALSE(report.verdict.agreed);
  EXPECT_NE(report.ruling.find("INCOMPLETE"), std::string::npos);
}

TEST(ArbiterTest, UnknownRunYieldsNothingToArbitrate) {
  ArbiterFixture t;
  ArbitrationReport report =
      t.arbiter().arbitrate(t.fed.coordinator("alpha").evidence(), "404:dead");
  EXPECT_FALSE(report.proposal_found);
  EXPECT_NE(report.ruling.find("nothing to arbitrate"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Replica snapshots (crash recovery)
// ---------------------------------------------------------------------------

TEST(Snapshot, EncodeDecodeRoundTrip) {
  ReplicaSnapshot snap;
  snap.connected = true;
  snap.members = {PartyId{"a"}, PartyId{"b"}};
  snap.group_tuple = GroupTuple{3, crypto::Sha256::hash(bytes_of("g")),
                                hash_members(snap.members)};
  snap.agreed_tuple = StateTuple{7, crypto::Sha256::hash(bytes_of("r")),
                                 crypto::Sha256::hash(bytes_of("s"))};
  snap.agreed_state = bytes_of("s");
  snap.last_seen_sequence = 9;
  snap.seen_run_labels = {"1:aa", "2:bb"};
  EXPECT_EQ(ReplicaSnapshot::decode(snap.encode()), snap);
}

TEST(Snapshot, RestoreRebuildsReplicatedState) {
  Federation fed{{"a", "b"}};
  TestRegister a_obj, b_obj;
  fed.register_object("a", kObj, a_obj);
  fed.register_object("b", kObj, b_obj);
  fed.bootstrap_object(kObj, {"a", "b"}, bytes_of("genesis"));
  a_obj.value = bytes_of("v1");
  RunHandle h =
      fed.coordinator("a").propagate_new_state(kObj, a_obj.get_state());
  ASSERT_TRUE(fed.run_until_done(h));
  fed.settle();

  Replica& replica = fed.coordinator("b").replica(kObj);
  ReplicaSnapshot snap = replica.export_snapshot();

  // Simulated crash: the application object loses its state entirely.
  b_obj.value = bytes_of("amnesia");
  replica.restore_snapshot(snap);
  EXPECT_EQ(b_obj.value, bytes_of("v1"));
  EXPECT_EQ(replica.agreed_tuple().sequence, 1u);
  EXPECT_TRUE(replica.connected());

  // The recovered party participates in new coordinations.
  a_obj.value = bytes_of("v2");
  RunHandle h2 =
      fed.coordinator("a").propagate_new_state(kObj, a_obj.get_state());
  ASSERT_TRUE(fed.run_until_done(h2));
  EXPECT_EQ(h2->outcome, RunResult::Outcome::kAgreed);
  fed.settle();
  EXPECT_EQ(b_obj.value, bytes_of("v2"));
}

TEST(Snapshot, RestorePreservesReplayProtection) {
  Federation fed{{"a", "b"}};
  TestRegister a_obj, b_obj;
  fed.register_object("a", kObj, a_obj);
  fed.register_object("b", kObj, b_obj);
  fed.bootstrap_object(kObj, {"a", "b"}, bytes_of("genesis"));
  a_obj.value = bytes_of("v1");
  RunHandle h =
      fed.coordinator("a").propagate_new_state(kObj, a_obj.get_state());
  ASSERT_TRUE(fed.run_until_done(h));
  fed.settle();

  Replica& replica = fed.coordinator("b").replica(kObj);
  ReplicaSnapshot snap = replica.export_snapshot();
  EXPECT_FALSE(snap.seen_run_labels.empty());
  replica.restore_snapshot(snap);
  // A replay of the finished run is still detected after recovery.
  std::uint64_t violations_before = replica.violations_detected();
  // The propose heads the run's transcript in a's evidence log; replay it
  // at b.
  const auto stored = fed.coordinator("a").evidence().run(h->run_label);
  ASSERT_FALSE(stored.empty());
  ASSERT_EQ(stored[0]->kind, evidence_kind::kProposeSent);
  Envelope env{MsgType::kPropose, kObj,
               Coordinator::decode_evidence_payload(stored[0]->payload).payload};
  fed.endpoint("a").send(PartyId{"b"}, env.encode());
  fed.settle();
  EXPECT_GT(replica.violations_detected(), violations_before);
}

TEST(Snapshot, RestoreAbortsInFlightLocalRuns) {
  Federation fed{{"a", "b"}};
  TestRegister a_obj, b_obj;
  fed.register_object("a", kObj, a_obj);
  fed.register_object("b", kObj, b_obj);
  fed.bootstrap_object(kObj, {"a", "b"}, bytes_of("genesis"));
  Replica& replica = fed.coordinator("a").replica(kObj);
  ReplicaSnapshot snap = replica.export_snapshot();

  a_obj.value = bytes_of("in-flight");
  RunHandle h =
      fed.coordinator("a").propagate_new_state(kObj, a_obj.get_state());
  EXPECT_FALSE(h->done());
  replica.restore_snapshot(snap);  // crash before any response arrived
  EXPECT_TRUE(h->done());
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAborted);
  EXPECT_EQ(a_obj.value, bytes_of("genesis"));
}

// ---------------------------------------------------------------------------
// TTP-certified termination (§7)
// ---------------------------------------------------------------------------

/// bob & carol honest; mallory's endpoint is hijacked so she can stall.
struct TtpFixture {
  Federation fed{{"bob", "carol", "mallory"}};
  TestRegister bob_obj, carol_obj, mallory_obj;
  crypto::ChaCha20Rng rng{0x7e57ULL};
  Bytes authenticator;
  std::vector<std::pair<PartyId, Bytes>> inbox;

  TtpFixture() {
    fed.register_object("bob", kObj, bob_obj);
    fed.register_object("carol", kObj, carol_obj);
    fed.coordinator("mallory").register_object(kObj, mallory_obj);
    fed.bootstrap_object(kObj, {"bob", "carol", "mallory"},
                         bytes_of("genesis"));
    fed.enable_ttp_termination(kObj, 500'000);  // 500 ms virtual deadline
    fed.endpoint("mallory").set_handler(
        [this](const PartyId& from, const Bytes& payload) {
          inbox.emplace_back(from, payload);
        });
  }

  ProposeMsg make_proposal(Bytes new_state) {
    const Replica& view = fed.coordinator("bob").replica(kObj);
    ProposeMsg msg;
    Proposal& prop = msg.proposal;
    prop.proposer = PartyId{"mallory"};
    prop.object = kObj;
    prop.group = view.group_tuple();
    prop.agreed = view.agreed_tuple();
    authenticator = rng.bytes(32);
    prop.proposed = StateTuple{view.last_seen_sequence() + 1,
                               crypto::Sha256::hash(authenticator),
                               crypto::Sha256::hash(new_state)};
    prop.payload_hash = crypto::Sha256::hash(new_state);
    msg.payload = std::move(new_state);
    msg.signature = fed.keypair("mallory").sign(prop.signed_bytes());
    return msg;
  }

  void send(const std::string& to, MsgType type, Bytes body) {
    Envelope env{type, kObj, std::move(body)};
    fed.endpoint("mallory").send(PartyId{to}, env.encode());
  }

  std::vector<RespondMsg> responses() {
    std::vector<RespondMsg> out;
    for (const auto& [from, payload] : inbox) {
      Envelope env = Envelope::decode(payload);
      if (env.type == MsgType::kRespond) {
        out.push_back(RespondMsg::decode(env.body));
      }
    }
    return out;
  }
};

TEST(TtpTermination, SilentProposerLeadsToConsistentCertifiedAbort) {
  TtpFixture t;
  ProposeMsg msg = t.make_proposal(bytes_of("abandoned"));
  t.send("bob", MsgType::kPropose, msg.encode());
  t.send("carol", MsgType::kPropose, msg.encode());
  t.fed.settle();  // deadlines fire, TTP aborts, locks release

  EXPECT_EQ(t.fed.termination_ttp().aborts_issued(), 1u);
  EXPECT_TRUE(
      t.fed.coordinator("bob").replica(kObj).active_run_labels().empty());
  EXPECT_TRUE(
      t.fed.coordinator("carol").replica(kObj).active_run_labels().empty());
  // Fail-safe: nothing installed anywhere.
  EXPECT_EQ(t.bob_obj.value, bytes_of("genesis"));
  EXPECT_EQ(t.carol_obj.value, bytes_of("genesis"));
  // Evidence of the certified abort is held.
  EXPECT_FALSE(
      t.fed.coordinator("bob").evidence().find_kind("ttp.abort").empty());
}

TEST(TtpTermination, CrashedProposerTranscriptYieldsCertifiedDecision) {
  // Mallory (playing an honest-but-crashed proposer) collects both
  // responses, then "crashes" before sending decide — but her recovery
  // logic refers the run to the TTP with the full transcript. The TTP
  // certifies the DECISION, and the blocked responders install the state.
  TtpFixture t;
  ProposeMsg msg = t.make_proposal(bytes_of("recovered-state"));
  t.send("bob", MsgType::kPropose, msg.encode());
  t.send("carol", MsgType::kPropose, msg.encode());
  t.fed.scheduler().run_until(t.fed.scheduler().now() + 100'000);
  auto resps = t.responses();
  ASSERT_EQ(resps.size(), 2u);

  TerminationRequest request;
  request.requester = PartyId{"mallory"};
  request.object = kObj;
  request.proposed = msg.proposal.proposed;
  request.propose = msg;
  request.responses = resps;
  request.claimed_recipients = {PartyId{"bob"}, PartyId{"carol"}};
  Bytes signature = t.fed.keypair("mallory").sign(request.signed_bytes());
  t.send("termination-ttp", MsgType::kTerminationRequest,
         request.encode_with_signature(signature));
  t.fed.settle();  // responders' deadlines fetch the cached decision

  EXPECT_EQ(t.fed.termination_ttp().decisions_issued(), 1u);
  EXPECT_EQ(t.fed.termination_ttp().aborts_issued(), 0u);
  EXPECT_EQ(t.bob_obj.value, bytes_of("recovered-state"));
  EXPECT_EQ(t.carol_obj.value, bytes_of("recovered-state"));
  EXPECT_EQ(t.fed.coordinator("bob").replica(kObj).agreed_tuple(),
            t.fed.coordinator("carol").replica(kObj).agreed_tuple());
}

TEST(TtpTermination, ProposerBlockedBySilentResponderIsAborted) {
  // bob proposes with the TTP enabled; mallory (hijacked) never responds.
  TtpFixture t;
  t.bob_obj.value = bytes_of("doomed");
  RunHandle h = t.fed.coordinator("bob").propagate_new_state(
      kObj, t.bob_obj.get_state());
  t.fed.settle();
  ASSERT_TRUE(h->done());
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAborted);
  EXPECT_EQ(h->diagnostic, "TTP-certified abort");
  EXPECT_EQ(t.bob_obj.value, bytes_of("genesis"));  // rolled back
  // carol (which accepted and locked) was released by the same verdict.
  EXPECT_TRUE(
      t.fed.coordinator("carol").replica(kObj).active_run_labels().empty());
  EXPECT_EQ(t.carol_obj.value, bytes_of("genesis"));
}

TEST(TtpTermination, NormalRunsAreUnaffectedByDeadlines) {
  Federation fed{{"a", "b"}};
  TestRegister a_obj, b_obj;
  fed.register_object("a", kObj, a_obj);
  fed.register_object("b", kObj, b_obj);
  fed.bootstrap_object(kObj, {"a", "b"}, bytes_of("genesis"));
  fed.enable_ttp_termination(kObj, 500'000);
  for (int round = 1; round <= 3; ++round) {
    a_obj.value = bytes_of("v" + std::to_string(round));
    RunHandle h =
        fed.coordinator("a").propagate_new_state(kObj, a_obj.get_state());
    ASSERT_TRUE(fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    fed.settle();
  }
  EXPECT_EQ(fed.termination_ttp().aborts_issued(), 0u);
  EXPECT_EQ(fed.termination_ttp().decisions_issued(), 0u);
  EXPECT_EQ(b_obj.value, bytes_of("v3"));
}

TEST(TtpTermination, ForgedVerdictIsRejected) {
  TtpFixture t;
  ProposeMsg msg = t.make_proposal(bytes_of("forge-target"));
  t.send("bob", MsgType::kPropose, msg.encode());
  t.fed.scheduler().run_until(t.fed.scheduler().now() + 100'000);

  // Mallory forges an "abort" verdict signed by herself.
  TerminationVerdict forged;
  forged.kind = TerminationVerdict::Kind::kAbort;
  forged.object = kObj;
  forged.proposed = msg.proposal.proposed;
  forged.time_micros = 1;
  Bytes bad_sig = t.fed.keypair("mallory").sign(forged.signed_bytes());
  // Send it pretending to be... mallory (the transport is authenticated,
  // so she cannot spoof the TTP's identity — the replica must reject a
  // verdict that does not come from its configured TTP).
  t.send("bob", MsgType::kTerminationVerdict,
         forged.encode_with_signature(bad_sig));
  t.fed.scheduler().run_until(t.fed.scheduler().now() + 100'000);
  // bob is still locked on the run (the forgery was recorded, not obeyed).
  EXPECT_FALSE(
      t.fed.coordinator("bob").replica(kObj).active_run_labels().empty());
  EXPECT_GE(t.fed.coordinator("bob").violations_detected(), 1u);
}

}  // namespace
}  // namespace b2b::core
