// End-to-end tests of the connection / disconnection protocols (§4.5):
// sponsored connection (direct and relayed), rejection and veto, voluntary
// disconnection, eviction (sponsor-initiated, relayed, subset), sponsor
// rotation, and the consistency of group views afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "b2b/arbiter.hpp"
#include "b2b/federation.hpp"
#include "b2b/messages.hpp"
#include "b2b/replica.hpp"
#include "common/error.hpp"
#include "crypto/sha256.hpp"
#include "net/reliable.hpp"
#include "tests/support/runtime_param.hpp"
#include "tests/support/test_objects.hpp"
#include "wire/codec.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

const ObjectId kObj{"doc"};

/// Three organisations; alpha and beta share the object, gamma starts
/// outside the group. Registers are declared before (destroyed after) the
/// federation so the runtime's delivery threads stop before the objects
/// they write into die.
struct ConnectFixture {
  TestRegister alpha_obj;
  TestRegister beta_obj;
  TestRegister gamma_obj;
  Federation fed;

  explicit ConnectFixture(RuntimeKind kind = RuntimeKind::kSim)
      : fed({"alpha", "beta", "gamma"}, test::runtime_options(kind)) {
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.register_object("gamma", kObj, gamma_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));
  }
};

/// The §4.5 protocol family runs over every runtime substrate; tests that
/// need deterministic scheduling or simulator-only instruments (forged
/// frames via endpoint()) stay plain sim-only TESTs below.
class MembershipRuntimes : public test::RuntimeParamTest {};

TEST_P(MembershipRuntimes, SponsorIsMostRecentlyJoinedMember) {
  ConnectFixture t(GetParam());
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).connect_sponsor(),
            PartyId{"beta"});
  EXPECT_EQ(t.fed.coordinator("beta").replica(kObj).connect_sponsor(),
            PartyId{"beta"});
}

TEST_P(MembershipRuntimes, ConnectViaSponsorAdmitsSubject) {
  ConnectFixture t(GetParam());
  // beta is the sponsor (most recently joined of the genesis order).
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();

  std::vector<PartyId> expected{PartyId{"alpha"}, PartyId{"beta"},
                                PartyId{"gamma"}};
  for (const char* name : {"alpha", "beta", "gamma"}) {
    Replica& r = t.fed.coordinator(name).replica(kObj);
    EXPECT_EQ(r.members(), expected) << name;
    EXPECT_TRUE(r.connected()) << name;
  }
  // The new member received the agreed state.
  EXPECT_EQ(t.gamma_obj.value, bytes_of("genesis"));
  // Group tuples agree everywhere.
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).group_tuple(),
            t.fed.coordinator("gamma").replica(kObj).group_tuple());
}

TEST_P(MembershipRuntimes, ConnectViaNonSponsorIsRelayed) {
  ConnectFixture t(GetParam());
  // gamma contacts alpha, which is not the sponsor; alpha must relay.
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"alpha"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).members().size(), 3u);
}

TEST_P(MembershipRuntimes, NewMemberBecomesNextSponsor) {
  ConnectFixture t(GetParam());
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();
  for (const char* name : {"alpha", "beta", "gamma"}) {
    EXPECT_EQ(t.fed.coordinator(name).replica(kObj).connect_sponsor(),
              PartyId{"gamma"})
        << name;
  }
}

TEST_P(MembershipRuntimes, NewMemberCanProposeStateChanges) {
  ConnectFixture t(GetParam());
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();

  t.gamma_obj.value = bytes_of("from-the-newcomer");
  RunHandle sh = t.fed.coordinator("gamma").propagate_new_state(
      kObj, t.gamma_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(sh));
  EXPECT_EQ(sh->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.alpha_obj.value, bytes_of("from-the-newcomer"));
  EXPECT_EQ(t.beta_obj.value, bytes_of("from-the-newcomer"));
}

TEST(Membership, ConnectVetoedByMemberYieldsReject) {
  ConnectFixture t;
  // alpha (a recipient, not the sponsor) vetoes new members.
  struct VetoingRegister : TestRegister {
    Decision validate_connect(const PartyId&,
                              const ValidationContext&) override {
      return Decision::rejected("we are full");
    }
  };
  VetoingRegister alpha_veto;
  Federation fed{{"alpha", "beta", "gamma"}};
  TestRegister beta_obj, gamma_obj;
  fed.register_object("alpha", kObj, alpha_veto);
  fed.register_object("beta", kObj, beta_obj);
  fed.register_object("gamma", kObj, gamma_obj);
  fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));

  RunHandle h = fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed);
  fed.settle();
  EXPECT_EQ(fed.coordinator("alpha").replica(kObj).members().size(), 2u);
  EXPECT_FALSE(fed.coordinator("gamma").replica(kObj).connected());
}

/// The Arbiter rules on a membership run from one party's log, at the
/// sponsor and at a recipient, as on a state run: the run's group label
/// files its membership.* records.
TEST(Membership, ArbiterRulesOnConnectRunsFromOnePartysLog) {
  struct VetoingRegister : TestRegister {
    bool veto = false;
    Decision validate_connect(const PartyId&,
                              const ValidationContext&) override {
      return veto ? Decision::rejected("we are full") : Decision::accepted();
    }
  };
  VetoingRegister alpha_obj;
  TestRegister beta_obj, gamma_obj, delta_obj, epsilon_obj;
  Federation fed{{"alpha", "beta", "gamma", "delta", "epsilon"}};
  fed.register_object("alpha", kObj, alpha_obj);
  fed.register_object("beta", kObj, beta_obj);
  fed.register_object("gamma", kObj, gamma_obj);
  fed.register_object("delta", kObj, delta_obj);
  fed.register_object("epsilon", kObj, epsilon_obj);
  fed.bootstrap_object(kObj, {"alpha", "beta", "gamma"}, bytes_of("genesis"));
  const Arbiter arbiter{fed.make_verifier()};

  // Agreed: gamma sponsors delta's connect; alpha and beta respond.
  RunHandle joined =
      fed.coordinator("delta").propagate_connect(kObj, PartyId{"gamma"});
  ASSERT_TRUE(fed.run_until_done(joined));
  ASSERT_EQ(joined->outcome, RunResult::Outcome::kAgreed);
  fed.settle();
  const std::vector<PartyId> asked{PartyId{"alpha"}, PartyId{"beta"}};
  for (const char* name : {"gamma", "beta"}) {
    const ArbitrationReport report = arbiter.arbitrate(
        fed.coordinator(name).evidence(), joined->run_label, &asked);
    EXPECT_TRUE(report.proposal_found) << name << ": " << report.ruling;
    EXPECT_TRUE(report.decide_found) << name;
    EXPECT_TRUE(report.verdict.evidence_intact) << name << ": "
                                                << report.ruling;
    EXPECT_TRUE(report.verdict.agreed) << name << ": " << report.ruling;
  }

  // Vetoed: delta, now the most recent member, sponsors epsilon's
  // connect, and alpha vetoes it.
  alpha_obj.veto = true;
  const std::vector<std::string> before =
      fed.coordinator("delta").evidence().run_labels();
  RunHandle refused =
      fed.coordinator("epsilon").propagate_connect(kObj, PartyId{"delta"});
  ASSERT_TRUE(fed.run_until_done(refused));
  ASSERT_EQ(refused->outcome, RunResult::Outcome::kVetoed);
  fed.settle();
  std::string label;
  for (const std::string& candidate :
       fed.coordinator("delta").evidence().run_labels()) {
    if (std::find(before.begin(), before.end(), candidate) == before.end()) {
      label = candidate;
    }
  }
  ASSERT_EQ(label.front(), 'g');
  const std::vector<PartyId> all_asked{PartyId{"alpha"}, PartyId{"beta"},
                                       PartyId{"gamma"}};
  for (const char* name : {"delta", "beta"}) {
    const ArbitrationReport report = arbiter.arbitrate(
        fed.coordinator(name).evidence(), label, &all_asked);
    EXPECT_TRUE(report.proposal_found) << name << ": " << report.ruling;
    EXPECT_TRUE(report.verdict.evidence_intact) << name << ": "
                                                << report.ruling;
    EXPECT_FALSE(report.verdict.agreed) << name;
    EXPECT_EQ(report.verdict.vetoers, std::vector<PartyId>{PartyId{"alpha"}})
        << name;
    EXPECT_NE(report.ruling.find("vetoed by alpha"), std::string::npos)
        << report.ruling;
  }
}

TEST(Membership, SponsorImmediateRejectionLooksIdentical) {
  // §4.5.3: the subject cannot distinguish sponsor rejection from a veto.
  struct VetoingRegister : TestRegister {
    Decision validate_connect(const PartyId&,
                              const ValidationContext&) override {
      return Decision::rejected("sponsor says no");
    }
  };
  Federation fed{{"alpha", "beta", "gamma"}};
  TestRegister alpha_obj, gamma_obj;
  VetoingRegister beta_veto;  // beta is the sponsor
  fed.register_object("alpha", kObj, alpha_obj);
  fed.register_object("beta", kObj, beta_veto);
  fed.register_object("gamma", kObj, gamma_obj);
  fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));

  RunHandle h = fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed);
  EXPECT_EQ(h->diagnostic, "connection request rejected");
  // No membership proposal ever went out.
  EXPECT_EQ(fed.coordinator("alpha").replica(kObj).members().size(), 2u);
}

TEST_P(MembershipRuntimes, AlreadyConnectedPartyCannotConnect) {
  ConnectFixture t(GetParam());
  RunHandle h =
      t.fed.coordinator("alpha").propagate_connect(kObj, PartyId{"beta"});
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAborted);
}

TEST_P(MembershipRuntimes, VoluntaryDisconnectShrinksGroup) {
  ConnectFixture t(GetParam());
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();

  // alpha leaves; sponsor for alpha's departure is gamma (most recent).
  RunHandle d = t.fed.coordinator("alpha").propagate_disconnect(kObj);
  ASSERT_TRUE(t.fed.run_until_done(d));
  EXPECT_EQ(d->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();

  EXPECT_FALSE(t.fed.coordinator("alpha").replica(kObj).connected());
  std::vector<PartyId> expected{PartyId{"beta"}, PartyId{"gamma"}};
  EXPECT_EQ(t.fed.coordinator("beta").replica(kObj).members(), expected);
  EXPECT_EQ(t.fed.coordinator("gamma").replica(kObj).members(), expected);

  // The remaining pair can still coordinate.
  t.beta_obj.value = bytes_of("after-departure");
  RunHandle sh = t.fed.coordinator("beta").propagate_new_state(
      kObj, t.beta_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(sh));
  EXPECT_EQ(sh->outcome, RunResult::Outcome::kAgreed);
}

TEST_P(MembershipRuntimes, DisconnectOfMostRecentMemberUsesPredecessorSponsor) {
  ConnectFixture t(GetParam());
  // beta is the most recently joined genesis member; its departure must be
  // sponsored by alpha (§4.5.1).
  EXPECT_EQ(
      t.fed.coordinator("alpha").replica(kObj).disconnect_sponsor(PartyId{"beta"}),
      PartyId{"alpha"});
  RunHandle d = t.fed.coordinator("beta").propagate_disconnect(kObj);
  ASSERT_TRUE(t.fed.run_until_done(d));
  EXPECT_EQ(d->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).members(),
            std::vector<PartyId>{PartyId{"alpha"}});
}

TEST(Membership, SoleMemberDisconnectsLocally) {
  Federation fed{{"solo"}};
  TestRegister obj;
  fed.register_object("solo", kObj, obj);
  fed.bootstrap_object(kObj, {"solo"}, bytes_of("genesis"));
  RunHandle d = fed.coordinator("solo").propagate_disconnect(kObj);
  EXPECT_EQ(d->outcome, RunResult::Outcome::kAgreed);
  EXPECT_FALSE(fed.coordinator("solo").replica(kObj).connected());
}

TEST_P(MembershipRuntimes, DepartedMemberCanReconnect) {
  ConnectFixture t(GetParam());
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();
  RunHandle d = t.fed.coordinator("alpha").propagate_disconnect(kObj);
  ASSERT_TRUE(t.fed.run_until_done(d));
  t.fed.settle();

  RunHandle rc =
      t.fed.coordinator("alpha").propagate_connect(kObj, PartyId{"gamma"});
  ASSERT_TRUE(t.fed.run_until_done(rc));
  EXPECT_EQ(rc->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  // alpha rejoined at the end of the join order.
  std::vector<PartyId> expected{PartyId{"beta"}, PartyId{"gamma"},
                                PartyId{"alpha"}};
  EXPECT_EQ(t.fed.coordinator("beta").replica(kObj).members(), expected);
}

TEST_P(MembershipRuntimes, SponsorInitiatedEvictionSkipsRequestStep) {
  ConnectFixture t(GetParam());
  // beta (sponsor) evicts alpha directly.
  RunHandle h =
      t.fed.coordinator("beta").propagate_eviction(kObj, {PartyId{"alpha"}});
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.fed.coordinator("beta").replica(kObj).members(),
            std::vector<PartyId>{PartyId{"beta"}});
  // The evicted party was not involved: its local view is simply stale.
  EXPECT_TRUE(t.fed.coordinator("alpha").replica(kObj).connected());
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).members().size(), 2u);
}

TEST_P(MembershipRuntimes, EvictedPartysProposalsAreRejected) {
  ConnectFixture t(GetParam());
  RunHandle h =
      t.fed.coordinator("beta").propagate_eviction(kObj, {PartyId{"alpha"}});
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();

  // alpha, unaware, proposes a state change; beta's replica rejects it on
  // the group-view consistency check.
  t.alpha_obj.value = bytes_of("stale");
  RunHandle sh = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(sh));
  EXPECT_EQ(sh->outcome, RunResult::Outcome::kVetoed);
  EXPECT_EQ(sh->diagnostic, "inconsistent group view");
  EXPECT_EQ(t.alpha_obj.value, bytes_of("genesis"));  // rolled back
}

TEST_P(MembershipRuntimes, RelayedEvictionReportsOutcomeToProposer) {
  ConnectFixture t(GetParam());
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();

  // alpha (not the sponsor; gamma is) proposes evicting beta.
  RunHandle ev =
      t.fed.coordinator("alpha").propagate_eviction(kObj, {PartyId{"beta"}});
  ASSERT_TRUE(t.fed.run_until_done(ev));
  EXPECT_EQ(ev->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  std::vector<PartyId> expected{PartyId{"alpha"}, PartyId{"gamma"}};
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).members(), expected);
  EXPECT_EQ(t.fed.coordinator("gamma").replica(kObj).members(), expected);
}

TEST(Membership, EvictionCanBeVetoed) {
  Federation fed{{"alpha", "beta", "gamma"}};
  struct LoyalRegister : TestRegister {
    Decision validate_disconnect(const PartyId&, bool eviction,
                                 const ValidationContext&) override {
      return eviction ? Decision::rejected("we do not abandon partners")
                      : Decision::accepted();
    }
  };
  TestRegister alpha_obj, gamma_obj;
  LoyalRegister beta_obj;
  fed.register_object("alpha", kObj, alpha_obj);
  fed.register_object("beta", kObj, beta_obj);
  fed.register_object("gamma", kObj, gamma_obj);
  fed.bootstrap_object(kObj, {"alpha", "beta", "gamma"}, bytes_of("genesis"));

  // gamma (sponsor) proposes evicting alpha; beta vetoes.
  RunHandle ev =
      fed.coordinator("gamma").propagate_eviction(kObj, {PartyId{"alpha"}});
  ASSERT_TRUE(fed.run_until_done(ev));
  EXPECT_EQ(ev->outcome, RunResult::Outcome::kVetoed);
  fed.settle();
  EXPECT_EQ(fed.coordinator("beta").replica(kObj).members().size(), 3u);
  EXPECT_EQ(fed.coordinator("gamma").replica(kObj).members().size(), 3u);
}

TEST(Membership, SubsetEvictionRemovesSeveralAtOnce) {
  Federation fed{{"a", "b", "c", "d"}};
  TestRegister objs[4];
  const char* names[] = {"a", "b", "c", "d"};
  for (int i = 0; i < 4; ++i) fed.register_object(names[i], kObj, objs[i]);
  fed.bootstrap_object(kObj, {"a", "b", "c", "d"}, bytes_of("genesis"));

  // d (sponsor) evicts b and c in one run.
  RunHandle ev = fed.coordinator("d").propagate_eviction(
      kObj, {PartyId{"b"}, PartyId{"c"}});
  ASSERT_TRUE(fed.run_until_done(ev));
  EXPECT_EQ(ev->outcome, RunResult::Outcome::kAgreed);
  fed.settle();
  std::vector<PartyId> expected{PartyId{"a"}, PartyId{"d"}};
  EXPECT_EQ(fed.coordinator("a").replica(kObj).members(), expected);
  EXPECT_EQ(fed.coordinator("d").replica(kObj).members(), expected);
}

TEST_P(MembershipRuntimes, CannotEvictSelfOrNonMembers) {
  ConnectFixture t(GetParam());
  RunHandle self_evict =
      t.fed.coordinator("beta").propagate_eviction(kObj, {PartyId{"beta"}});
  EXPECT_EQ(self_evict->outcome, RunResult::Outcome::kAborted);
  RunHandle stranger =
      t.fed.coordinator("beta").propagate_eviction(kObj, {PartyId{"gamma"}});
  EXPECT_EQ(stranger->outcome, RunResult::Outcome::kAborted);
}

TEST_P(MembershipRuntimes, GroupSequenceAdvancesWithMembershipChanges) {
  ConnectFixture t(GetParam());
  std::uint64_t before =
      t.fed.coordinator("alpha").replica(kObj).group_tuple().sequence;
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();
  std::uint64_t after =
      t.fed.coordinator("alpha").replica(kObj).group_tuple().sequence;
  EXPECT_GT(after, before);
  // State sequence numbering continues from the membership change (§4.5:
  // shared coordination-request sequence space).
  t.alpha_obj.value = bytes_of("post-join");
  RunHandle sh = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(sh));
  EXPECT_GT(sh->sequence, after);
}

TEST(Membership, ConnectDuringActiveStateRunIsRejected) {
  ConnectFixture t;
  // Stall a state run by holding beta's response: crash beta so alpha's
  // proposal stays active, then have gamma try to connect via alpha (which
  // relays to beta... also dead). Instead: keep everyone alive and simply
  // start a state run, then request connect before running the scheduler.
  t.alpha_obj.value = bytes_of("pending");
  RunHandle sh = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  RunHandle ch =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  t.fed.settle();
  ASSERT_TRUE(sh->done());
  ASSERT_TRUE(ch->done());
  // The two requests race at beta (the sponsor). Whichever arrives second
  // is refused as busy: the connect is always rejected (beta either
  // already locked onto the state run, or alpha — mid-proposal — vetoes
  // the membership change); the state run either completes or is vetoed.
  EXPECT_EQ(ch->outcome, RunResult::Outcome::kVetoed);
  EXPECT_NE(sh->outcome, RunResult::Outcome::kPending);
  // Views stayed consistent regardless of the interleaving.
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).group_tuple(),
            t.fed.coordinator("beta").replica(kObj).group_tuple());
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).agreed_tuple(),
            t.fed.coordinator("beta").replica(kObj).agreed_tuple());
  EXPECT_EQ(t.alpha_obj.value, t.beta_obj.value);
}

B2B_INSTANTIATE_RUNTIME_SUITE(MembershipRuntimes);

// --- bounded sponsor-side memory (BoundedNonceSet) ----------------------------

TEST(BoundedNonceSet, DuplicateInsertIsRejected) {
  BoundedNonceSet set(4);
  EXPECT_TRUE(set.insert("n1"));
  EXPECT_FALSE(set.insert("n1"));
  EXPECT_TRUE(set.contains("n1"));
  EXPECT_EQ(set.size(), 1u);
}

TEST(BoundedNonceSet, EvictsOldestBeyondCapacity) {
  BoundedNonceSet set(3);
  EXPECT_TRUE(set.insert("n1"));
  EXPECT_TRUE(set.insert("n2"));
  EXPECT_TRUE(set.insert("n3"));
  // The fourth nonce pushes out the oldest (watermark = insertion order).
  EXPECT_TRUE(set.insert("n4"));
  EXPECT_FALSE(set.contains("n1"));
  EXPECT_TRUE(set.contains("n2"));
  EXPECT_TRUE(set.contains("n3"));
  EXPECT_TRUE(set.contains("n4"));
  EXPECT_EQ(set.size(), set.capacity());
  // A replay of the evicted nonce is no longer recognised as a duplicate
  // here; the membership state checks reject it downstream (see the
  // ReplayedRequest... test below).
  EXPECT_TRUE(set.insert("n1"));
  EXPECT_FALSE(set.contains("n2"));
}

TEST(BoundedNonceSet, LazyEraseTombstonesAreSkippedOnEviction) {
  BoundedNonceSet set(2);
  EXPECT_TRUE(set.insert("a"));
  EXPECT_TRUE(set.insert("b"));
  set.erase("a");  // FIFO entry stays behind as a tombstone
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.insert("c"));  // b, c — still within capacity
  EXPECT_TRUE(set.insert("d"));  // evicts the tombstone AND b
  EXPECT_FALSE(set.contains("a"));
  EXPECT_FALSE(set.contains("b"));
  EXPECT_TRUE(set.contains("c"));
  EXPECT_TRUE(set.contains("d"));
  EXPECT_EQ(set.size(), 2u);
}

// A stale connect request whose nonce has aged out of the sponsor's
// bounded window is re-processed as if fresh — and must still bounce off
// the membership state checks: the subject is already a member, so the
// sponsor answers with a reject, never a second admission run. Journaled
// federation, because the unsolicited answer at the (already-member)
// subject is the journal-gated duplicate-tolerance path.
TEST(MembershipBounds, ReplayedRequestStillRejectedAfterNonceEviction) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "b2b_membership_replay";
  fs::remove_all(root);
  {
    Federation::Options options;
    options.journal_root = root.string();
    Federation fed{{"alpha", "beta", "gamma"}, options};
    TestRegister alpha_obj, beta_obj, gamma_obj;
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.register_object("gamma", kObj, gamma_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));

    RunHandle h =
        fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
    ASSERT_TRUE(fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    fed.settle();

    // Replay gamma's admission with a nonce the sponsor has never seen
    // (as after eviction from the bounded window): properly signed, sent
    // to a non-sponsor so it exercises the relay path too.
    MembershipRequest replay;
    replay.kind = MembershipKind::kConnect;
    replay.sender = PartyId{"gamma"};
    replay.object = kObj;
    replay.subjects = {PartyId{"gamma"}};
    replay.subject_public_key =
        fed.keypair("gamma").public_key().encode();
    replay.request_nonce = bytes_of("nonce-evicted-from-window");
    Bytes signature = fed.keypair("gamma").sign(replay.signed_bytes());
    wire::Encoder enc;
    replay.encode_into(enc);
    enc.blob(signature);
    fed.endpoint("gamma").send(
        PartyId{"beta"},
        Envelope{MsgType::kConnectRequest, kObj, std::move(enc).take()}
            .encode());
    fed.settle();

    // No second admission: the group is unchanged everywhere and nobody
    // was blamed (the stray reject lands as an anomaly at gamma).
    std::vector<PartyId> expected{PartyId{"alpha"}, PartyId{"beta"},
                                  PartyId{"gamma"}};
    for (const char* name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = fed.coordinator(name);
      EXPECT_EQ(coord.replica(kObj).members(), expected) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
    EXPECT_FALSE(
        fed.coordinator("gamma").evidence().find_kind("anomaly").empty());
  }
  fs::remove_all(root);
}

// An outsider's connect request carrying a key no signature fits (a 2-byte
// modulus; PKCS#1 SHA-256 needs 62 bytes) is refused at decode and blamed
// on the sender. Nothing throws through the delivery path, and the group
// agrees on its next change.
TEST(Membership, ConnectRequestWithUnusableKeyIsAViolation) {
  ConnectFixture t;
  MembershipRequest request;
  request.kind = MembershipKind::kConnect;
  request.sender = PartyId{"gamma"};
  request.object = kObj;
  request.subjects = {PartyId{"gamma"}};
  request.subject_public_key =
      crypto::RsaPublicKey(crypto::BigInt(257), crypto::BigInt(65537))
          .encode();
  request.request_nonce = bytes_of("tiny-key");
  wire::Encoder enc;
  request.encode_into(enc);
  enc.blob(Bytes{0x01, 0x00});  // a "signature" as wide as the modulus
  t.fed.endpoint("gamma").send(
      PartyId{"beta"},
      Envelope{MsgType::kConnectRequest, kObj, std::move(enc).take()}
          .encode());
  t.fed.settle();
  EXPECT_EQ(t.fed.coordinator("beta").violations_detected(), 1u);
  EXPECT_EQ(t.fed.coordinator("beta").replica(kObj).members().size(), 2u);

  t.alpha_obj.value = bytes_of("after-the-outsider");
  RunHandle h = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.beta_obj.value, bytes_of("after-the-outsider"));
}

// --- sponsor rotation under eviction (§4.5.1) ---------------------------------

// The eviction subject set contains the legitimate sponsor itself: the
// next member in rotation must sponsor the run, and a late decide forged
// under the deposed sponsor's name is ignored as an unknown run.
TEST(Membership, EvictingTheSponsorRotatesToNextInLine) {
  ConnectFixture t;
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();
  ASSERT_EQ(t.fed.coordinator("alpha").replica(kObj).connect_sponsor(),
            PartyId{"gamma"});

  // beta proposes evicting gamma — the sponsor. sponsor_for_removal must
  // skip the subject and land on beta (most recently joined survivor).
  RunHandle ev =
      t.fed.coordinator("beta").propagate_eviction(kObj, {PartyId{"gamma"}});
  ASSERT_TRUE(t.fed.run_until_done(ev));
  EXPECT_EQ(ev->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();

  std::vector<PartyId> expected{PartyId{"alpha"}, PartyId{"beta"}};
  for (const char* name : {"alpha", "beta"}) {
    Replica& r = t.fed.coordinator(name).replica(kObj);
    EXPECT_EQ(r.members(), expected) << name;
    EXPECT_EQ(r.connect_sponsor(), PartyId{"beta"}) << name;
  }

  // The evicted ex-sponsor sends a late decide for a run the survivors
  // never opened: anomaly, not blame, and the group does not move.
  Bytes authenticator = bytes_of("late-authenticator");
  MembershipDecideMsg late;
  late.sponsor = PartyId{"gamma"};
  late.object = kObj;
  late.new_group =
      GroupTuple{99, crypto::Sha256::hash(authenticator),
                 crypto::Sha256::hash(bytes_of("bogus-members"))};
  late.authenticator = authenticator;
  t.fed.endpoint("gamma").send(
      PartyId{"alpha"},
      Envelope{MsgType::kMembershipDecide, kObj, late.encode()}.encode());
  t.fed.settle();

  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).members(), expected);
  EXPECT_EQ(t.fed.coordinator("alpha").violations_detected(), 0u);
  EXPECT_FALSE(
      t.fed.coordinator("alpha").evidence().find_kind("anomaly").empty());
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).group_tuple(),
            t.fed.coordinator("beta").replica(kObj).group_tuple());
}

// --- fixed-sponsor policy (footnote 2 of §4.5.1) ------------------------------

struct FixedSponsorFixture {
  Federation fed;
  TestRegister alpha_obj, beta_obj, gamma_obj;

  static Federation::Options options() {
    Federation::Options o;
    o.sponsor_policy = SponsorPolicy::kFixedInitial;
    return o;
  }

  FixedSponsorFixture() : fed({"alpha", "beta", "gamma"}, options()) {
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.register_object("gamma", kObj, gamma_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));
  }
};

TEST(FixedSponsor, InitialMemberSponsorsConnections) {
  FixedSponsorFixture t;
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).connect_sponsor(),
            PartyId{"alpha"});
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"alpha"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  // After the join the sponsor is STILL alpha (no rotation).
  EXPECT_EQ(t.fed.coordinator("beta").replica(kObj).connect_sponsor(),
            PartyId{"alpha"});
}

TEST(FixedSponsor, ResponsibilityPassesWhenInitialMemberIsSubject) {
  FixedSponsorFixture t;
  Replica& r = t.fed.coordinator("beta").replica(kObj);
  EXPECT_EQ(r.disconnect_sponsor(PartyId{"alpha"}), PartyId{"beta"});
  EXPECT_EQ(r.disconnect_sponsor(PartyId{"beta"}), PartyId{"alpha"});
  // alpha (the fixed sponsor) leaves voluntarily: beta must sponsor it.
  RunHandle d = t.fed.coordinator("alpha").propagate_disconnect(kObj);
  ASSERT_TRUE(t.fed.run_until_done(d));
  EXPECT_EQ(d->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.fed.coordinator("beta").replica(kObj).members(),
            std::vector<PartyId>{PartyId{"beta"}});
}

TEST(FixedSponsor, MismatchedPolicyIsRejectedAsIllegitimateSponsor) {
  // One party configured with rotating policy in a fixed-policy world
  // would address the wrong sponsor; the proposal is vetoed, views stay
  // consistent. Here: gamma connects via beta (the *rotating* sponsor),
  // but beta relays to the legitimate fixed sponsor, so it still works —
  // the relay path makes the policies interoperable for connects.
  FixedSponsorFixture t;
  RunHandle h =
      t.fed.coordinator("gamma").propagate_connect(kObj, PartyId{"beta"});
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
}

}  // namespace
}  // namespace b2b::core
