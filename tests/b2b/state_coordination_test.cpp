// End-to-end tests of the state coordination protocol (§4.3):
// agreement, veto with rollback, the update variant (§4.3.1), concurrent
// proposals, multi-party scaling and the three communication modes.
//
// Most suites are parameterized over every runtime (deterministic
// simulator and real sockets); tests that depend on simulator-only
// instruments (virtual-time stepping, pre-delivery windows) live in the
// *SimOnly suites.
#include <gtest/gtest.h>

#include "b2b/federation.hpp"
#include "common/error.hpp"
#include "tests/support/runtime_param.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

const ObjectId kObj{"doc"};

struct TwoParties {
  // Registers are declared before (destroyed after) the federation, so
  // the runtime's delivery threads stop before the objects they write
  // into die.
  TestRegister alpha_obj;
  TestRegister beta_obj;
  Federation fed;

  explicit TwoParties(RuntimeKind kind = RuntimeKind::kSim)
      : fed({"alpha", "beta"}, test::runtime_options(kind)) {
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));
  }
};

class StateCoordination : public test::RuntimeParamTest {};

TEST_P(StateCoordination, BootstrapEstablishesIdenticalViews) {
  TwoParties t(GetParam());
  Replica& a = t.fed.coordinator("alpha").replica(kObj);
  Replica& b = t.fed.coordinator("beta").replica(kObj);
  EXPECT_EQ(a.agreed_tuple(), b.agreed_tuple());
  EXPECT_EQ(a.group_tuple(), b.group_tuple());
  EXPECT_EQ(t.alpha_obj.value, bytes_of("genesis"));
  EXPECT_EQ(t.beta_obj.value, bytes_of("genesis"));
}

TEST_P(StateCoordination, AgreedOverwriteInstallsEverywhere) {
  TwoParties t(GetParam());
  t.alpha_obj.value = bytes_of("v1");
  RunHandle h = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.beta_obj.value, bytes_of("v1"));
  Replica& a = t.fed.coordinator("alpha").replica(kObj);
  Replica& b = t.fed.coordinator("beta").replica(kObj);
  EXPECT_EQ(a.agreed_tuple(), b.agreed_tuple());
  EXPECT_EQ(a.agreed_tuple().sequence, 1u);
}

TEST_P(StateCoordination, VetoRollsBackProposer) {
  TwoParties t(GetParam());
  t.beta_obj.policy = [](BytesView, const ValidationContext&) {
    return Decision::rejected("policy says no");
  };
  t.alpha_obj.value = bytes_of("v1");
  RunHandle h = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed);
  EXPECT_EQ(h->diagnostic, "policy says no");
  ASSERT_EQ(h->vetoers.size(), 1u);
  EXPECT_EQ(h->vetoers[0], PartyId{"beta"});
  // Proposer rolled back; replicas remain in the last agreed state.
  EXPECT_EQ(t.alpha_obj.value, bytes_of("genesis"));
  EXPECT_EQ(t.beta_obj.value, bytes_of("genesis"));
  t.fed.settle();
  Replica& a = t.fed.coordinator("alpha").replica(kObj);
  EXPECT_EQ(a.agreed_tuple().sequence, 0u);
}

TEST_P(StateCoordination, EventsFireOnBothSides) {
  TwoParties t(GetParam());
  t.alpha_obj.value = bytes_of("v1");
  RunHandle h = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  t.fed.settle();
  EXPECT_EQ(t.alpha_obj.count(CoordEvent::Kind::kStateAgreed), 1u);
  EXPECT_EQ(t.beta_obj.count(CoordEvent::Kind::kStateInstalled), 1u);
}

TEST_P(StateCoordination, SequencesAdvanceAcrossRuns) {
  TwoParties t(GetParam());
  for (int i = 1; i <= 5; ++i) {
    t.alpha_obj.value = bytes_of("v" + std::to_string(i));
    RunHandle h = t.fed.coordinator("alpha").propagate_new_state(
        kObj, t.alpha_obj.get_state());
    ASSERT_TRUE(t.fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed) << "round " << i;
    t.fed.settle();
  }
  Replica& a = t.fed.coordinator("alpha").replica(kObj);
  Replica& b = t.fed.coordinator("beta").replica(kObj);
  EXPECT_EQ(a.agreed_tuple().sequence, 5u);
  EXPECT_EQ(b.agreed_tuple().sequence, 5u);
  EXPECT_EQ(t.beta_obj.value, bytes_of("v5"));
}

TEST_P(StateCoordination, AlternatingProposersStayConsistent) {
  TwoParties t(GetParam());
  for (int i = 1; i <= 4; ++i) {
    bool alpha_turn = (i % 2) == 1;
    TestRegister& obj = alpha_turn ? t.alpha_obj : t.beta_obj;
    Coordinator& coord =
        t.fed.coordinator(alpha_turn ? "alpha" : "beta");
    obj.value = bytes_of("round" + std::to_string(i));
    RunHandle h = coord.propagate_new_state(kObj, obj.get_state());
    ASSERT_TRUE(t.fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed) << "round " << i;
    t.fed.settle();
    EXPECT_EQ(t.alpha_obj.value, t.beta_obj.value);
  }
}

TEST_P(StateCoordination, NullTransitionAbortsLocally) {
  TwoParties t(GetParam());
  RunHandle h = t.fed.coordinator("alpha").propagate_new_state(
      kObj, bytes_of("genesis"));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAborted);
  EXPECT_EQ(h->diagnostic, "null state transition");
}

TEST_P(StateCoordination, ReinstallingEarlierStateIsLegitimate) {
  // §4.4 note: uniqueness refers to the tuple, not the state — proposing
  // re-installation of an earlier state is allowed.
  TwoParties t(GetParam());
  t.alpha_obj.value = bytes_of("v1");
  RunHandle h1 = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h1));
  t.fed.settle();
  t.alpha_obj.value = bytes_of("genesis");  // back to the original content
  RunHandle h2 = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h2));
  EXPECT_EQ(h2->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.beta_obj.value, bytes_of("genesis"));
}

TEST_P(StateCoordination, UpdateVariantAppliesDelta) {
  TwoParties t(GetParam());
  t.alpha_obj.value = bytes_of("genesis+more");
  t.alpha_obj.pending_suffix = bytes_of("+more");
  RunHandle h = t.fed.coordinator("alpha").propagate_update(
      kObj, t.alpha_obj.get_update(), t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.beta_obj.value, bytes_of("genesis+more"));
}

TEST_P(StateCoordination, UpdateNotYieldingProposedStateIsRejected) {
  TwoParties t(GetParam());
  // Claim the update yields "genesis!" but send a delta producing
  // "genesis?": beta must reject and flag the violation.
  t.alpha_obj.value = bytes_of("genesis!");
  RunHandle h = t.fed.coordinator("alpha").propagate_update(
      kObj, bytes_of("?"), t.alpha_obj.get_state());
  ASSERT_TRUE(t.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed);
  EXPECT_EQ(t.beta_obj.value, bytes_of("genesis"));
  EXPECT_GE(t.fed.coordinator("beta").violations_detected(), 1u);
}

TEST(StateCoordinationSimOnly, ConcurrentProposalsDoNotDiverge) {
  TwoParties t;
  t.alpha_obj.value = bytes_of("from-alpha");
  t.beta_obj.value = bytes_of("from-beta");
  RunHandle ha = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  RunHandle hb = t.fed.coordinator("beta").propagate_new_state(
      kObj, t.beta_obj.get_state());
  t.fed.settle();
  ASSERT_TRUE(ha->done());
  ASSERT_TRUE(hb->done());
  // Both sides are busy with their own proposal, so both runs are vetoed —
  // and crucially the replicas converge back to the agreed state.
  EXPECT_EQ(ha->outcome, RunResult::Outcome::kVetoed);
  EXPECT_EQ(hb->outcome, RunResult::Outcome::kVetoed);
  EXPECT_EQ(t.alpha_obj.value, bytes_of("genesis"));
  EXPECT_EQ(t.beta_obj.value, bytes_of("genesis"));
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).agreed_tuple(),
            t.fed.coordinator("beta").replica(kObj).agreed_tuple());
}

TEST(StateCoordinationSimOnly, ProposerBusyAbortsSecondLocalProposal) {
  TwoParties t;
  t.alpha_obj.value = bytes_of("first");
  RunHandle h1 = t.fed.coordinator("alpha").propagate_new_state(
      kObj, t.alpha_obj.get_state());
  // Do not run the scheduler: the first run is still active.
  RunHandle h2 = t.fed.coordinator("alpha").propagate_new_state(
      kObj, bytes_of("second"));
  EXPECT_EQ(h2->outcome, RunResult::Outcome::kAborted);
  ASSERT_TRUE(t.fed.run_until_done(h1));
  EXPECT_EQ(h1->outcome, RunResult::Outcome::kAgreed);
}

// --- multi-party ------------------------------------------------------------

class MultiPartyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, RuntimeKind>> {
 protected:
  std::size_t group_size() const { return std::get<0>(GetParam()); }
  Federation::Options options() const {
    return test::runtime_options(std::get<1>(GetParam()));
  }
};

TEST_P(MultiPartyTest, AgreementAcrossNParties) {
  std::size_t n = group_size();
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back("org" + std::to_string(i));
  std::vector<TestRegister> objects(n);
  Federation fed{names, options()};
  for (std::size_t i = 0; i < n; ++i) {
    fed.register_object(names[i], kObj, objects[i]);
  }
  fed.bootstrap_object(kObj, names, bytes_of("genesis"));

  objects[0].value = bytes_of("agreed-by-all");
  RunHandle h =
      fed.coordinator(names[0]).propagate_new_state(kObj, objects[0].get_state());
  ASSERT_TRUE(fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  fed.settle();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(objects[i].value, bytes_of("agreed-by-all")) << names[i];
  }
}

TEST_P(MultiPartyTest, SingleVetoBlocksEveryone) {
  std::size_t n = group_size();
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back("org" + std::to_string(i));
  std::vector<TestRegister> objects(n);
  Federation fed{names, options()};
  for (std::size_t i = 0; i < n; ++i) {
    fed.register_object(names[i], kObj, objects[i]);
  }
  fed.bootstrap_object(kObj, names, bytes_of("genesis"));
  // The last organisation vetoes everything.
  objects[n - 1].policy = [](BytesView, const ValidationContext&) {
    return Decision::rejected("no");
  };

  objects[0].value = bytes_of("contested");
  RunHandle h =
      fed.coordinator(names[0]).propagate_new_state(kObj, objects[0].get_state());
  ASSERT_TRUE(fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed);
  fed.settle();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(objects[i].value, bytes_of("genesis")) << names[i];
  }
}

INSTANTIATE_TEST_SUITE_P(
    GroupSizes, MultiPartyTest,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(RuntimeKind::kSim,
                                         RuntimeKind::kThreaded,
                                         RuntimeKind::kReactor)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, RuntimeKind>>&
           info) {
      return "N" + std::to_string(std::get<0>(info.param)) +
             test::runtime_suffix(std::get<1>(info.param));
    });

// --- message complexity (the §7 O(N) claim, unit-level check) ---------------

TEST_P(StateCoordination, ProtocolUsesExactly3NMinus1Messages) {
  for (std::size_t n : {2u, 4u, 7u}) {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < n; ++i) {
      names.push_back("org" + std::to_string(i));
    }
    Federation fed{names, test::runtime_options(GetParam())};
    std::vector<TestRegister> objects(n);
    for (std::size_t i = 0; i < n; ++i) {
      fed.register_object(names[i], kObj, objects[i]);
    }
    fed.bootstrap_object(kObj, names, bytes_of("genesis"));

    objects[0].value = bytes_of("x");
    RunHandle h = fed.coordinator(names[0]).propagate_new_state(
        kObj, objects[0].get_state());
    ASSERT_TRUE(fed.run_until_done(h));
    fed.settle();

    std::uint64_t total = 0;
    for (const auto& name : names) {
      total += fed.coordinator(name).protocol_stats().envelopes_sent;
    }
    // propose to n-1, n-1 responses, decide to n-1.
    EXPECT_EQ(total, 3 * (n - 1)) << "n=" << n;
  }
}

// --- communication modes (§5) ------------------------------------------------

class ControllerModes : public test::RuntimeParamTest {};

TEST_P(ControllerModes, SyncLeaveBlocksAndInstalls) {
  TwoParties t(GetParam());
  Controller ctl = t.fed.make_controller("alpha", kObj);
  ctl.enter();
  ctl.overwrite();
  t.alpha_obj.value = bytes_of("sync-write");
  ctl.leave();  // blocks until agreed
  EXPECT_EQ(t.fed.coordinator("alpha").replica(kObj).agreed_tuple().sequence,
            1u);
  t.fed.settle();
  EXPECT_EQ(t.beta_obj.value, bytes_of("sync-write"));
}

TEST_P(ControllerModes, SyncLeaveThrowsOnVeto) {
  TwoParties t(GetParam());
  t.beta_obj.policy = [](BytesView, const ValidationContext&) {
    return Decision::rejected("nope");
  };
  Controller ctl = t.fed.make_controller("alpha", kObj);
  ctl.enter();
  ctl.overwrite();
  t.alpha_obj.value = bytes_of("doomed");
  EXPECT_THROW(ctl.leave(), ValidationError);
  EXPECT_EQ(t.alpha_obj.value, bytes_of("genesis"));  // rolled back
}

TEST_P(ControllerModes, ExamineScopeTriggersNoCoordination) {
  TwoParties t(GetParam());
  Controller ctl = t.fed.make_controller("alpha", kObj);
  ctl.enter();
  ctl.examine();
  Bytes read = t.alpha_obj.get_state();
  ctl.leave();
  EXPECT_EQ(read, bytes_of("genesis"));
  EXPECT_EQ(t.fed.coordinator("alpha").protocol_stats().envelopes_sent, 0u);
}

TEST_P(ControllerModes, UnchangedOverwriteScopeIsElided) {
  TwoParties t(GetParam());
  Controller ctl = t.fed.make_controller("alpha", kObj);
  ctl.enter();
  ctl.overwrite();
  // No actual change made.
  ctl.leave();
  EXPECT_EQ(t.fed.coordinator("alpha").protocol_stats().envelopes_sent, 0u);
}

TEST_P(ControllerModes, NestedScopesRollUpToOneCoordination) {
  TwoParties t(GetParam());
  Controller ctl = t.fed.make_controller("alpha", kObj);
  ctl.enter();
  ctl.overwrite();
  t.alpha_obj.value = bytes_of("a");
  ctl.enter();  // nested
  ctl.overwrite();
  t.alpha_obj.value = bytes_of("ab");
  ctl.leave();  // inner: no coordination yet
  EXPECT_EQ(t.fed.coordinator("alpha").protocol_stats().envelopes_sent, 0u);
  ctl.leave();  // outer: one coordination event
  t.fed.settle();
  EXPECT_EQ(t.beta_obj.value, bytes_of("ab"));
  EXPECT_EQ(t.fed.coordinator("alpha")
                .protocol_stats()
                .sent_by_type.at(MsgType::kPropose),
            1u);
}

TEST(ControllerModesSimOnly, DeferredSyncCompletesAtCoordCommit) {
  TwoParties t;
  Controller ctl =
      t.fed.make_controller("alpha", kObj, Controller::Mode::kDeferredSync);
  ctl.enter();
  ctl.overwrite();
  t.alpha_obj.value = bytes_of("deferred");
  ctl.leave();  // returns immediately
  EXPECT_FALSE(ctl.last_handle()->done());
  RunHandle h = ctl.coord_commit();
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  t.fed.settle();
  EXPECT_EQ(t.beta_obj.value, bytes_of("deferred"));
}

TEST(ControllerModesSimOnly, AsyncSignalsCompletionViaCallback) {
  TwoParties t;
  Controller ctl =
      t.fed.make_controller("alpha", kObj, Controller::Mode::kAsync);
  ctl.enter();
  ctl.overwrite();
  t.alpha_obj.value = bytes_of("async");
  ctl.leave();
  bool signalled = false;
  ctl.last_handle()->on_complete = [&](const RunResult& r) {
    signalled = (r.outcome == RunResult::Outcome::kAgreed);
  };
  t.fed.settle();
  EXPECT_TRUE(signalled);
  EXPECT_EQ(t.alpha_obj.count(CoordEvent::Kind::kStateAgreed), 1u);
}

TEST_P(ControllerModes, AccessOutsideScopeThrows) {
  TwoParties t(GetParam());
  Controller ctl = t.fed.make_controller("alpha", kObj);
  EXPECT_THROW(ctl.overwrite(), Error);
  EXPECT_THROW(ctl.examine(), Error);
  EXPECT_THROW(ctl.update(), Error);
  EXPECT_THROW(ctl.leave(), Error);
}

TEST_P(ControllerModes, UpdateModeUsesDeltaCoordination) {
  TwoParties t(GetParam());
  Controller ctl = t.fed.make_controller("alpha", kObj);
  ctl.enter();
  ctl.update();
  t.alpha_obj.value = bytes_of("genesis++");
  t.alpha_obj.pending_suffix = bytes_of("++");
  ctl.leave();
  t.fed.settle();
  EXPECT_EQ(t.beta_obj.value, bytes_of("genesis++"));
}

B2B_INSTANTIATE_RUNTIME_SUITE(StateCoordination);
B2B_INSTANTIATE_RUNTIME_SUITE(ControllerModes);

}  // namespace
}  // namespace b2b::core
