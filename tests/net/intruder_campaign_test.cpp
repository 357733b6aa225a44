// Coverage-guided adversarial campaign against the socket runtime
// (DESIGN.md §11): an in-process MITM proxy (net::IntruderProxy) is
// interposed on the byte streams of real deployments and plays scripted
// and seeded-random games — replay (same and cross incarnation),
// reorder, truncation, unsigned-field mutation, hostile lengths — while
// the paper's safety oracles are asserted after every run:
//
//   * the agreed tuples, group tuples and object values are IDENTICAL
//     to a clean run of the same script (no invalid state installed);
//   * no honest party is blamed (violations_detected() == 0 everywhere);
//   * every party's evidence chain still verifies;
//   * liveness is restored once the intruder goes passive.
//
// The campaign seed comes from B2B_INTRUDER_SEED (default 11); CI sweeps
// several seeds. A failing schedule replays exactly under its seed.
#include "net/intruder_proxy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "b2b/arbiter.hpp"
#include "b2b/federation.hpp"
#include "net/reactor_runtime.hpp"
#include "tests/support/runtime_param.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;

/// Campaign seed: B2B_INTRUDER_SEED in the environment, default 11.
std::uint64_t intruder_seed() {
  const char* seed = std::getenv("B2B_INTRUDER_SEED");
  return seed != nullptr ? std::strtoull(seed, nullptr, 10) : 11;
}

/// Spin until `predicate` holds or `timeout` elapses; true on success.
bool wait_for(const std::function<bool()>& predicate,
              std::chrono::milliseconds timeout = 20'000ms) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return predicate();
}

/// A thread-safe payload sink (handlers run on runtime threads).
struct Sink {
  mutable std::mutex mutex;
  std::vector<Bytes> received;

  net::Transport::Handler handler() {
    return [this](const PartyId&, const Bytes& payload) {
      std::lock_guard<std::mutex> lock(mutex);
      received.push_back(payload);
    };
  }

  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mutex);
    return received.size();
  }

  std::multiset<Bytes> contents() const {
    std::lock_guard<std::mutex> lock(mutex);
    return {received.begin(), received.end()};
  }
};

// --- transport stacks the scripted games are parameterized over -------------

/// Reactor transports on a loop and pool each, sharing only the
/// directory: parties that meet over nothing but TCP, as separately
/// deployed nodes do. A restarted party comes back on a fresh loop.
struct TcpStack {
  struct Loop {
    net::Reactor reactor;
    std::shared_ptr<net::TaskPool> pool = std::make_shared<net::TaskPool>(1);
  };

  std::shared_ptr<net::PeerDirectory> directory =
      std::make_shared<net::PeerDirectory>();
  std::vector<std::unique_ptr<Loop>> loops;
  net::ReactorTransport::Config config;

  TcpStack() {
    config.retransmit_interval_micros = 5'000;  // keep the games brisk
    config.reconnect_backoff_min_micros = 5'000;
    config.reconnect_backoff_max_micros = 50'000;
  }

  std::unique_ptr<net::ReactorTransport> make(const std::string& name,
                                              std::uint16_t port = 0) {
    loops.push_back(std::make_unique<Loop>());
    auto transport = std::make_unique<net::ReactorTransport>(
        PartyId{name}, "127.0.0.1", port, directory, config,
        loops.back()->reactor, loops.back()->pool);
    directory->set(PartyId{name},
                   net::PeerAddress{"127.0.0.1", transport->port()});
    return transport;
  }
};

/// Reactor transports sharing one epoll loop, one pool, one directory.
struct ReactorStack {
  std::shared_ptr<net::PeerDirectory> directory =
      std::make_shared<net::PeerDirectory>();
  net::Reactor reactor;
  std::shared_ptr<net::TaskPool> pool = std::make_shared<net::TaskPool>(2);
  net::ReactorTransport::Config config;

  ReactorStack() {
    config.retransmit_interval_micros = 5'000;  // keep the games brisk
    config.reconnect_backoff_min_micros = 5'000;
    config.reconnect_backoff_max_micros = 50'000;
  }

  std::unique_ptr<net::ReactorTransport> make(const std::string& name,
                                              std::uint16_t port = 0) {
    auto transport = std::make_unique<net::ReactorTransport>(
        PartyId{name}, "127.0.0.1", port, directory, config, reactor, pool);
    directory->set(PartyId{name},
                   net::PeerAddress{"127.0.0.1", transport->port()});
    return transport;
  }
};

// --- scripted game 1: truncation storm ---------------------------------------

/// Truncate the FIRST offer of every fifth sequence number mid-frame
/// (killing the connection each time); retransmission over the re-dialed
/// connection must still deliver everything exactly once. Truncating
/// only the first offer matters: a script that truncated every offer of
/// a seq would defeat its own recovery path forever.
template <typename Stack>
void run_truncation_storm() {
  Stack stack;

  net::IntruderProxy::Config config;
  auto torn = std::make_shared<std::set<std::uint64_t>>();
  auto torn_mutex = std::make_shared<std::mutex>();
  config.script = [torn, torn_mutex](const net::FrameInfo& info)
      -> std::optional<net::IntruderAction> {
    if (info.to_victim && info.frame_type == net::frame::kData &&
        info.seq % 5 == 4) {
      std::lock_guard<std::mutex> lock(*torn_mutex);
      if (torn->insert(info.seq).second) return net::IntruderAction::kTruncate;
    }
    return net::IntruderAction::kForward;
  };
  net::IntruderProxy proxy{stack.directory, config};

  auto b = stack.make("b");
  Sink sink;
  b->set_handler(sink.handler());
  proxy.interpose(PartyId{"b"});
  auto a = stack.make("a");

  std::multiset<Bytes> want;
  for (int i = 0; i < 50; ++i) {
    Bytes payload{static_cast<std::uint8_t>(i)};
    want.insert(payload);
    a->send(PartyId{"b"}, payload);
  }

  ASSERT_TRUE(wait_for([&] { return sink.count() == 50; }));
  EXPECT_EQ(sink.contents(), want);
  EXPECT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  EXPECT_EQ(proxy.stats().truncated, 10u);
  EXPECT_GE(a->stats().retransmissions, 1u);
  // Every truncation folds the intercepted pair; the sender re-dialed.
  EXPECT_GE(proxy.stats().connections_intercepted, 11u);
  proxy.shutdown();
}

TEST(IntruderScriptedGames, TruncationStormHealsTcp) {
  run_truncation_storm<TcpStack>();
}

TEST(IntruderScriptedGames, TruncationStormHealsReactor) {
  run_truncation_storm<ReactorStack>();
}

// --- scripted game 2: cross-incarnation replay campaign ----------------------

/// Replay a recorded frame after every genuine data frame, restarting
/// the sender mid-campaign so the arsenal holds frames from a dead
/// incarnation. Wire v2's incarnation binding must suppress every
/// re-injection (replays_suppressed / connection reset) without losing
/// or duplicating a single genuine payload.
template <typename Stack>
void run_cross_incarnation_replay() {
  Stack stack;

  net::IntruderProxy::Config config;
  config.script = [](const net::FrameInfo& info)
      -> std::optional<net::IntruderAction> {
    if (info.to_victim && info.frame_type == net::frame::kData) {
      return net::IntruderAction::kReplay;
    }
    return net::IntruderAction::kForward;
  };
  net::IntruderProxy proxy{stack.directory, config};

  auto b = stack.make("b");
  Sink sink;
  b->set_handler(sink.handler());
  proxy.interpose(PartyId{"b"});

  auto a = stack.make("a");
  const std::uint16_t a_port = a->port();

  std::multiset<Bytes> want;
  for (int i = 0; i < 5; ++i) {
    Bytes payload{static_cast<std::uint8_t>(i)};
    want.insert(payload);
    a->send(PartyId{"b"}, payload);
  }
  ASSERT_TRUE(wait_for([&] { return sink.count() == 5; }));
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));

  // Restart the sender on its pinned port: a fresh incarnation. The
  // recorded inc-1 frames are now cross-incarnation ammunition, and the
  // proxy's replay cursor cycles the whole arsenal.
  a.reset();
  a = stack.make("a", a_port);

  std::size_t extra = 0;
  bool covered = false;
  for (int batch = 0; batch < 20 && !covered; ++batch) {
    for (int i = 0; i < 5; ++i) {
      Bytes payload{static_cast<std::uint8_t>(100 + extra++)};
      want.insert(payload);
      a->send(PartyId{"b"}, payload);
    }
    ASSERT_TRUE(wait_for([&] { return sink.count() == 5 + extra; }))
        << "batch " << batch << " lost traffic under replay storm";
    covered = proxy.stats().replayed_cross_incarnation > 0 &&
              b->stats().replays_suppressed > 0;
  }

  EXPECT_TRUE(covered)
      << "no cross-incarnation replay was provably suppressed: proxy="
      << proxy.stats().replayed_cross_incarnation
      << " receiver=" << b->stats().replays_suppressed;
  EXPECT_EQ(sink.contents(), want);  // exactly once, despite the storm
  EXPECT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  proxy.shutdown();
}

TEST(IntruderScriptedGames, CrossIncarnationReplayIsSuppressedTcp) {
  run_cross_incarnation_replay<TcpStack>();
}

TEST(IntruderScriptedGames, CrossIncarnationReplayIsSuppressedReactor) {
  run_cross_incarnation_replay<ReactorStack>();
}

// --- scripted game 3: respond blackout resolved by the TTP -------------------

/// The intruder silently drops every kRespond toward the proposer — the
/// one wire-level attack retransmission cannot heal (the drop repeats).
/// The §7 TTP must certify a consistent ABORT from the proposer's
/// incomplete transcript: both parties roll back, nobody is blamed, and
/// agreement resumes once the intruder goes passive.
TEST(IntruderTtpGame, RespondBlackoutResolvedByCertifiedAbort) {
  const ObjectId kObj{"doc"};

  auto directory = std::make_shared<net::PeerDirectory>();
  core::Federation::Options options;
  options.runtime = core::RuntimeKind::kReactor;
  options.tcp_directory = directory;
  options.reactor_transport.retransmit_interval_micros = 10'000;
  options.reactor_transport.reconnect_backoff_min_micros = 5'000;
  options.reactor_transport.reconnect_backoff_max_micros = 50'000;
  // Journaling on: when the blackout lifts, the stalled responds land
  // on a CLOSED run — with a journal they are answered as anomalies
  // (re-sent decide / recorded oddity), never branded violations.
  const fs::path root = fs::temp_directory_path() / "b2b_intruder_ttp_game";
  fs::remove_all(root);
  options.journal_root = (root / "journals").string();
  options.journal_fsync = false;

  // Registers (and the flag beta's observer sets) before the federation:
  // delivery threads stop first.
  test::TestRegister alpha_obj, beta_obj;
  std::atomic<bool> beta_released{false};
  core::Federation fed{{"alpha", "beta"}, options};

  // Both parties are interposed: connections are reused bidirectionally
  // ("latest handshake wins"), so the respond may ride back on whichever
  // leg exists — only alpha proposes, so every kRespond heads to alpha.
  net::IntruderProxy::Config pconfig;
  pconfig.script = [](const net::FrameInfo& info)
      -> std::optional<net::IntruderAction> {
    if (info.frame_type == net::frame::kData &&
        info.msg_type == static_cast<std::uint8_t>(core::MsgType::kRespond)) {
      return net::IntruderAction::kDrop;
    }
    return net::IntruderAction::kForward;
  };
  net::IntruderProxy proxy{directory, pconfig};
  proxy.interpose(PartyId{"alpha"});
  proxy.interpose(PartyId{"beta"});

  fed.register_object("alpha", kObj, alpha_obj);
  fed.register_object("beta", kObj, beta_obj);
  fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));
  fed.enable_ttp_termination(kObj, 700'000);  // 700 ms real-time deadline
  // beta's lane erases the released responder run, then emits this
  // event. Awaiting it orders the test thread's reads of beta's run table
  // after the erase; polling the table alone would race with the lane.
  fed.coordinator("beta").set_observer([&](const core::CoordEvent& event) {
    if (event.kind == core::CoordEvent::Kind::kStateVetoed &&
        event.detail == "TTP-certified abort") {
      beta_released = true;
    }
  });

  alpha_obj.value = bytes_of("blocked");
  core::RunHandle h =
      fed.coordinator("alpha").propagate_new_state(kObj, alpha_obj.get_state());
  ASSERT_TRUE(fed.run_until_done(h));
  EXPECT_EQ(h->outcome, core::RunResult::Outcome::kAborted);
  EXPECT_EQ(h->diagnostic, "TTP-certified abort");
  EXPECT_GE(fed.termination_ttp().aborts_issued(), 1u);

  // Fail-safe: the proposer rolled back, the locked responder was
  // released by the same verdict, and neither blames the other.
  EXPECT_EQ(alpha_obj.value, bytes_of("genesis"));
  ASSERT_TRUE(wait_for([&] { return beta_released.load(); }));
  ASSERT_TRUE(wait_for([&] {
    return fed.coordinator("beta").replica(kObj).active_run_labels().empty();
  }));
  EXPECT_EQ(beta_obj.value, bytes_of("genesis"));

  // Liveness restored once the intruder goes passive — the stalled
  // responds finally land (late traffic for a closed run is an anomaly,
  // not a violation) and a fresh run agrees.
  proxy.set_active(false);
  alpha_obj.value = bytes_of("after-blackout");
  h = fed.coordinator("alpha").propagate_new_state(kObj,
                                                   alpha_obj.get_state());
  ASSERT_TRUE(fed.run_until_done(h));
  EXPECT_EQ(h->outcome, core::RunResult::Outcome::kAgreed);
  fed.settle();
  EXPECT_EQ(beta_obj.value, bytes_of("after-blackout"));
  EXPECT_EQ(fed.coordinator("alpha").violations_detected(), 0u);
  EXPECT_EQ(fed.coordinator("beta").violations_detected(), 0u);
  EXPECT_TRUE(fed.coordinator("alpha").evidence().verify_chain());
  EXPECT_TRUE(fed.coordinator("beta").evidence().verify_chain());
  proxy.shutdown();
}

// --- scripted game 4: the deal layer under wire attack -----------------------

/// Per-party protocol state a deal game must leave intruder-invariant.
struct DealPartyState {
  Bytes ledger_value;
  Bytes audit_value;
  core::StateTuple ledger_agreed;
  core::GroupTuple ledger_group;
  core::StateTuple audit_agreed;
  core::GroupTuple audit_group;

  friend bool operator==(const DealPartyState&, const DealPartyState&) =
      default;
};

struct DealGameOutcome {
  std::vector<DealPartyState> digest;
  core::DealCoordinator::Stats alpha_deals;
  core::DealCoordinator::Stats beta_deals;
  std::uint64_t ttp_deal_commits = 0;
  std::uint64_t violations = 0;
  bool chains_ok = true;
  std::uint64_t frames_rejected_auth = 0;
  net::IntruderStats stats;
};

/// A fixed sequential deal script (DESIGN.md §12) — a two-leg commit, a
/// vetoed deal, a TTP-escaped commit, and a post-attack commit — over
/// the reactor with a session-authenticated wire, with or without a scripted
/// intruder aimed at the deal layer specifically:
///
///   * every kRespond — the prepares that park deal legs undecided — is
///     replayed after forwarding (the transport must suppress the echo);
///   * every kDealDecision frame is WITHHELD on its first transmission
///     (dropped; retransmission must re-deliver the signed verdict, and
///     parked participants must do nothing until it lands);
///   * every kDealEnlist draws a cross-flow splice — a frame recorded on
///     a DIFFERENT connection injected here, the wire image of showing
///     one deal's artifacts to another deal's participant. On the
///     authenticated wire each splice must die at the receiving
///     transport as frames_rejected_auth.
///
/// The attacked twin must end bit-identical to the clean twin, and no
/// party may be blamed: the wire intruder is not a provable defector —
/// it can only delay or destroy, never forge a signed artifact — so an
/// arbiter ruling from a participant's store alone must still read
/// COMMITTED/ABORTED with an empty blame list.
void run_deal_game(bool attacked, DealGameOutcome* out) {
  const ObjectId kLedger{"ledger"};
  const ObjectId kAudit{"audit"};
  const std::vector<std::string> names{"alpha", "beta", "gamma"};
  const std::string tag =
      std::string("deal_") + (attacked ? "attacked" : "clean");

  const fs::path root = fs::temp_directory_path() / ("b2b_intruder_" + tag);
  fs::remove_all(root);

  auto directory = std::make_shared<net::PeerDirectory>();
  core::Federation::Options options;
  options.runtime = core::RuntimeKind::kReactor;
  options.seed = 1;
  options.tcp_directory = directory;
  options.wire_auth = true;
  // Journaling on: the deal layer assumes the paper's stable storage
  // (§4.4), under which a response straggling in after a decision closed
  // its leg is answered from the journal, never branded a violation.
  options.journal_root = (root / "journals").string();
  options.journal_fsync = false;
  options.run_probe_interval_micros = 3'600'000'000ULL;
  options.reactor_transport.retransmit_interval_micros = 10'000;
  options.reactor_transport.reconnect_backoff_min_micros = 5'000;
  options.reactor_transport.reconnect_backoff_max_micros = 50'000;

  // Registers before the federation: delivery threads stop first.
  std::vector<std::unique_ptr<test::TestRegister>> ledgers, audits;
  for (std::size_t i = 0; i < names.size(); ++i) {
    ledgers.push_back(std::make_unique<test::TestRegister>());
    audits.push_back(std::make_unique<test::TestRegister>());
  }

  core::Federation fed{names, options};

  net::IntruderProxy::Config pconfig;
  auto withheld = std::make_shared<std::set<std::string>>();
  auto withheld_mutex = std::make_shared<std::mutex>();
  pconfig.script = [withheld, withheld_mutex](const net::FrameInfo& info)
      -> std::optional<net::IntruderAction> {
    if (info.frame_type != net::frame::kData) {
      return net::IntruderAction::kForward;
    }
    if (info.msg_type == static_cast<std::uint8_t>(core::MsgType::kRespond)) {
      return net::IntruderAction::kReplay;
    }
    if (info.msg_type ==
        static_cast<std::uint8_t>(core::MsgType::kDealDecision)) {
      // Withhold each decision frame exactly once per flow incarnation:
      // a repeat drop would defeat the retransmission that heals it.
      const std::string key = info.client + ">" + info.victim +
                              (info.to_victim ? ">v:" : ">c:") +
                              std::to_string(info.incarnation) + ":" +
                              std::to_string(info.seq);
      std::lock_guard<std::mutex> lock(*withheld_mutex);
      if (withheld->insert(key).second) return net::IntruderAction::kDrop;
    }
    if (info.msg_type ==
        static_cast<std::uint8_t>(core::MsgType::kDealEnlist)) {
      return net::IntruderAction::kSplice;
    }
    return net::IntruderAction::kForward;
  };
  net::IntruderProxy proxy{directory, pconfig};
  if (attacked) {
    for (const auto& name : names) proxy.interpose(PartyId{name});
  }

  for (std::size_t i = 0; i < names.size(); ++i) {
    fed.register_object(names[i], kLedger, *ledgers[i]);
    fed.register_object(names[i], kAudit, *audits[i]);
  }
  fed.bootstrap_object(kLedger, {"alpha", "beta", "gamma"}, bytes_of("L0"));
  fed.bootstrap_object(kAudit, {"alpha", "beta", "gamma"}, bytes_of("A0"));

  auto state_leg = [](const ObjectId& object, const std::string& value) {
    core::DealCoordinator::LegSpec leg;
    leg.object = object;
    leg.payload = bytes_of(value);
    leg.new_state = bytes_of(value);
    leg.is_update = false;
    return leg;
  };
  auto run_deal = [&](const std::string& who, const std::string& ledger_value,
                      const std::string& audit_value,
                      core::RunResult::Outcome want) -> core::RunHandle {
    core::DealCoordinator::DealSpec spec;
    spec.legs.push_back(state_leg(kLedger, ledger_value));
    spec.legs.push_back(state_leg(kAudit, audit_value));
    core::RunHandle h = fed.start_deal(who, spec);
    if (!fed.run_until_done(h)) {
      ADD_FAILURE() << tag << ": deal by " << who
                    << " blocked (liveness lost)";
      return {};
    }
    EXPECT_EQ(h->outcome, want)
        << tag << ": deal by " << who << ": " << h->diagnostic;
    fed.settle();
    return h;
  };

  // Deal 1: a clean two-leg commit under the replay/withhold/splice storm.
  core::RunHandle d1 =
      run_deal("alpha", "L1", "A1", core::RunResult::Outcome::kAgreed);
  if (!d1) {
    proxy.shutdown();
    return;
  }

  // Deal 2: gamma's audit policy vetoes — every leg must roll back, and
  // the withheld (then retransmitted) signed abort must release the
  // parked clean leg at every participant.
  audits[2]->policy = [](BytesView, const core::ValidationContext&) {
    return core::Decision::rejected("audit says no");
  };
  core::RunHandle d2 =
      run_deal("beta", "L2", "A2", core::RunResult::Outcome::kVetoed);
  audits[2]->policy = nullptr;
  if (!d2) {
    proxy.shutdown();
    return;
  }
  ASSERT_EQ(d2->vetoers.size(), 1u);
  EXPECT_EQ(d2->vetoers[0], PartyId{"gamma"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(ledgers[i]->value, bytes_of("L1")) << tag << " " << names[i];
    EXPECT_EQ(audits[i]->value, bytes_of("A1")) << tag << " " << names[i];
  }

  // Deal 3: the commit is routed through the TTP's atomic registration —
  // the kDealTerminationRequest/Verdict message kinds join the traffic
  // the intruder sees.
  fed.enable_deal_escape();
  core::RunHandle d3 =
      run_deal("alpha", "L3", "A3", core::RunResult::Outcome::kAgreed);
  if (!d3) {
    proxy.shutdown();
    return;
  }

  // Deal 4: intruder passive — liveness must look like it never left.
  proxy.set_active(false);
  core::RunHandle d4 =
      run_deal("beta", "L4", "A4", core::RunResult::Outcome::kAgreed);
  if (!d4) {
    proxy.shutdown();
    return;
  }
  fed.settle();

  // Arbitration from a PARTICIPANT's store alone: the committed deal's
  // legs rule COMMITTED, the vetoed deal's legs rule ABORTED, and the
  // blame list is empty both times — the wire intruder never produced a
  // conflicting signed artifact to pin on anybody.
  core::Arbiter arbiter{fed.make_verifier()};
  std::map<PartyId, crypto::RsaPublicKey> keys;
  for (const auto& name : names) {
    keys.emplace(PartyId{name}, fed.keypair(name).public_key());
  }
  std::optional<core::DealDecisionMsg> committed =
      fed.coordinator("alpha").deals().decision_of(d1->run_label);
  ASSERT_TRUE(committed.has_value()) << tag;
  for (const core::DealLeg& leg : committed->decision.legs) {
    core::Arbiter::DealArbitrationReport report = arbiter.arbitrate_deal(
        fed.coordinator("gamma").evidence(), leg.proposed.label(), keys);
    EXPECT_TRUE(report.enlist_found) << tag << ": " << report.ruling;
    EXPECT_TRUE(report.committed) << tag << ": " << report.ruling;
    EXPECT_FALSE(report.equivocation) << tag << ": " << report.ruling;
    EXPECT_TRUE(report.blamed.empty()) << tag << ": " << report.ruling;
    EXPECT_NE(report.ruling.find("COMMITTED"), std::string::npos)
        << tag << ": " << report.ruling;
  }
  std::optional<core::DealDecisionMsg> aborted =
      fed.coordinator("beta").deals().decision_of(d2->run_label);
  ASSERT_TRUE(aborted.has_value()) << tag;
  for (const core::DealLeg& leg : aborted->decision.legs) {
    core::Arbiter::DealArbitrationReport report = arbiter.arbitrate_deal(
        fed.coordinator("gamma").evidence(), leg.proposed.label(), keys);
    EXPECT_TRUE(report.enlist_found) << tag << ": " << report.ruling;
    EXPECT_FALSE(report.committed) << tag << ": " << report.ruling;
    EXPECT_FALSE(report.equivocation) << tag << ": " << report.ruling;
    EXPECT_TRUE(report.blamed.empty()) << tag << ": " << report.ruling;
    EXPECT_NE(report.ruling.find("ABORTED"), std::string::npos)
        << tag << ": " << report.ruling;
  }

  for (std::size_t i = 0; i < names.size(); ++i) {
    core::Coordinator& coord = fed.coordinator(names[i]);
    out->violations += coord.violations_detected();
    out->chains_ok = out->chains_ok && coord.evidence().verify_chain();
    out->frames_rejected_auth +=
        fed.transport(names[i]).stats().frames_rejected_auth;

    DealPartyState d;
    d.ledger_value = ledgers[i]->value;
    d.audit_value = audits[i]->value;
    const core::Replica& lr = coord.replica(kLedger);
    const core::Replica& ar = coord.replica(kAudit);
    d.ledger_agreed = lr.agreed_tuple();
    d.ledger_group = lr.group_tuple();
    d.audit_agreed = ar.agreed_tuple();
    d.audit_group = ar.group_tuple();
    out->digest.push_back(d);
  }
  out->alpha_deals = fed.coordinator("alpha").deals().stats();
  out->beta_deals = fed.coordinator("beta").deals().stats();
  out->ttp_deal_commits = fed.termination_ttp().deal_commits_issued();
  out->stats = proxy.stats();
  proxy.shutdown();
}

TEST(IntruderDealGame, AttackedDealsMatchCleanTwinExactly) {
  DealGameOutcome clean;
  run_deal_game(/*attacked=*/false, &clean);
  ASSERT_FALSE(::testing::Test::HasFailure()) << "clean reference run failed";

  DealGameOutcome attacked;
  run_deal_game(/*attacked=*/true, &attacked);
  ASSERT_FALSE(::testing::Test::HasFailure()) << "attacked deal run failed";

  // Safety: the intruder changed NOTHING either twin agreed on.
  ASSERT_EQ(clean.digest.size(), attacked.digest.size());
  for (std::size_t i = 0; i < clean.digest.size(); ++i) {
    EXPECT_EQ(clean.digest[i].ledger_value, attacked.digest[i].ledger_value)
        << "party " << i;
    EXPECT_EQ(clean.digest[i].audit_value, attacked.digest[i].audit_value)
        << "party " << i;
    EXPECT_TRUE(clean.digest[i] == attacked.digest[i])
        << "party " << i
        << ": tuples diverged between the clean and attacked deal twins";
  }

  // Identical deal ledgers: same commits, same abort, same TTP verdict.
  EXPECT_EQ(attacked.alpha_deals.started, clean.alpha_deals.started);
  EXPECT_EQ(attacked.alpha_deals.committed, clean.alpha_deals.committed);
  EXPECT_EQ(attacked.alpha_deals.aborted, clean.alpha_deals.aborted);
  EXPECT_EQ(attacked.alpha_deals.ttp_registrations,
            clean.alpha_deals.ttp_registrations);
  EXPECT_EQ(attacked.alpha_deals.ttp_verdicts, clean.alpha_deals.ttp_verdicts);
  EXPECT_EQ(attacked.beta_deals.committed, clean.beta_deals.committed);
  EXPECT_EQ(attacked.beta_deals.aborted, clean.beta_deals.aborted);
  EXPECT_EQ(attacked.ttp_deal_commits, clean.ttp_deal_commits);

  // Nobody was blamed, every chain verifies.
  EXPECT_EQ(clean.violations, 0u);
  EXPECT_EQ(attacked.violations, 0u);
  EXPECT_TRUE(clean.chains_ok);
  EXPECT_TRUE(attacked.chains_ok);

  // The attack actually fought: prepares were replayed, decisions were
  // withheld, and cross-flow splices fired — and every splice died at a
  // receiving transport (zero reached an application: see the digests).
  const auto& s = attacked.stats;
  EXPECT_GT(s.replayed, 0u) << "no prepare was ever replayed";
  EXPECT_GT(s.dropped, 0u) << "no deal decision was ever withheld";
  EXPECT_GT(s.spliced, 0u) << "no cross-flow splice ever fired";
  EXPECT_GT(attacked.frames_rejected_auth, 0u)
      << "no spliced frame was rejected at a transport";
  EXPECT_EQ(clean.frames_rejected_auth, 0u)
      << "a clean authenticated run rejected its own traffic";

  std::cout << "[intruder-deal] frames=" << s.frames_seen
            << " replay=" << s.replayed << " withheld=" << s.dropped
            << " splice=" << s.spliced
            << " transport_rejects=" << attacked.frames_rejected_auth
            << std::endl;
}

// --- the coverage-guided campaign --------------------------------------------

/// Everything a party's protocol state that must be intruder-invariant:
/// compared field-by-field between the attacked and the clean run.
struct PartyDigest {
  Bytes ledger_value;
  Bytes audit_value;
  core::StateTuple ledger_agreed;
  core::GroupTuple ledger_group;
  std::vector<PartyId> ledger_members;
  core::StateTuple audit_agreed;
  core::GroupTuple audit_group;
  std::vector<PartyId> audit_members;

  friend bool operator==(const PartyDigest&, const PartyDigest&) = default;
};

struct CampaignOutcome {
  std::vector<PartyDigest> digest;
  net::IntruderStats stats;
  std::vector<std::string> transitions;
  std::size_t actions = 0;
  std::uint64_t violations = 0;
  bool chains_ok = true;
  std::uint64_t frames_rejected_auth = 0;
  std::uint64_t replays_suppressed = 0;
};

/// One full federation campaign: three organisations, two objects, a
/// fixed sequential script of propose/respond/decide runs, a membership
/// join and a TTP-armed run — with or without the seeded intruder on
/// every party's byte streams. The script is strictly sequential, so a
/// clean and an attacked run of the same seed must end bit-identical.
/// With `auth` the federation session-authenticates its wire (v3 MACs)
/// and the intruder draws the widened arsenal — live rewrites, forged
/// acks, hello downgrades, cross-flow splices — every one of which must
/// die at the receiving transport as frames_rejected_auth.
void run_federation_campaign(core::RuntimeKind kind, std::uint64_t seed,
                             bool attacked, bool auth, CampaignOutcome* out) {
  const ObjectId kLedger{"ledger"};
  const ObjectId kAudit{"audit"};
  const std::vector<std::string> names{"alpha", "beta", "gamma"};

  const std::string tag = test::runtime_suffix(kind) + (auth ? "_auth" : "") +
                          (attacked ? "_attacked_" : "_clean_") +
                          std::to_string(seed);
  const fs::path root =
      fs::temp_directory_path() / ("b2b_intruder_campaign_" + tag);
  fs::remove_all(root);

  auto directory = std::make_shared<net::PeerDirectory>();
  core::Federation::Options options;
  options.runtime = kind;
  options.seed = 1;  // the federation seed is FIXED; only the intruder varies
  options.tcp_directory = directory;
  // Journaling on: an app-level replay that survives transport dedup is
  // then answered from the journal (an anomaly), never blamed.
  options.journal_root = (root / "journals").string();
  options.journal_fsync = false;
  // In-flight-run probes are redundant under a healing transport and
  // would make the clean/attacked rng draws diverge.
  options.run_probe_interval_micros = 3'600'000'000ULL;
  options.reactor_transport.retransmit_interval_micros = 10'000;
  options.reactor_transport.reconnect_backoff_min_micros = 5'000;
  options.reactor_transport.reconnect_backoff_max_micros = 50'000;
  options.wire_auth = auth;

  // Registers before the federation: delivery threads stop first.
  std::vector<std::unique_ptr<test::TestRegister>> ledgers, audits;
  for (std::size_t i = 0; i < names.size(); ++i) {
    ledgers.push_back(std::make_unique<test::TestRegister>());
    audits.push_back(std::make_unique<test::TestRegister>());
  }

  core::Federation fed{names, options};

  net::IntruderProxy::Config pconfig;
  pconfig.schedule.seed = seed;
  pconfig.schedule.action_probability = 0.10;
  pconfig.schedule.max_delay_millis = 10;
  // Only an authenticated wire can detect live forgeries — the widened
  // arsenal is drawn exactly when the federation can be expected to win.
  pconfig.schedule.auth_arsenal = auth;
  net::IntruderProxy proxy{directory, pconfig};
  if (attacked) {
    // Interpose between transport bind and the first dial: every
    // connection in the federation then runs through the intruder.
    for (const auto& name : names) proxy.interpose(PartyId{name});
  }

  for (std::size_t i = 0; i < names.size(); ++i) {
    fed.register_object(names[i], kLedger, *ledgers[i]);
    fed.register_object(names[i], kAudit, *audits[i]);
  }
  fed.bootstrap_object(kLedger, {"alpha", "beta"}, bytes_of("ledger-genesis"));
  fed.bootstrap_object(kAudit, {"alpha", "beta", "gamma"},
                       bytes_of("audit-genesis"));

  // On a liveness loss the transport/proxy counters say where frames
  // died (sender gave up? receiver rejecting? proxy holding?) — dump
  // them into the failure so a CI wedge is diagnosable post-mortem.
  auto dump_wedge = [&](const std::string& what) {
    // Two samples 2 s apart: growing counters show what is still
    // moving (retransmit ticks? bytes? proxy frames?) at wedge time.
    for (int sample = 0; sample < 2; ++sample) {
      if (sample > 0) std::this_thread::sleep_for(2s);
      std::cout << "[wedge:" << sample << "] " << tag << " during: " << what
                << "\n";
      for (const auto& name : names) {
        const auto s = fed.transport(name).stats();
        std::cout << "[wedge:" << sample << "] " << name
                  << " unacked=" << fed.transport(name).unacked()
                  << " sent=" << s.app_sent << " delivered=" << s.app_delivered
                  << " retx=" << s.retransmissions << " acks=" << s.acks_sent
                  << " bytes_out=" << s.bytes_sent
                  << " bytes_in=" << s.bytes_received
                  << " dup_supp=" << s.duplicates_suppressed
                  << " rej_auth=" << s.frames_rejected_auth
                  << " replay_supp=" << s.replays_suppressed
                  << " crc_drop=" << s.frames_dropped_crc
                  << " connects=" << s.connects
                  << " reconnects=" << s.reconnects << "\n";
      }
      const auto p = proxy.stats();
      std::cout << "[wedge:" << sample
                << "] proxy pairs=" << p.connections_intercepted
                << " frames=" << p.frames_seen << " fwd=" << p.forwarded
                << " drop=" << p.dropped << " delay=" << p.delayed
                << " dup=" << p.duplicated << " reorder=" << p.reordered
                << " replay=" << p.replayed << " trunc=" << p.truncated
                << " mutate=" << p.mutated << " rewrite=" << p.rewritten
                << " forge_ack=" << p.acks_forged
                << " downgrade=" << p.downgraded << " splice=" << p.spliced
                << std::endl;
    }
  };
  auto agreed = [&](core::RunHandle h, const std::string& what) -> bool {
    if (!fed.run_until_done(h)) {
      dump_wedge(what);
      ADD_FAILURE() << tag << ": " << what << " blocked (liveness lost)";
      return false;
    }
    if (h->outcome != core::RunResult::Outcome::kAgreed) {
      ADD_FAILURE() << tag << ": " << what
                    << " did not agree: " << h->diagnostic;
      return false;
    }
    // The script is strictly sequential: wait until every responder has
    // processed the decide before the next proposer moves.
    fed.settle();
    return true;
  };
  auto propose = [&](const std::string& who, const ObjectId& obj,
                     test::TestRegister& reg, const std::string& value) {
    reg.value = bytes_of(value);
    return agreed(fed.coordinator(who).propagate_new_state(obj, reg.value),
                  who + " proposes " + value);
  };

  // Phase 1: plain propose/respond/decide traffic on both objects.
  if (!propose("alpha", kLedger, *ledgers[0], "L1")) return;
  if (!propose("beta", kLedger, *ledgers[1], "L2")) return;
  if (!propose("beta", kAudit, *audits[1], "A1")) return;
  if (!propose("gamma", kAudit, *audits[2], "A2")) return;
  if (!propose("alpha", kAudit, *audits[0], "A3")) return;

  // Phase 2: membership — gamma joins the ledger through beta, then
  // both the newcomer and an old member drive runs of the grown group.
  if (!agreed(fed.coordinator("gamma").propagate_connect(kLedger,
                                                         PartyId{"beta"}),
              "gamma joins ledger")) {
    return;
  }
  if (!propose("gamma", kLedger, *ledgers[2], "L3")) return;
  if (!propose("alpha", kLedger, *ledgers[0], "L4")) return;

  // The update variant rides the same runs with a different body shape.
  audits[0]->pending_suffix = bytes_of("+u");
  audits[0]->value = bytes_of("A3+u");
  if (!agreed(fed.coordinator("alpha").propagate_update(
                  kAudit, audits[0]->get_update(), audits[0]->get_state()),
              "alpha updates audit")) {
    return;
  }

  // Phase 3: a TTP-armed run. The deadline is far beyond the healing
  // time of any wire attack, so the TTP stays quiet — the armed path
  // (extra message kinds, deadline plumbing) is what is under fire.
  fed.enable_ttp_termination(kAudit, 30'000'000);
  if (!propose("beta", kAudit, *audits[1], "A4")) return;

  // Phase 4: intruder passive — liveness and agreement must look
  // exactly like they never left.
  proxy.set_active(false);
  if (!propose("beta", kLedger, *ledgers[1], "L5")) return;
  if (!propose("gamma", kAudit, *audits[2], "A5")) return;
  fed.settle();

  for (std::size_t i = 0; i < names.size(); ++i) {
    core::Coordinator& coord = fed.coordinator(names[i]);
    out->violations += coord.violations_detected();
    out->chains_ok = out->chains_ok && coord.evidence().verify_chain();
    const auto s = fed.transport(names[i]).stats();
    out->frames_rejected_auth += s.frames_rejected_auth;
    out->replays_suppressed += s.replays_suppressed;

    PartyDigest d;
    d.ledger_value = ledgers[i]->value;
    d.audit_value = audits[i]->value;
    const core::Replica& lr = coord.replica(kLedger);
    const core::Replica& ar = coord.replica(kAudit);
    d.ledger_agreed = lr.agreed_tuple();
    d.ledger_group = lr.group_tuple();
    d.ledger_members = lr.members();
    d.audit_agreed = ar.agreed_tuple();
    d.audit_group = ar.group_tuple();
    d.audit_members = ar.members();
    out->digest.push_back(d);
  }
  out->stats = proxy.stats();
  out->transitions = proxy.transitions_covered();
  out->actions = proxy.actions_taken();
  proxy.shutdown();
}

/// (socket runtime, session-authenticated wire?) — the campaign matrix.
class IntruderCampaign
    : public ::testing::TestWithParam<std::tuple<core::RuntimeKind, bool>> {};

TEST_P(IntruderCampaign, AttackedFederationMatchesCleanRunExactly) {
  const auto [kind, auth] = GetParam();
  const std::uint64_t seed = intruder_seed();

  CampaignOutcome clean;
  run_federation_campaign(kind, seed, /*attacked=*/false, auth, &clean);
  ASSERT_FALSE(::testing::Test::HasFailure()) << "clean reference run failed";

  CampaignOutcome attacked;
  run_federation_campaign(kind, seed, /*attacked=*/true, auth, &attacked);
  ASSERT_FALSE(::testing::Test::HasFailure())
      << "attacked run failed under seed " << seed;

  // Safety: the intruder changed NOTHING the protocol agreed on.
  ASSERT_EQ(clean.digest.size(), attacked.digest.size());
  for (std::size_t i = 0; i < clean.digest.size(); ++i) {
    EXPECT_EQ(clean.digest[i].ledger_value, attacked.digest[i].ledger_value)
        << "party " << i;
    EXPECT_EQ(clean.digest[i].audit_value, attacked.digest[i].audit_value)
        << "party " << i;
    EXPECT_TRUE(clean.digest[i] == attacked.digest[i])
        << "party " << i
        << ": tuples/membership diverged between clean and attacked runs";
  }
  // No honest party was blamed, and every evidence chain verifies.
  EXPECT_EQ(clean.violations, 0u);
  EXPECT_EQ(attacked.violations, 0u);
  EXPECT_TRUE(attacked.chains_ok);

  // The campaign actually fought: frames flowed through the proxy and
  // the schedule spent adversarial actions on them.
  EXPECT_GT(attacked.stats.frames_seen, 0u);
  EXPECT_GT(attacked.actions, 0u);
  EXPECT_FALSE(attacked.transitions.empty());

  const auto& s = attacked.stats;
  if (auth) {
    // The widened arsenal fired, and every live forgery died at the
    // receiving transport (zero of them reached an application: the
    // digests above are bit-identical to the clean twin).
    EXPECT_GT(s.rewritten + s.acks_forged + s.downgraded + s.spliced, 0u)
        << "the auth arsenal never fired under seed " << seed;
    EXPECT_GT(attacked.frames_rejected_auth, 0u)
        << "no forged/rewritten/spliced frame was rejected at a transport";
    EXPECT_EQ(clean.frames_rejected_auth, 0u)
        << "a clean authenticated run rejected its own traffic";
  }
  // (Without auth the counter still moves — mutated hellos are rejected
  // at the handshake — so only the auth legs pin its behaviour.)

  // Coverage report for EXPERIMENTS.md E21/E22.
  std::cout << "[intruder] seed=" << seed
            << " runtime=" << test::runtime_suffix(kind)
            << " auth=" << (auth ? 1 : 0) << " frames=" << s.frames_seen
            << " actions=" << attacked.actions << " (drop=" << s.dropped
            << " delay=" << s.delayed << " dup=" << s.duplicated
            << " reorder=" << s.reordered << " replay=" << s.replayed
            << " xinc=" << s.replayed_cross_incarnation
            << " trunc=" << s.truncated << " mutate=" << s.mutated
            << " rewrite=" << s.rewritten << " forge_ack=" << s.acks_forged
            << " downgrade=" << s.downgraded << " splice=" << s.spliced << ")"
            << " transport_rejects=" << attacked.frames_rejected_auth
            << " transport_replay_suppressed=" << attacked.replays_suppressed
            << "\n[intruder] transitions covered ("
            << attacked.transitions.size() << "):";
  for (const auto& t : attacked.transitions) std::cout << " " << t;
  std::cout << std::endl;
}

INSTANTIATE_TEST_SUITE_P(
    Sockets, IntruderCampaign,
    ::testing::Combine(::testing::Values(core::RuntimeKind::kReactor),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<core::RuntimeKind, bool>>&
           info) {
      return test::runtime_suffix(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Auth" : "");
    });

}  // namespace
}  // namespace b2b
