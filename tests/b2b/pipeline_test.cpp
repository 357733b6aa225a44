// Run pipelining (DESIGN.md §13): the cross-runtime equivalence battery,
// the batch crash-point campaign, and the adversarial batch/anchor tests.
//
// The battery's core claim: a pipelined batch of K state changes — one
// signed propose carrying a hash-chained batch, one signed response per
// recipient, one decide revealing every per-item authenticator — installs
// a tuple sequence BIT-FOR-BIT identical to what K sequential runs would
// have produced, on all four runtimes and under both lock modes. The
// fingerprints deliberately mix only protocol-observable state (agreed
// tuples, group tuples, object values), never evidence-log sizes: the two
// modes legitimately produce different evidence volumes.
//
// CI sweeps the battery under several seeds via B2B_PIPELINE_SEED.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "b2b/arbiter.hpp"
#include "b2b/federation.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "tests/support/anchoring.hpp"
#include "tests/support/crash_points.hpp"
#include "tests/support/golden_digest.hpp"
#include "tests/support/runtime_param.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

namespace fs = std::filesystem;

const ObjectId kObj{"ledger"};

/// CI sweeps the battery under several seeds via this env var.
std::uint64_t pipeline_seed() {
  const char* seed = std::getenv("B2B_PIPELINE_SEED");
  return seed != nullptr ? std::strtoull(seed, nullptr, 10) : 1;
}

std::string fresh_journal_root(const std::string& tag) {
  fs::path root = fs::temp_directory_path() / ("b2b_pipeline_" + tag);
  fs::remove_all(root);
  return root.string();
}

/// Three organisations sharing one object, pipelining enabled.
struct Parties {
  // Registers are declared before (destroyed after) the federation, so
  // the runtime's delivery threads stop before the objects they write
  // into die.
  TestRegister alpha_obj;
  TestRegister beta_obj;
  TestRegister gamma_obj;
  Federation fed;

  Parties(Federation::Options options)
      : fed({"alpha", "beta", "gamma"}, options) {
    fed.register_object("alpha", kObj, alpha_obj);
    fed.register_object("beta", kObj, beta_obj);
    fed.register_object("gamma", kObj, gamma_obj);
    fed.bootstrap_object(kObj, {"alpha", "beta", "gamma"},
                         bytes_of("genesis"));
  }

  TestRegister& obj(const std::string& name) {
    if (name == "alpha") return alpha_obj;
    if (name == "beta") return beta_obj;
    return gamma_obj;
  }

  /// Agree an initial state so the deployment has validated state.
  void warm_up() {
    alpha_obj.value = bytes_of("warm");
    RunHandle h = fed.coordinator("alpha").propagate_new_state(
        kObj, alpha_obj.get_state());
    ASSERT_TRUE(fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
    fed.settle();
  }

  void check_safety() {
    const StateTuple& agreed =
        fed.coordinator("alpha").replica(kObj).agreed_tuple();
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = fed.coordinator(name);
      EXPECT_EQ(coord.replica(kObj).agreed_tuple(), agreed) << name;
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
    EXPECT_EQ(alpha_obj.value, beta_obj.value);
    EXPECT_EQ(alpha_obj.value, gamma_obj.value);
  }

  /// Fingerprint of everything the protocol agrees on: agreed + group
  /// tuples and object values at every party. Deliberately does NOT mix
  /// evidence-log sizes or tails — pipelined and sequential execution
  /// legitimately write different evidence volumes.
  std::string state_digest() {
    crypto::Sha256 hasher;
    auto mix = [&](const Bytes& bytes) {
      const std::uint64_t n = bytes.size();
      Bytes len(8);
      for (int i = 0; i < 8; ++i) {
        len[i] = static_cast<std::uint8_t>(n >> (8 * i));
      }
      hasher.update(len);
      hasher.update(bytes);
    };
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = fed.coordinator(name);
      mix(coord.replica(kObj).agreed_tuple().encode());
      mix(coord.replica(kObj).group_tuple().encode());
      mix(obj(name).value);
    }
    return to_hex(crypto::digest_bytes(hasher.finish()));
  }
};

/// The canonical mixed batch: an overwrite followed by two updates.
std::vector<Replica::BatchOp> mixed_batch() {
  std::vector<Replica::BatchOp> ops;
  ops.push_back({false, bytes_of("v1"), bytes_of("v1")});
  ops.push_back({true, bytes_of("+x"), bytes_of("v1+x")});
  ops.push_back({true, bytes_of("+y"), bytes_of("v1+x+y")});
  return ops;
}

// ---------------------------------------------------------------------------
// The cross-runtime equivalence battery
// ---------------------------------------------------------------------------

class PipelineEquivalence : public test::RuntimeParamTest {};

// One federation runs the canonical scenario as K sequential runs, a twin
// federation (same seed) runs it as ONE pipelined batch. The installed
// tuples must be bit-for-bit identical: the batch proposer draws its K
// authenticators in exactly the order K sequential proposals would have,
// so even the rand_hash commitments agree.
TEST_P(PipelineEquivalence, BatchMatchesSequentialBitForBit) {
  const std::uint64_t seed = pipeline_seed();

  Federation::Options seq_options = options(seed);
  Parties sequential(seq_options);
  sequential.warm_up();
  // Sequential proposers pre-mutate (invariant 2), as a Controller would.
  sequential.alpha_obj.value = bytes_of("v1");
  RunHandle s1 = sequential.fed.coordinator("alpha").propagate_new_state(
      kObj, sequential.alpha_obj.get_state());
  ASSERT_TRUE(sequential.fed.run_until_done(s1));
  ASSERT_EQ(s1->outcome, RunResult::Outcome::kAgreed) << s1->diagnostic;
  sequential.fed.settle();
  for (const char* suffix : {"+x", "+y"}) {
    TestRegister& reg = sequential.alpha_obj;
    reg.pending_suffix = bytes_of(suffix);
    reg.value.insert(reg.value.end(), reg.pending_suffix.begin(),
                     reg.pending_suffix.end());
    RunHandle h = sequential.fed.coordinator("alpha").propagate_update(
        kObj, reg.get_update(), reg.get_state());
    ASSERT_TRUE(sequential.fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
    sequential.fed.settle();
  }
  sequential.check_safety();

  Federation::Options batch_options = options(seed);
  batch_options.pipeline = true;
  Parties pipelined(batch_options);
  pipelined.warm_up();
  // Batch proposers do NOT pre-mutate: the replica applies the final
  // state itself once the batch validates.
  RunHandle b = pipelined.fed.coordinator("alpha").propagate_batch(
      kObj, mixed_batch());
  ASSERT_TRUE(pipelined.fed.run_until_done(b));
  ASSERT_EQ(b->outcome, RunResult::Outcome::kAgreed) << b->diagnostic;
  pipelined.fed.settle();
  pipelined.check_safety();

  // Bit-for-bit: the full agreed tuple (sequence, rand_hash commitment,
  // state hash) — not just the value — matches the sequential twin.
  EXPECT_EQ(pipelined.fed.coordinator("alpha").replica(kObj).agreed_tuple(),
            sequential.fed.coordinator("alpha").replica(kObj).agreed_tuple());
  EXPECT_EQ(pipelined.alpha_obj.value, bytes_of("v1+x+y"));
  EXPECT_EQ(pipelined.state_digest(), sequential.state_digest());

  // The whole point: K state changes for ONE propose/decide round. The
  // sequential twin paid one signed propose per change.
  const auto seq_stats = sequential.fed.coordinator("alpha").protocol_stats();
  const auto bat_stats = pipelined.fed.coordinator("alpha").protocol_stats();
  EXPECT_EQ(seq_stats.sent_by_type.at(MsgType::kPropose), 4u * 2u);
  EXPECT_EQ(bat_stats.sent_by_type.at(MsgType::kBatchPropose), 2u);
  EXPECT_EQ(bat_stats.sent_by_type.at(MsgType::kBatchDecide), 2u);
}

// A responder's veto kills the WHOLE batch: nothing is installed at
// anyone, the proposer rolls back, and no violation is recorded (a veto
// is legitimate policy, not misbehaviour).
TEST_P(PipelineEquivalence, VetoedBatchInstallsNothing) {
  Federation::Options opts = options(pipeline_seed());
  opts.pipeline = true;
  Parties p(opts);
  p.warm_up();
  p.beta_obj.policy = [](BytesView proposed, const ValidationContext&) {
    std::string value(proposed.begin(), proposed.end());
    return value.find("poison") != std::string::npos
               ? Decision::rejected("poisoned value")
               : Decision::accepted();
  };

  std::vector<Replica::BatchOp> ops;
  ops.push_back({false, bytes_of("fine"), bytes_of("fine")});
  ops.push_back({false, bytes_of("poison"), bytes_of("poison")});
  RunHandle h = p.fed.coordinator("alpha").propagate_batch(kObj, ops);
  ASSERT_TRUE(p.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kVetoed);
  p.fed.settle();

  EXPECT_EQ(p.alpha_obj.value, bytes_of("warm"));
  EXPECT_EQ(p.fed.coordinator("alpha").replica(kObj).agreed_tuple().sequence,
            1u);
  p.check_safety();
}

// A vetoed run still advances every party's sequence counter past the
// agreed sequence, so the next run's first item lands above agreed + 1.
// §4.4 only asks that a run advance past the agreed state: a batch that
// follows a veto must agree, and nobody may blame the honest proposer.
TEST_P(PipelineEquivalence, BatchAfterVetoedRunAgrees) {
  Federation::Options opts = options(pipeline_seed());
  opts.pipeline = true;
  Parties p(opts);
  p.warm_up();
  p.beta_obj.policy = [](BytesView proposed, const ValidationContext&) {
    return std::string(proposed.begin(), proposed.end()) == "vetoed"
               ? Decision::rejected("beta vetoes")
               : Decision::accepted();
  };
  p.alpha_obj.value = bytes_of("vetoed");
  RunHandle vetoed = p.fed.coordinator("alpha").propagate_new_state(
      kObj, p.alpha_obj.get_state());
  ASSERT_TRUE(p.fed.run_until_done(vetoed));
  ASSERT_EQ(vetoed->outcome, RunResult::Outcome::kVetoed);
  p.fed.settle();
  p.beta_obj.policy = nullptr;

  RunHandle h = p.fed.coordinator("alpha").propagate_batch(kObj,
                                                           mixed_batch());
  ASSERT_TRUE(p.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
  p.fed.settle();
  EXPECT_EQ(p.alpha_obj.value, bytes_of("v1+x+y"));
  p.check_safety();  // identical tuples and zero violations everywhere
}

// Every party's anchored evidence log validates offline: the arbiter,
// holding only the signer's public key, confirms the chain and every
// signed chain-head anchor its closed runs appended.
TEST_P(PipelineEquivalence, EvidenceAnchorsValidateOffline) {
  Federation::Options opts = options(pipeline_seed());
  opts.pipeline = true;
  Parties p(opts);
  p.warm_up();
  RunHandle h = p.fed.coordinator("alpha").propagate_batch(kObj,
                                                           mixed_batch());
  ASSERT_TRUE(p.fed.run_until_done(h));
  ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
  p.fed.settle();
  p.check_safety();

  for (const std::string name : {"alpha", "beta", "gamma"}) {
    Coordinator& coord = p.fed.coordinator(name);
    const Arbiter::AnchorReport report = Arbiter::verify_anchored_spans(
        coord.evidence(), coord.public_key());
    EXPECT_TRUE(report.chain_intact) << name;
    EXPECT_GT(report.anchors_seen, 0u) << name;
    EXPECT_TRUE(report.all_anchors_valid)
        << name << ": "
        << (report.problems.empty() ? "" : report.problems.front());
    EXPECT_TRUE(report.highest_anchored_index.has_value()) << name;
  }
}

B2B_INSTANTIATE_RUNTIME_SUITE(PipelineEquivalence);

// The LockMode ablation: on the deterministic simulator the pipelined
// scenario's outcome digest is identical under per-object and coarse
// locking (sharding must not change what a batch agrees on).
TEST(PipelineLockModeAblation, CoarseAndPerObjectAgree) {
  const std::uint64_t seed = pipeline_seed();
  std::string digests[2];
  const Coordinator::LockMode modes[2] = {Coordinator::LockMode::kPerObject,
                                          Coordinator::LockMode::kCoarse};
  for (int i = 0; i < 2; ++i) {
    Federation::Options opts =
        test::runtime_options(RuntimeKind::kSim, seed);
    opts.pipeline = true;
    opts.lock_mode = modes[i];
    Parties p(opts);
    p.warm_up();
    RunHandle h = p.fed.coordinator("alpha").propagate_batch(kObj,
                                                             mixed_batch());
    ASSERT_TRUE(p.fed.run_until_done(h));
    ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
    p.fed.settle();
    p.check_safety();
    digests[i] = p.state_digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

// A batch of one IS the paper's §4.3 run: the plain propose/respond/decide
// messages go on the wire (no kBatch* message), the installed tuple is
// bit-identical to propagate_new_state's at the same seed, and an arbiter
// holding only the public keys rules the run agreed from the proposer's
// message store.
TEST(PipelineSingleItem, BatchOfOneIsThePapersRun) {
  const std::uint64_t seed = pipeline_seed();
  Federation::Options opts = test::runtime_options(RuntimeKind::kSim, seed);
  opts.pipeline = true;

  Parties plain(opts);
  plain.warm_up();
  plain.alpha_obj.value = bytes_of("solo");
  RunHandle s = plain.fed.coordinator("alpha").propagate_new_state(
      kObj, plain.alpha_obj.get_state());
  ASSERT_TRUE(plain.fed.run_until_done(s));
  ASSERT_EQ(s->outcome, RunResult::Outcome::kAgreed) << s->diagnostic;
  plain.fed.settle();

  Parties batched(opts);
  batched.warm_up();
  std::vector<Replica::BatchOp> one;
  one.push_back({false, bytes_of("solo"), bytes_of("solo")});
  RunHandle b = batched.fed.coordinator("alpha").propagate_batch(
      kObj, std::move(one));
  ASSERT_TRUE(batched.fed.run_until_done(b));
  ASSERT_EQ(b->outcome, RunResult::Outcome::kAgreed) << b->diagnostic;
  batched.fed.settle();
  batched.check_safety();

  Coordinator& alpha = batched.fed.coordinator("alpha");
  EXPECT_EQ(alpha.replica(kObj).agreed_tuple(),
            plain.fed.coordinator("alpha").replica(kObj).agreed_tuple());
  EXPECT_EQ(batched.state_digest(), plain.state_digest());

  // Warm-up plus the batch: two plain proposes and decides per run, and
  // not one batch message.
  const auto stats = alpha.protocol_stats();
  EXPECT_EQ(stats.sent_by_type.at(MsgType::kPropose), 4u);
  EXPECT_EQ(stats.sent_by_type.at(MsgType::kDecide), 4u);
  EXPECT_FALSE(stats.sent_by_type.contains(MsgType::kBatchPropose));
  EXPECT_FALSE(stats.sent_by_type.contains(MsgType::kBatchDecide));

  Arbiter arbiter(batched.fed.make_verifier());
  const std::vector<PartyId> recipients = {PartyId{"beta"}, PartyId{"gamma"}};
  ArbitrationReport report = arbiter.arbitrate(
      alpha.messages(), b->run_label, &recipients);
  EXPECT_TRUE(report.proposal_found) << report.ruling;
  EXPECT_TRUE(report.decide_found) << report.ruling;
  EXPECT_TRUE(report.verdict.agreed) << report.ruling;
}

// ---------------------------------------------------------------------------
// Golden-digest determinism for pipelined runs
// ---------------------------------------------------------------------------

// Frozen fingerprints of the pipelined scenario below at seed 37 (captured
// on the deterministic simulator while single runs and batches still had
// separate code paths; both coordinator lock modes must match). They give
// K >= 2 the bit-for-bit oracle that kGoldenPlain (sharding_test.cpp) and
// kDealGolden* (deal_test.cpp) give single runs. Re-frozen once, when
// trusted stamps moved from every evidence record to one anchor per
// closed run (DESIGN.md §13(c)), which moved every evidence tail; the
// stamp-blind twins below stayed put. Edit them only for a change meant
// to alter the bytes of the evidence log, and only while the stamp-blind
// twins still match.
constexpr char kPipelineGoldenPlain[] =
    "391762ce9468975579cad245434f1dea9d50a760cd4e2cb9d73390b99b66de94";
constexpr char kPipelineGoldenJournaled[] =
    "f75132914cefca4d622ac58db3c97759eef81ba71b0a8e9b9169eb23635b1756";
// Their stamp-blind twins (golden_digest.hpp), frozen while every evidence
// record still carried its own trusted stamp. Never edit them.
constexpr char kPipelineGoldenStampBlindPlain[] =
    "f999d4eb3f5f51eccd700d16dd53d55359a1a9795652e4999331da1091a9bd93";
constexpr char kPipelineGoldenStampBlindJournaled[] =
    "c0d8cfd414cbc8d6eb4f76751530eff658a40de70ed1b937e781fb6d841cb810";

/// A fixed pipelined scenario: warm-up, the mixed batch, a 16-item
/// batch, a vetoed batch and a plain run. The whole deployment (evidence
/// sizes and tails, tuples, values, per-type send counts, executed event
/// count) is hashed.
test::GoldenDigests run_pipeline_golden(Federation::Options options,
                                        const std::string& journal_tag = "") {
  if (!journal_tag.empty()) {
    options.journal_root = fresh_journal_root(journal_tag);
    options.journal_fsync = false;
  }
  options.pipeline = true;

  test::GoldenDigests digests;
  {
    Parties p(options);
    p.warm_up();
    auto drive = [&](const RunHandle& h, RunResult::Outcome outcome) {
      if (!p.fed.run_until_done(h)) {
        ADD_FAILURE() << "pipeline golden run did not terminate";
        return;
      }
      EXPECT_EQ(h->outcome, outcome) << h->diagnostic;
      p.fed.settle();
    };

    drive(p.fed.coordinator("alpha").propagate_batch(kObj, mixed_batch()),
          RunResult::Outcome::kAgreed);

    // Sixteen items at another proposer, overwrites and updates alternating.
    std::vector<Replica::BatchOp> sixteen;
    Bytes value = p.beta_obj.value;
    for (int i = 0; i < 16; ++i) {
      std::string text(1, i % 2 == 0 ? 'k' : '+');
      text += std::to_string(i);
      if (i % 2 == 0) {
        value = bytes_of(text);
        sixteen.push_back({false, value, value});
      } else {
        Bytes suffix = bytes_of(text);
        value.insert(value.end(), suffix.begin(), suffix.end());
        sixteen.push_back({true, suffix, value});
      }
    }
    drive(p.fed.coordinator("beta").propagate_batch(kObj, std::move(sixteen)),
          RunResult::Outcome::kAgreed);

    p.gamma_obj.policy = [](BytesView proposed, const ValidationContext&) {
      std::string text(proposed.begin(), proposed.end());
      return text.find("poison") != std::string::npos
                 ? Decision::rejected("poisoned value")
                 : Decision::accepted();
    };
    std::vector<Replica::BatchOp> vetoed;
    vetoed.push_back({false, bytes_of("fine"), bytes_of("fine")});
    vetoed.push_back({false, bytes_of("poison"), bytes_of("poison")});
    drive(p.fed.coordinator("alpha").propagate_batch(kObj, std::move(vetoed)),
          RunResult::Outcome::kVetoed);
    p.gamma_obj.policy = nullptr;

    p.gamma_obj.value = bytes_of("plain");
    drive(p.fed.coordinator("gamma").propagate_new_state(
              kObj, p.gamma_obj.get_state()),
          RunResult::Outcome::kAgreed);

    test::GoldenHasher hasher;
    auto mix = [&](const Bytes& bytes) { hasher.mix(bytes); };
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = p.fed.coordinator(name);
      const store::EvidenceLog& evidence = coord.evidence();
      EXPECT_TRUE(evidence.verify_chain()) << name;
      hasher.mix_evidence(evidence);
      mix(coord.replica(kObj).agreed_tuple().encode());
      mix(coord.replica(kObj).group_tuple().encode());
      mix(p.obj(name).value);
      for (const auto& [type, count] : coord.protocol_stats().sent_by_type) {
        mix(bytes_of(std::to_string(static_cast<int>(type)) + "=" +
                     std::to_string(count)));
      }
      EXPECT_EQ(coord.violations_detected(), 0u) << name;
    }
    mix(bytes_of(std::to_string(p.fed.scheduler().events_executed())));
    digests = hasher.finish();
  }
  if (!journal_tag.empty()) {
    fs::remove_all(fs::temp_directory_path() / ("b2b_pipeline_" + journal_tag));
  }
  return digests;
}

void expect_pipeline_golden(Federation::Options options,
                            const std::string& tag) {
  const test::GoldenDigests plain = run_pipeline_golden(options);
  EXPECT_EQ(plain.bytes, kPipelineGoldenPlain);
  EXPECT_EQ(plain.stamp_blind, kPipelineGoldenStampBlindPlain);
  const test::GoldenDigests journaled = run_pipeline_golden(options, tag);
  EXPECT_EQ(journaled.bytes, kPipelineGoldenJournaled);
  EXPECT_EQ(journaled.stamp_blind, kPipelineGoldenStampBlindJournaled);
}

TEST(PipelineGolden, PerObjectMatchesFrozenDigest) {
  Federation::Options options = test::runtime_options(RuntimeKind::kSim, 37);
  options.lock_mode = Coordinator::LockMode::kPerObject;
  expect_pipeline_golden(options, "golden_j1");
}

TEST(PipelineGolden, CoarseMatchesFrozenDigest) {
  Federation::Options options = test::runtime_options(RuntimeKind::kSim, 37);
  options.lock_mode = Coordinator::LockMode::kCoarse;
  expect_pipeline_golden(options, "golden_j2");
}

// ---------------------------------------------------------------------------
// The batch crash-point campaign
// ---------------------------------------------------------------------------

Federation::Options campaign_options(const std::string& tag, RuntimeKind kind,
                                     std::uint64_t seed) {
  Federation::Options options = test::runtime_options(kind, seed);
  options.pipeline = true;
  options.journal_root = fresh_journal_root(tag);
  if (kind != RuntimeKind::kSim) {
    options.run_probe_interval_micros = 200'000;
  }
  return options;
}

/// One batch campaign case on the deterministic simulator: arm `point` at
/// `crasher`, open a 3-item batch at alpha, kill the crasher when the
/// point fires, restart it from its journal, and assert safety (identical
/// agreed tuples, intact chains, zero violations) and liveness (the batch
/// terminates — completed, or never-legally-existed for pre-journal
/// points). Returns a deployment fingerprint for the determinism check.
Bytes run_batch_sim_case(const std::string& point, const std::string& crasher,
                         std::uint64_t seed,
                         const std::string& tag_suffix = "") {
  const std::string tag =
      test::sanitized_point(point) + "_" + crasher + tag_suffix;
  Bytes fingerprint;
  {
    Parties p(campaign_options(tag, RuntimeKind::kSim, seed));
    p.warm_up();

    p.fed.coordinator(crasher).arm_crash_point(point);
    std::vector<Replica::BatchOp> ops;
    ops.push_back({false, bytes_of("v1"), bytes_of("v1")});
    ops.push_back({false, bytes_of("v2"), bytes_of("v2")});
    ops.push_back({false, bytes_of("v3"), bytes_of("v3")});
    RunHandle h = p.fed.coordinator("alpha").propagate_batch(kObj,
                                                             std::move(ops));
    EXPECT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator(crasher).crashed(); }))
        << "crash point never hit: " << point;

    p.fed.crash_party(crasher);
    // Bounded downtime: frames to the dead party drop un-acked and keep
    // being retransmitted.
    p.fed.scheduler().run_until(p.fed.scheduler().now() + 300'000);

    Coordinator& revived = p.fed.recover_party(crasher);
    p.fed.register_object(crasher, kObj, p.obj(crasher));
    EXPECT_TRUE(revived.recovered());
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    // A batch killed before its journal barrier never legally existed;
    // anything journaled resumes and finishes — including the
    // half-decided batch ("decide.journaled"), which must finish to the
    // journaled outcome.
    const bool never_existed = point == "propose.pre-journal";
    const std::uint64_t expected_seq = never_existed ? 1u : 4u;
    auto converged = [&] {
      Replica& a = p.fed.coordinator("alpha").replica(kObj);
      Replica& b = p.fed.coordinator("beta").replica(kObj);
      Replica& g = p.fed.coordinator("gamma").replica(kObj);
      return a.agreed_tuple().sequence == expected_seq &&
             a.agreed_tuple() == b.agreed_tuple() &&
             a.agreed_tuple() == g.agreed_tuple() && !a.busy() &&
             !b.busy() && !g.busy();
    };
    EXPECT_TRUE(p.fed.executor().run_until(converged))
        << "deployment did not converge after recovery at " << point;
    for (const RunHandle& r : resumed) EXPECT_TRUE(r->done());
    p.fed.settle();

    const Bytes expected_value =
        never_existed ? bytes_of("warm") : bytes_of("v3");
    EXPECT_EQ(p.alpha_obj.value, expected_value) << point;
    p.check_safety();
    test::expect_fully_anchored(p.fed);

    // Deployment fingerprint for the determinism check: evidence tails
    // (they hash everything before them), agreed tuples, object values,
    // executed event count.
    for (const std::string name : {"alpha", "beta", "gamma"}) {
      Coordinator& coord = p.fed.coordinator(name);
      const store::EvidenceLog& evidence = coord.evidence();
      fingerprint.push_back(static_cast<std::uint8_t>(evidence.size()));
      if (!evidence.empty()) {
        Bytes tail = evidence.at(evidence.size() - 1).encode();
        fingerprint.insert(fingerprint.end(), tail.begin(), tail.end());
      }
      Bytes tuple = coord.replica(kObj).agreed_tuple().encode();
      fingerprint.insert(fingerprint.end(), tuple.begin(), tuple.end());
      const Bytes& value = p.obj(name).value;
      fingerprint.insert(fingerprint.end(), value.begin(), value.end());
    }
    Bytes events =
        bytes_of(std::to_string(p.fed.scheduler().events_executed()));
    fingerprint.insert(fingerprint.end(), events.begin(), events.end());
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_pipeline_" + tag));
  return fingerprint;
}

// A batch is a K-item state run: it passes exactly the proposer and
// responder points a single run passes.
TEST(PipelineCrashCampaign, EveryBatchProposerPoint) {
  for (const std::string& point : test::kProposerPoints) {
    SCOPED_TRACE(point);
    run_batch_sim_case(point, "alpha", test::campaign_seed());
  }
}

TEST(PipelineCrashCampaign, EveryBatchResponderPoint) {
  for (const std::string& point : test::kResponderPoints) {
    SCOPED_TRACE(point);
    run_batch_sim_case(point, "beta", test::campaign_seed());
  }
}

// Recovery is deterministic: the same crash at the same seed reproduces
// the identical post-recovery deployment, bit for bit.
TEST(PipelineCrashCampaign, RecoveryIsDeterministic) {
  for (const std::string point :
       {"decide.journaled", "respond.journaled"}) {
    SCOPED_TRACE(point);
    const std::string crasher =
        point.rfind("respond", 0) == 0 ? "beta" : "alpha";
    Bytes first =
        run_batch_sim_case(point, crasher, test::campaign_seed(), "_a");
    Bytes second =
        run_batch_sim_case(point, crasher, test::campaign_seed(), "_b");
    EXPECT_EQ(first, second);
  }
}

/// A representative batch campaign case on a real-time runtime.
void run_batch_realtime_case(const std::string& point,
                             const std::string& crasher, RuntimeKind kind) {
  const std::string tag = test::sanitized_point(point) + "_" + crasher + "_" +
                          test::runtime_suffix(kind);
  {
    Parties p(campaign_options(tag, kind, /*seed=*/5));
    p.warm_up();

    p.fed.coordinator(crasher).arm_crash_point(point);
    std::vector<Replica::BatchOp> ops;
    ops.push_back({false, bytes_of("v1"), bytes_of("v1")});
    ops.push_back({false, bytes_of("v2"), bytes_of("v2")});
    ops.push_back({false, bytes_of("v3"), bytes_of("v3")});
    RunHandle h = p.fed.coordinator("alpha").propagate_batch(kObj,
                                                             std::move(ops));
    ASSERT_TRUE(p.fed.executor().run_until(
        [&] { return p.fed.coordinator(crasher).crashed(); }));

    p.fed.crash_party(crasher);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    Coordinator& revived = p.fed.recover_party(crasher);
    p.fed.register_object(crasher, kObj, p.obj(crasher));
    EXPECT_TRUE(revived.recovered());
    std::vector<RunHandle> resumed = revived.resume_recovered_runs();

    auto all_done = [&] {
      for (const RunHandle& r : resumed) {
        if (!r->done()) return false;
      }
      // The original handle only resolves when the proposer survives; a
      // crashed proposer's batch continues under its resumed handle.
      return crasher == "alpha" || h->done();
    };
    ASSERT_TRUE(p.fed.executor().run_until(all_done));
    p.fed.settle();

    EXPECT_EQ(p.alpha_obj.value, bytes_of("v3"));
    EXPECT_EQ(
        p.fed.coordinator(crasher).replica(kObj).agreed_tuple().sequence, 4u);
    p.check_safety();
    test::expect_fully_anchored(p.fed);
  }
  fs::remove_all(fs::temp_directory_path() / ("b2b_pipeline_" + tag));
}

TEST(PipelineCrashCampaignThreaded, ProposerCrashAfterBatchDecideJournaled) {
  run_batch_realtime_case("decide.journaled", "alpha",
                          RuntimeKind::kThreaded);
}

TEST(PipelineCrashCampaignThreaded, ResponderCrashAfterBatchRespondJournaled) {
  run_batch_realtime_case("respond.journaled", "beta",
                          RuntimeKind::kThreaded);
}

// ---------------------------------------------------------------------------
// Adversarial batch / anchor tests
// ---------------------------------------------------------------------------

/// mallory's validly signed two-item batch against her current view;
/// `authenticators` (may be null) receives the preimages a genuine decide
/// would reveal.
BatchProposeMsg mallory_batch(Federation& fed,
                              std::vector<Bytes>* authenticators) {
  const Replica& view = fed.coordinator("mallory").replica(kObj);
  crypto::ChaCha20Rng rng{0xbadbadULL};
  BatchProposeMsg msg;
  msg.proposal.proposer = PartyId{"mallory"};
  msg.proposal.object = kObj;
  msg.proposal.group = view.group_tuple();
  msg.proposal.agreed = view.agreed_tuple();
  for (std::uint64_t i = 0; i < 2; ++i) {
    Bytes authenticator = rng.bytes(32);
    BatchItem item;
    item.is_update = false;
    item.payload = bytes_of(i == 0 ? "m0" : "m1");
    item.proposed = StateTuple{view.agreed_tuple().sequence + 1 + i,
                               crypto::Sha256::hash(authenticator),
                               crypto::Sha256::hash(item.payload)};
    msg.items.push_back(std::move(item));
    if (authenticators != nullptr) {
      authenticators->push_back(std::move(authenticator));
    }
  }
  msg.proposal.proposed = msg.items.back().proposed;
  msg.proposal.is_update = true;
  msg.proposal.payload_hash = msg.payload_digest();
  msg.signature = fed.keypair("mallory").sign(msg.signed_bytes());
  return msg;
}

/// Runs the canonical pipelined scenario and returns the state digest;
/// `attack` (may be null) runs after the batch completes but before the
/// digest is taken. The attacked deployment must end bit-identical to the
/// unattacked twin.
std::string run_attacked_twin(std::uint64_t seed,
                              const std::function<void(Parties&)>& attack) {
  Federation::Options opts = test::runtime_options(RuntimeKind::kSim, seed);
  opts.pipeline = true;
  Parties p(opts);
  p.warm_up();
  RunHandle h =
      p.fed.coordinator("alpha").propagate_batch(kObj, mixed_batch());
  EXPECT_TRUE(p.fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
  p.fed.settle();
  if (attack) {
    attack(p);
    p.fed.settle();
  }
  p.check_safety();  // zero violations — no honest party is blamed
  return p.state_digest();
}

// A replayed (stale) batch decide for an already-closed run must be
// inert: no state change, no violation blamed on the honest proposer,
// and the attacked deployment bit-identical to the unattacked twin.
TEST(PipelineAdversarial, ReplayedStaleBatchDecideIsInert) {
  const std::uint64_t seed = pipeline_seed();
  const std::string control = run_attacked_twin(seed, nullptr);
  const std::string attacked = run_attacked_twin(seed, [](Parties& p) {
    // The wire-level replay: beta's stored copy of alpha's batch decide,
    // re-delivered verbatim.
    const std::string label =
        p.fed.coordinator("beta").replica(kObj).agreed_tuple().label();
    Bytes decide_body;
    for (const auto& stored : p.fed.coordinator("beta").messages().run(label)) {
      if (stored.direction == "received" && stored.kind == "batch-decide") {
        decide_body = stored.payload;
      }
    }
    ASSERT_FALSE(decide_body.empty()) << "no stored batch decide to replay";
    Envelope env;
    env.type = MsgType::kBatchDecide;
    env.object = kObj;
    env.body = std::move(decide_body);
    p.fed.transport("alpha").send(PartyId{"beta"}, env.encode());
  });
  EXPECT_EQ(attacked, control);
}

// A dishonest proposer who mutates a batch member AFTER signing the chain
// head is caught by every honest responder: the recomputed chain head no
// longer matches the signed commitment. Honest parties install nothing,
// blame only the attacker, and end bit-identical to a twin that never saw
// the batch.
TEST(PipelineAdversarial, MutatedBatchMemberIsRejectedAndBlamed) {
  const std::uint64_t seed = pipeline_seed();

  auto run_twin = [&](bool attack) {
    TestRegister bob_obj, carol_obj, mallory_obj;
    Federation::Options opts = test::runtime_options(RuntimeKind::kSim, seed);
    opts.pipeline = true;
    Federation fed({"bob", "carol", "mallory"}, opts);
    fed.register_object("bob", kObj, bob_obj);
    fed.register_object("carol", kObj, carol_obj);
    fed.register_object("mallory", kObj, mallory_obj);
    fed.bootstrap_object(kObj, {"bob", "carol", "mallory"},
                         bytes_of("genesis"));
    // Detach mallory's (honest) coordinator from her endpoint; the test
    // now speaks for her.
    fed.transport("mallory").set_handler([](const PartyId&, const Bytes&) {});

    if (attack) {
      BatchProposeMsg msg = mallory_batch(fed, nullptr);
      // The mutation: one batch member's payload is swapped after the
      // chain head was signed.
      msg.items[0].payload = bytes_of("tampered");

      Envelope env;
      env.type = MsgType::kBatchPropose;
      env.object = kObj;
      env.body = msg.encode();
      fed.transport("mallory").send(PartyId{"bob"}, env.encode());
      fed.transport("mallory").send(PartyId{"carol"}, env.encode());
      fed.settle();

      // Both honest parties caught it — and blamed mallory, nobody else.
      for (TestRegister* reg : {&bob_obj, &carol_obj}) {
        std::size_t violations = 0;
        for (const CoordEvent& event : reg->events) {
          if (event.kind != CoordEvent::Kind::kViolationDetected) continue;
          ++violations;
          EXPECT_EQ(event.party, PartyId{"mallory"}) << event.detail;
        }
        EXPECT_GE(violations, 1u);
      }
    }
    fed.settle();
    // The honest twins' protocol state, bit for bit.
    crypto::Sha256 hasher;
    for (const std::string name : {"bob", "carol"}) {
      Coordinator& coord = fed.coordinator(name);
      EXPECT_TRUE(coord.evidence().verify_chain()) << name;
      hasher.update(coord.replica(kObj).agreed_tuple().encode());
      hasher.update(coord.replica(kObj).group_tuple().encode());
    }
    hasher.update(bob_obj.value);
    hasher.update(carol_obj.value);
    return to_hex(crypto::digest_bytes(hasher.finish()));
  };

  EXPECT_EQ(run_twin(true), run_twin(false));
}

/// bob and carol (honest) share the object with mallory, whose own
/// coordinator is detached from her endpoint: the test speaks for her.
struct MalloryFederation {
  TestRegister bob_obj, carol_obj, mallory_obj;
  Federation fed;

  MalloryFederation()
      : fed({"bob", "carol", "mallory"}, [] {
          Federation::Options opts =
              test::runtime_options(RuntimeKind::kSim, pipeline_seed());
          opts.pipeline = true;
          return opts;
        }()) {
    fed.register_object("bob", kObj, bob_obj);
    fed.register_object("carol", kObj, carol_obj);
    fed.register_object("mallory", kObj, mallory_obj);
    fed.bootstrap_object(kObj, {"bob", "carol", "mallory"},
                         bytes_of("genesis"));
    fed.transport("mallory").set_handler([](const PartyId&, const Bytes&) {});
  }

  void send_to_honest(MsgType type, const Bytes& body) {
    Envelope env{type, kObj, body};
    fed.transport("mallory").send(PartyId{"bob"}, env.encode());
    fed.transport("mallory").send(PartyId{"carol"}, env.encode());
    fed.settle();
  }

  /// Each honest party blamed mallory exactly once and installed nothing.
  void expect_one_violation_against_mallory() {
    for (const std::string name : {"bob", "carol"}) {
      EXPECT_EQ(fed.coordinator(name).violations_detected(), 1u) << name;
      EXPECT_EQ(fed.coordinator(name).replica(kObj).agreed_tuple().sequence,
                0u)
          << name;
    }
    for (TestRegister* reg : {&bob_obj, &carol_obj}) {
      EXPECT_EQ(reg->value, bytes_of("genesis"));
      for (const CoordEvent& event : reg->events) {
        if (event.kind == CoordEvent::Kind::kViolationDetected) {
          EXPECT_EQ(event.party, PartyId{"mallory"}) << event.detail;
        }
      }
    }
  }
};

// A run closes only with the decide of its own format. A single-run
// decide revealing just the final authenticator must not close a batch:
// it would install the final item with the earlier ones unauthenticated.
// Every honest responder blames the sender, installs nothing, and keeps
// waiting for the genuine batch decide.
TEST(PipelineAdversarial, SingleRunDecideCannotCloseABatch) {
  MalloryFederation m;
  std::vector<Bytes> authenticators;
  const BatchProposeMsg propose = mallory_batch(m.fed, &authenticators);
  m.send_to_honest(MsgType::kBatchPropose, propose.encode());

  DecideMsg decide;
  decide.proposer = PartyId{"mallory"};
  decide.object = kObj;
  decide.proposed = propose.proposal.proposed;
  decide.authenticator = authenticators.back();
  m.send_to_honest(MsgType::kDecide, decide.encode());

  m.expect_one_violation_against_mallory();
  for (const std::string name : {"bob", "carol"}) {
    EXPECT_TRUE(m.fed.coordinator(name).replica(kObj).busy())
        << name << ": the batch run must stay open";
  }
}

// §4.4's sequence rule inside a run: each later item follows the one
// before by exactly one. A validly signed batch with a gap is vetoed and
// blamed on its proposer, and validation leaves every object as it was.
TEST(PipelineAdversarial, NonConsecutiveBatchIsRejectedAndBlamed) {
  MalloryFederation m;
  BatchProposeMsg gap = mallory_batch(m.fed, nullptr);
  gap.items[1].proposed.sequence += 1;
  gap.proposal.proposed = gap.items.back().proposed;
  gap.proposal.payload_hash = gap.payload_digest();
  gap.signature = m.fed.keypair("mallory").sign(gap.signed_bytes());
  m.send_to_honest(MsgType::kBatchPropose, gap.encode());

  m.expect_one_violation_against_mallory();
  for (const std::string name : {"bob", "carol"}) {
    EXPECT_FALSE(m.fed.coordinator(name).replica(kObj).busy()) << name;
  }
}

// Anchored-span validation catches splices and tampering: an anchor
// grafted from ANOTHER party's log fails (wrong chain hash / signer), and
// a record tampered under an anchor is caught even when the chain is
// re-linked to hide it — the signed anchor pins the original hashes.
TEST(PipelineAdversarial, SplicedOrTamperedAnchorIsDetected) {
  Federation::Options opts =
      test::runtime_options(RuntimeKind::kSim, pipeline_seed());
  opts.pipeline = true;
  Parties p(opts);
  p.warm_up();
  RunHandle h =
      p.fed.coordinator("alpha").propagate_batch(kObj, mixed_batch());
  ASSERT_TRUE(p.fed.run_until_done(h));
  ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  p.fed.settle();

  const store::EvidenceLog& alpha_log = p.fed.coordinator("alpha").evidence();
  const store::EvidenceLog& beta_log = p.fed.coordinator("beta").evidence();
  const crypto::RsaPublicKey& alpha_key =
      p.fed.coordinator("alpha").public_key();
  ASSERT_TRUE(
      Arbiter::verify_anchored_spans(alpha_log, alpha_key).all_anchors_valid);

  // Index of some anchor record in each log.
  auto anchor_index = [](const store::EvidenceLog& log) {
    for (const store::EvidenceRecord& rec : log.records()) {
      if (rec.kind == evidence_kind::kEvidenceAnchor) return rec.index;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t alpha_anchor = anchor_index(alpha_log);
  const std::uint64_t beta_anchor = anchor_index(beta_log);
  ASSERT_GT(alpha_anchor, 0u);
  ASSERT_GT(beta_anchor, 0u);

  // Rebuild alpha's log record by record (append re-links the chain, so
  // the forgery is hash-chain-consistent — exactly what a tamperer with
  // write access to the local log can produce).
  auto rebuild = [](const store::EvidenceLog& source,
                    std::uint64_t replace_at, const Bytes* replacement,
                    std::uint64_t tamper_at, bool tamper) {
    store::EvidenceLog out;
    for (const store::EvidenceRecord& rec : source.records()) {
      Bytes payload = rec.payload;
      if (replacement != nullptr && rec.index == replace_at) {
        payload = *replacement;
      }
      if (tamper && rec.index == tamper_at) payload.push_back(0xff);
      out.append(rec.kind, std::move(payload), rec.time_micros);
    }
    return out;
  };

  // Splice: beta's signed anchor grafted into alpha's log in place of
  // alpha's own. The chain re-links fine, but the anchor covers a chain
  // hash that never existed in alpha's log (and carries beta's
  // signature, not alpha's).
  const Bytes beta_anchor_payload = beta_log.at(beta_anchor).payload;
  store::EvidenceLog spliced = rebuild(alpha_log, alpha_anchor,
                                       &beta_anchor_payload, 0, false);
  Arbiter::AnchorReport spliced_report =
      Arbiter::verify_anchored_spans(spliced, alpha_key);
  EXPECT_TRUE(spliced_report.chain_intact);
  EXPECT_FALSE(spliced_report.all_anchors_valid);
  EXPECT_FALSE(spliced_report.problems.empty());

  // Tamper: one record under the first anchor altered, chain re-linked.
  // Every later anchor's signed head hash now disagrees with the
  // re-linked chain.
  store::EvidenceLog tampered =
      rebuild(alpha_log, 0, nullptr, alpha_anchor - 1, true);
  Arbiter::AnchorReport tampered_report =
      Arbiter::verify_anchored_spans(tampered, alpha_key);
  EXPECT_TRUE(tampered_report.chain_intact);
  EXPECT_FALSE(tampered_report.all_anchors_valid);
  EXPECT_FALSE(tampered_report.problems.empty());
}

}  // namespace
}  // namespace b2b::core
