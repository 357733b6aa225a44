// A fixed multi-object scenario whose outcome is fingerprinted bit-for-bit.
//
// Four organisations share three objects with different member sets and
// drive state runs, a connect, an update and an eviction with runs on
// *different* objects deliberately in flight at the same time. On the
// deterministic simulator the entire deployment — every evidence chain,
// every agreed/group tuple, every object value, the executed event count
// — is a pure function of the seed, so its SHA-256 fingerprints (see
// golden_digest.hpp) pin the protocol's observable behaviour across
// refactors: the sharding equivalence suite asserts them verbatim.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "b2b/federation.hpp"
#include "tests/support/golden_digest.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::test {

/// Runs the scenario on the deterministic simulator and returns the
/// deployment fingerprints as hex digests. `options` must name the sim
/// runtime; lock-mode knobs may vary (that is the point). When
/// `journal_tag` is non-empty every party journals under a fresh
/// temporary root (removed again before returning), covering the
/// journal-append paths in the fingerprint's event count.
inline GoldenDigests run_golden_scenario(core::Federation::Options options,
                                       const std::string& journal_tag = "") {
  namespace fs = std::filesystem;
  using core::RunHandle;
  using core::RunResult;

  fs::path journal_root;
  if (!journal_tag.empty()) {
    journal_root =
        fs::temp_directory_path() / ("b2b_golden_" + journal_tag);
    fs::remove_all(journal_root);
    options.journal_root = journal_root.string();
    options.journal_fsync = false;
  }

  const ObjectId kLedger{"ledger"};
  const ObjectId kOrders{"orders"};
  const ObjectId kAudit{"audit"};
  const std::vector<std::string> kAll = {"alpha", "beta", "gamma", "delta"};

  GoldenDigests digests;
  {
    // Registers outlive nothing here (sim runtime, single thread), but
    // keep the declaration order of the other suites for uniformity.
    TestRegister regs[4][3];
    core::Federation fed(std::vector<std::string>(kAll.begin(), kAll.end()),
                         options);
    for (std::size_t p = 0; p < kAll.size(); ++p) {
      fed.register_object(kAll[p], kLedger, regs[p][0]);
      fed.register_object(kAll[p], kOrders, regs[p][1]);
      fed.register_object(kAll[p], kAudit, regs[p][2]);
    }
    fed.bootstrap_object(kLedger, {"alpha", "beta", "gamma"},
                         bytes_of("L0"));
    fed.bootstrap_object(kOrders, {"alpha", "beta", "delta"},
                         bytes_of("O0"));
    fed.bootstrap_object(kAudit, {"alpha", "beta", "gamma", "delta"},
                         bytes_of("A0"));

    // Drives one batch of concurrent runs to completion, then settles so
    // responder-side runs close before the next batch proposes.
    auto drive = [&](std::initializer_list<RunHandle> handles) {
      for (const RunHandle& h : handles) {
        if (!fed.run_until_done(h)) {
          ADD_FAILURE() << "golden scenario run did not terminate";
          return;
        }
        EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed) << h->diagnostic;
      }
      fed.settle();
    };

    auto index_of = [&](const std::string& name) {
      for (std::size_t p = 0; p < kAll.size(); ++p) {
        if (kAll[p] == name) return p;
      }
      return std::size_t{0};
    };
    // Proposers mutate their object BEFORE proposing (invariant 2: while
    // a proposal is in flight the proposer's object holds the proposed
    // state), exactly as a Controller would.
    auto propose = [&](const std::string& name, std::size_t obj_index,
                       const ObjectId& object, const std::string& value) {
      TestRegister& reg = regs[index_of(name)][obj_index];
      reg.value = bytes_of(value);
      return fed.coordinator(name).propagate_new_state(object,
                                                       reg.get_state());
    };
    auto update = [&](const std::string& name, std::size_t obj_index,
                      const ObjectId& object, const std::string& suffix) {
      TestRegister& reg = regs[index_of(name)][obj_index];
      reg.pending_suffix = bytes_of(suffix);
      reg.value.insert(reg.value.end(), suffix.begin(), suffix.end());
      return fed.coordinator(name).propagate_update(object, reg.get_update(),
                                                    reg.get_state());
    };

    // Phase 1: one state run per object, all in flight together.
    drive({propose("alpha", 0, kLedger, "L1"),
           propose("beta", 1, kOrders, "O1"),
           propose("gamma", 2, kAudit, "A1")});

    // Phase 2: a membership run on one object while a state run is in
    // flight on another.
    drive({fed.coordinator("delta").propagate_connect(kLedger,
                                                      PartyId{"gamma"}),
           propose("alpha", 1, kOrders, "O2")});

    // Phase 3: an update variant next to a plain state run.
    drive({update("alpha", 2, kAudit, "+u"),
           propose("beta", 0, kLedger, "L2")});

    // Phase 4: an eviction (relayed to the rotating sponsor) next to a
    // state run on a third object.
    drive({fed.coordinator("alpha").propagate_eviction(
               kAudit, {PartyId{"delta"}}),
           propose("delta", 1, kOrders, "O3")});

    fed.settle();

    GoldenHasher hasher;
    auto mix = [&](const Bytes& bytes) { hasher.mix(bytes); };
    for (std::size_t p = 0; p < kAll.size(); ++p) {
      core::Coordinator& coord = fed.coordinator(kAll[p]);
      const store::EvidenceLog& evidence = coord.evidence();
      EXPECT_TRUE(evidence.verify_chain()) << kAll[p];
      hasher.mix_evidence(evidence);
      std::size_t o = 0;
      for (const ObjectId& object : {kLedger, kOrders, kAudit}) {
        mix(coord.replica(object).agreed_tuple().encode());
        mix(coord.replica(object).group_tuple().encode());
        mix(regs[p][o].value);
        ++o;
      }
      EXPECT_EQ(coord.violations_detected(), 0u) << kAll[p];
    }
    mix(bytes_of(std::to_string(fed.scheduler().events_executed())));
    digests = hasher.finish();
  }
  if (!journal_root.empty()) fs::remove_all(journal_root);
  return digests;
}

}  // namespace b2b::test
