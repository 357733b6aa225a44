// Experiment E23 — the price of atomicity (DESIGN.md §12 deals).
//
// K independent objects are updated every round by the same initiator on
// the reactor runtime (3 organisations, everyone a member of every
// object, journals on with fsync off). Three ways to move the same K
// states:
//
//   independent — K concurrent propagate_new_state runs, one per object:
//                 the non-atomic baseline. A crash or veto can strand a
//                 prefix of the objects updated and the rest not.
//   deal        — one K-leg deal (stage → open → prepare parked →
//                 signed decision → replicate): all-or-nothing, plus a
//                 signed cross-leg enlist/decision on every leg's record.
//   deal+TTP    — the same deal with the §12 escape hatch enabled: every
//                 commit is first registered atomically with the §7 TTP
//                 (one more signed round trip) before any leg installs.
//
// Table 1 prices the deal layer against the baseline per leg count;
// Table 2 prices the TTP registration detour on top. Everything is
// RSA-bound, so the interesting number is the RATIO, not the absolute
// milliseconds: a deal adds one signed verdict + one enlist per leg on
// top of the per-leg runs themselves, so the overhead shrinks as K grows
// and the per-leg work dominates.
//
// A round takes a few milliseconds, so the host's speed drifting between
// configurations can move a whole column. The sweep over all 12
// configurations therefore runs kRepetitions times in one process, in
// alternating order (forward, then backward), and each cell prints the
// median with the min-max over the repetitions. A ratio cell is the
// median (min-max) of the ratios taken within each repetition.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/support/bench_util.hpp"

using namespace b2b;
using bench::WallClock;

namespace {

constexpr std::size_t kMaxObjects = 8;
constexpr int kRounds = 10;
constexpr int kRepetitions = 5;

enum class Mode { kIndependent, kDeal, kDealTtp };

core::Federation::Options make_options(const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / ("b2b_bench_deals_" + tag);
  fs::remove_all(root);
  core::Federation::Options options;
  options.runtime = core::RuntimeKind::kReactor;
  options.seed = 23;
  // The deal layer assumes the paper's stable storage (§4.2); fsync off
  // so the table prices the protocol, not the disk (E16 prices fsync).
  options.journal_root = (root / "journals").string();
  options.journal_fsync = false;
  return options;
}

/// Mean wall time (ms) of one round moving K object states as `mode`.
double run_config(Mode mode, std::size_t num_objects) {
  const std::vector<std::string> names = {"org0", "org1", "org2"};
  const std::string tag = std::to_string(static_cast<int>(mode)) + "_" +
                          std::to_string(num_objects);
  // Registers outlive the federation: runtime threads stop first.
  test::TestRegister regs[3][kMaxObjects];
  core::Federation fed(names, make_options(tag));

  std::vector<ObjectId> objects;
  for (std::size_t k = 0; k < num_objects; ++k) {
    objects.push_back(ObjectId{"obj" + std::to_string(k)});
    for (std::size_t p = 0; p < names.size(); ++p) {
      fed.register_object(names[p], objects[k], regs[p][k]);
    }
    fed.bootstrap_object(objects[k], names, bytes_of("genesis"));
  }
  if (mode == Mode::kDealTtp) fed.enable_deal_escape();

  auto fail = [](const core::RunHandle& h) {
    std::fprintf(stderr, "E23: run failed: %s\n", h->diagnostic.c_str());
    std::exit(1);
  };
  auto drive_round = [&](int round) {
    std::vector<core::RunHandle> handles;
    if (mode == Mode::kIndependent) {
      for (std::size_t k = 0; k < num_objects; ++k) {
        handles.push_back(fed.coordinator("org0").propagate_new_state(
            objects[k],
            bytes_of("r" + std::to_string(round) + "-o" + std::to_string(k))));
      }
    } else {
      core::DealCoordinator::DealSpec spec;
      for (std::size_t k = 0; k < num_objects; ++k) {
        core::DealCoordinator::LegSpec leg;
        leg.object = objects[k];
        leg.new_state =
            bytes_of("r" + std::to_string(round) + "-o" + std::to_string(k));
        leg.payload = leg.new_state;
        leg.is_update = false;
        spec.legs.push_back(std::move(leg));
      }
      handles.push_back(fed.start_deal("org0", std::move(spec)));
    }
    for (const core::RunHandle& h : handles) {
      if (!fed.run_until_done(h) ||
          h->outcome != core::RunResult::Outcome::kAgreed) {
        fail(h);
      }
    }
  };

  drive_round(-1);  // warm-up: connections + first-run costs off the clock
  WallClock wall;
  for (int round = 0; round < kRounds; ++round) drive_round(round);
  const double total_ms = wall.elapsed_us() / 1'000.0;
  fed.settle();
  return total_ms / kRounds;
}

/// "median (min-max)" of `values`.
std::string summary(std::vector<double> values, const char* format) {
  std::sort(values.begin(), values.end());
  char out[64];
  std::snprintf(out, sizeof out, format, values[values.size() / 2],
                values.front(), values.back());
  return out;
}

/// Element-wise numerator[i] / denominator[i]: the ratio within each
/// repetition.
std::vector<double> ratios(const std::vector<double>& numerator,
                           const std::vector<double>& denominator) {
  std::vector<double> out;
  for (std::size_t i = 0; i < numerator.size(); ++i) {
    out.push_back(numerator[i] / denominator[i]);
  }
  return out;
}

}  // namespace

int main() {
  std::printf(
      "E23 — the price of atomicity: K-leg deals vs K independent runs, "
      "reactor runtime, 3 orgs, %d rounds; %d repetitions of the sweep in "
      "alternating order, median (min-max)\n\n",
      kRounds, kRepetitions);

  const std::vector<std::size_t> legs = {1, 2, 4, 8};
  const std::vector<Mode> modes = {Mode::kIndependent, Mode::kDeal,
                                   Mode::kDealTtp};
  // ms[mode][leg index] holds one mean round time per repetition.
  std::vector<std::vector<std::vector<double>>> ms(
      modes.size(), std::vector<std::vector<double>>(legs.size()));
  const std::size_t configs = modes.size() * legs.size();
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t step = 0; step < configs; ++step) {
      const std::size_t c = rep % 2 == 0 ? step : configs - 1 - step;
      const std::size_t leg = c / modes.size();
      const std::size_t mode = c % modes.size();
      ms[mode][leg].push_back(run_config(modes[mode], legs[leg]));
    }
  }
  const auto& indep = ms[0];
  const auto& deal = ms[1];
  const auto& ttp = ms[2];
  const char* kMs = "%6.2f (%.2f-%.2f)";
  const char* kRatio = "%5.2fx (%.2f-%.2f)";

  std::printf("Table 1: deal layer vs non-atomic baseline\n");
  std::printf("  K | independent ms/round | deal ms/round        | "
              "atomicity tax\n");
  for (std::size_t i = 0; i < legs.size(); ++i) {
    std::printf("  %zu | %-20s | %-20s | %s\n", legs[i],
                summary(indep[i], kMs).c_str(), summary(deal[i], kMs).c_str(),
                summary(ratios(deal[i], indep[i]), kRatio).c_str());
  }

  std::printf("\nTable 2: the TTP escape hatch (atomic commit registration)"
              "\n");
  std::printf("  K | deal ms/round        | deal+TTP ms/round    | "
              "escape tax\n");
  for (std::size_t i = 0; i < legs.size(); ++i) {
    std::printf("  %zu | %-20s | %-20s | %s\n", legs[i],
                summary(deal[i], kMs).c_str(), summary(ttp[i], kMs).c_str(),
                summary(ratios(ttp[i], deal[i]), kRatio).c_str());
  }
  return 0;
}
