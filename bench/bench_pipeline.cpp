// Experiment E24 — killing the RSA floor with run pipelining (DESIGN.md
// §13).
//
// E9/E12 established that a coordination run's cost is an RSA floor:
// with cheap validation, virtually all CPU goes into the fixed per-run
// signature work (one signed propose, one signed response per recipient,
// one signed, TSS-stamped evidence anchor per party), not into the state
// being moved. Run pipelining attacks
// exactly that floor: a batch of K state changes rides ONE run — one
// hash-chained signed propose, one signed response per recipient, one
// decide revealing K authenticators — so the signature work is paid once
// per batch instead of once per change.
//
// Harness: 3 organisations on the deterministic simulator (inline
// delivery: wall time = protocol CPU), RSA-512 (the test
// configuration), cheap (accept-everything) validation, journaling off —
// the workload is the RSA floor and nothing else. A fixed budget of
// overwrites is moved either as sequential runs (K=1, pipelining off)
// or as batches of K. The table reports items/s and the speedup over
// the unpipelined baseline; the acceptance bar is ≥5× at K=16.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/support/bench_util.hpp"

using namespace b2b;
using bench::WallClock;

namespace {

constexpr std::size_t kParties = 3;
constexpr std::size_t kItems = 64;  // state changes moved per config

struct Row {
  std::size_t batch = 1;
  double wall_ms = 0;
  double items_per_s = 0;
  std::uint64_t messages = 0;
};

Row run_config(std::size_t batch) {
  core::Federation::Options options;
  // The deterministic simulator delivers inline on one thread, so wall
  // time here IS protocol CPU — overwhelmingly the RSA floor this
  // experiment prices. (A socket runtime adds thread handoff and
  // loopback latency that bury the crypto; E18/E20 price transports.)
  options.runtime = core::RuntimeKind::kSim;
  options.seed = 24;
  options.pipeline = batch > 1;
  bench::RegisterFederation f(kParties, options);
  f.agree_once(bytes_of("warm"));  // exclude bootstrap/warm-up from timing
  // reset_stats() needs the sim network; on a socket runtime count
  // protocol messages by delta instead.
  const std::uint64_t messages_before = f.total_protocol_messages();

  WallClock clock;
  std::size_t next = 0;
  while (next < kItems) {
    core::RunHandle h;
    if (batch == 1) {
      f.objects[0]->value = bytes_of("v" + std::to_string(next++));
      h = f.fed.coordinator(f.names[0])
              .propagate_new_state(f.object, f.objects[0]->get_state());
    } else {
      std::vector<core::Replica::BatchOp> ops;
      for (std::size_t i = 0; i < batch && next < kItems; ++i) {
        Bytes value = bytes_of("v" + std::to_string(next++));
        ops.push_back({false, value, value});
      }
      h = f.fed.coordinator(f.names[0]).propagate_batch(f.object,
                                                        std::move(ops));
    }
    f.fed.run_until_done(h);
    // Drain the decide to every responder before the next propose; on
    // the sim this is inline CPU like everything else.
    f.fed.settle();
    if (h->outcome != core::RunResult::Outcome::kAgreed) {
      std::fprintf(stderr, "E24: run failed: %s\n", h->diagnostic.c_str());
      std::exit(1);
    }
  }

  Row row;
  row.batch = batch;
  row.wall_ms = clock.elapsed_us() / 1000.0;
  row.items_per_s = kItems / (clock.elapsed_us() / 1e6);
  row.messages = f.total_protocol_messages() - messages_before;
  return row;
}

}  // namespace

int main() {
  bench::print_header(
      "E24: run pipelining vs sequential runs — " +
          std::to_string(kItems) + " overwrites, 3 parties, sim "
          "runtime (inline CPU), RSA-512, cheap validation",
      "  batch K    wall ms     items/s    msgs   msgs/item   speedup");
  double baseline = 0;
  for (std::size_t batch : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{8}, std::size_t{16}}) {
    Row row = run_config(batch);
    if (batch == 1) baseline = row.items_per_s;
    std::printf("  %7zu  %9.1f  %10.1f  %6llu  %9.2f  %7.2fx\n", row.batch,
                row.wall_ms, row.items_per_s,
                static_cast<unsigned long long>(row.messages),
                static_cast<double>(row.messages) / kItems,
                row.items_per_s / baseline);
  }
  std::printf(
      "\nThe fixed per-run signature work (propose sign, per-recipient\n"
      "response signs, per-party anchor sign and TSS stamp, verifies) is\n"
      "paid once per batch, so throughput scales with K until the\n"
      "per-item work (hashing, state application, decide size) becomes\n"
      "the new floor.\n");
  return 0;
}
