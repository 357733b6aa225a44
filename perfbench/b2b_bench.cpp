// The B2BObjects benchmark driver.
//
//   b2b_bench --workload <seq-sim|batch-sim|mixed-reactor> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//             [--trace-out <file>] [--capacity] [--diverge]
//
// Runs one workload from a workload seed, checks that the federation ended
// correct (the correctness gate), and prints as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run records spans
// around every call it makes into the middleware and reports the per-layer
// metrics instead (see README.md for the layer -> metric -> workload map).
//
// The driver uses only public APIs: core::Federation, the Coordinator's
// propagate_new_state / propagate_batch / start_deal, RunResult,
// Transport::stats(), Coordinator::protocol_stats() / evidence() /
// messages(), the Arbiter, the crypto:: primitives, store::Journal, and a
// B2BObject of its own.
//
// Exit codes: 0 result printed; 2 bad arguments; 3 correctness gate failed;
// 4 the open-loop generator fell behind (the run is invalid, not slow).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "b2b/arbiter.hpp"
#include "b2b/evidence.hpp"
#include "b2b/federation.hpp"
#include "crypto/sha256.hpp"
#include "host_speed.hpp"
#include "store/journal.hpp"
#include "trace.hpp"

using namespace b2b;
using perfbench::HostSpeed;
using perfbench::now_us;
using perfbench::Tracer;

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kParties = 3;
constexpr std::size_t kStateBytes = 1024;
constexpr std::size_t kBatchSize = 16;
/// setup_s is the median of this many complete set-ups per run.
constexpr int kSetups = 31;
/// The measuring window's slices (see Slices) last about this long.
constexpr double kSliceUs = 250e3;
/// mixed-reactor: share of operations that are 2-leg deals.
constexpr double kDealShare = 0.15;
/// mixed-reactor: Poisson arrival rate (operations/s), under a third of
/// the closed-loop capacity of the mix (--capacity) in the test host's slow
/// periods; at 60-80/s (with fsync on) slow periods tipped it towards a
/// retransmission and queueing collapse (README.md).
constexpr double kMixedRate = 40.0;
/// An operation not done after this long counts as failed.
constexpr double kOpTimeoutUs = 10e6;
/// The generator polls completions at this period (open loop).
constexpr double kPollUs = 200;
/// Operation id of the calibration probes' spans (above any workload op).
constexpr std::uint64_t kProbeOp = 1'000'000'000;
/// A run whose generator ran later than this at p99 is invalid.
constexpr double kMaxGeneratorLateMs = 20;

// --- arguments -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string trace_out;
  bool capacity = false;  // mixed-reactor: saturate instead of open loop
  bool diverge = false;   // self-test: corrupt one replica before the gate
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "b2b_bench: %s\nusage: b2b_bench --workload "
               "<seq-sim|batch-sim|mixed-reactor> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir d] [--trace-out f] "
               "[--capacity] [--diverge]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--workdir") {
      a.workdir = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--capacity") {
      a.capacity = true;
    } else if (flag == "--diverge") {
      a.diverge = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

// --- small utilities -------------------------------------------------------------

struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// A 1 KiB state, unique per (seed, op, tag): never a null transition.
Bytes make_state(std::uint64_t seed, std::uint64_t op, std::uint64_t tag) {
  Bytes out(kStateBytes);
  SplitMix rng{seed * 0x100000001B3ull ^ (op << 8) ^ tag};
  for (std::size_t i = 0; i < kStateBytes; i += 8) {
    std::uint64_t word = i < 16 ? (i == 0 ? op : tag) : rng.next();
    std::memcpy(out.data() + i, &word, 8);
  }
  return out;
}

double cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// --- the benchmark's own object --------------------------------------------------

struct AppCounters {
  std::atomic<std::uint64_t> validate_calls{0};
};

/// A 1 KiB register that accepts any well-formed state. Its callbacks are
/// traced (and validations counted) as a control: they should cost the
/// same on every commit.
class BenchObject : public core::B2BObject {
 public:
  BenchObject(Tracer& tracer, AppCounters& counters,
              const std::atomic<std::uint64_t>& current_op)
      : tracer_(tracer), counters_(counters), current_op_(current_op) {}

  Bytes get_state() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_;
  }

  void apply_state(BytesView state) override {
    Tracer::Scope span(tracer_, "apps.apply_state", current_op_.load());
    std::lock_guard<std::mutex> lock(mutex_);
    value_.assign(state.begin(), state.end());
  }

  core::Decision validate_state(BytesView proposed,
                                const core::ValidationContext&) override {
    Tracer::Scope span(tracer_, "apps.validate_state", current_op_.load());
    counters_.validate_calls.fetch_add(1, std::memory_order_relaxed);
    if (proposed.size() != kStateBytes) {
      return core::Decision::rejected("state is not 1 KiB");
    }
    return core::Decision::accepted();
  }

  /// The proposer's own write before propagate_new_state (invariant 2);
  /// not a middleware callback, so neither traced nor counted.
  void set_value(Bytes value) {
    std::lock_guard<std::mutex> lock(mutex_);
    value_ = std::move(value);
  }

 private:
  Tracer& tracer_;
  AppCounters& counters_;
  const std::atomic<std::uint64_t>& current_op_;
  mutable std::mutex mutex_;
  Bytes value_;
};

// --- workloads and deployments ---------------------------------------------------

struct Workload {
  std::string name;
  bool reactor = false;
  bool pipeline = false;
  std::size_t objects = 1;  // objects the main loop changes
  /// Sim only: main-loop operations between two interleaved deals.
  std::uint64_t ops_per_deal = 0;
  /// peak_rss_mb is read once this many changes agreed (fixed work, so
  /// the reading does not move with throughput); at the end if sooner.
  std::uint64_t rss_changes = 0;
};

const Workload* find_workload(const std::string& name) {
  // The sim workloads carry one more object, used only by their deal loop.
  static const Workload kWorkloads[] = {
      {"seq-sim", false, false, 1, 12, 1'500},
      {"batch-sim", false, true, 1, 8, 16'000},
      {"mixed-reactor", true, false, 4, 0, ~std::uint64_t{0}},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::size_t total_objects(const Workload& w) {
  return w.reactor ? w.objects : w.objects + 1;
}

/// One federation with its objects, bootstrapped and warmed up. Owns its
/// journal directory, which it removes when destroyed.
struct Deployment {
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    fed.reset();
    if (!journal_root.empty()) {
      std::error_code ignored;
      fs::remove_all(journal_root, ignored);
    }
  }

  std::vector<std::string> names;
  std::vector<ObjectId> objects;
  std::unique_ptr<std::atomic<std::uint64_t>[]> current_op;  // per object
  std::vector<std::unique_ptr<BenchObject>> impls;  // [party][object]
  std::string journal_root;
  /// The value every party must hold per object: the last agreed one.
  std::vector<Bytes> expected;
  // Declared last, destroyed first: runtime threads stop before the
  // objects they deliver into die.
  std::unique_ptr<core::Federation> fed;

  BenchObject& impl(std::size_t party, std::size_t object) {
    return *impls[party * objects.size() + object];
  }
  core::Coordinator& proposer() { return fed->coordinator(names[0]); }
};

std::unique_ptr<Deployment> deploy(const Workload& w, const Args& args,
                                   int index, Tracer& tracer,
                                   AppCounters& counters) {
  auto d = std::make_unique<Deployment>();
  for (std::size_t p = 0; p < kParties; ++p) {
    d->names.push_back("org" + std::to_string(p));
  }
  const std::size_t n_objects = total_objects(w);
  d->current_op = std::make_unique<std::atomic<std::uint64_t>[]>(n_objects);
  for (std::size_t k = 0; k < n_objects; ++k) {
    d->objects.push_back(ObjectId{"obj" + std::to_string(k)});
  }
  for (std::size_t p = 0; p < kParties; ++p) {
    for (std::size_t k = 0; k < n_objects; ++k) {
      d->impls.push_back(
          std::make_unique<BenchObject>(tracer, counters, d->current_op[k]));
    }
  }

  core::Federation::Options options;
  options.seed = args.seed;
  options.use_tss = true;
  options.pipeline = w.pipeline;
  if (w.reactor) {
    options.runtime = core::RuntimeKind::kReactor;
    options.wire_auth = true;
    options.reactor_workers = 2;
    d->journal_root = (fs::path(args.workdir) /
                       (w.name + "-" + std::to_string(::getpid()) + "-" +
                        std::to_string(index)))
                          .string();
    fs::remove_all(d->journal_root);
    options.journal_root = d->journal_root;
    // Every record is journaled, but not fsync'ed: on a host whose disk is
    // shared, fsync latency follows the other tenants' I/O and doubled the
    // run p50 of the same code (README.md). store.sync_us reports its cost.
    options.journal_fsync = false;
  } else {
    options.runtime = core::RuntimeKind::kSim;
  }
  d->fed = std::make_unique<core::Federation>(d->names, options);
  for (std::size_t k = 0; k < n_objects; ++k) {
    for (std::size_t p = 0; p < kParties; ++p) {
      d->fed->register_object(d->names[p], d->objects[k], d->impl(p, k));
    }
    Bytes genesis = make_state(args.seed, 0, 1000 + k);
    d->fed->bootstrap_object(d->objects[k], d->names, genesis);
    d->expected.push_back(std::move(genesis));
  }

  // Warm-up: one overwrite per object, so connections, caches and lazy
  // set-up are paid before measuring.
  for (std::size_t k = 0; k < n_objects; ++k) {
    Bytes state = make_state(args.seed, 0, 2000 + k);
    d->impl(0, k).set_value(state);
    core::RunHandle h = d->proposer().propagate_new_state(d->objects[k], state);
    if (!d->fed->run_until_done(h) ||
        h->outcome.load() != core::RunResult::Outcome::kAgreed) {
      std::fprintf(stderr, "b2b_bench: warm-up run failed: %s\n",
                   h->diagnostic.c_str());
      std::exit(3);
    }
    d->expected[k] = std::move(state);
  }
  d->fed->settle();
  return d;
}

// --- counters read at the measuring window's boundaries ---------------------------

/// Additive counts, by name, summed over the parties.
using Counts = std::map<std::string, double>;

Counts& operator+=(Counts& a, const Counts& b) {
  for (const auto& [k, v] : b) a[k] += v;
  return a;
}

Counts operator-(Counts a, const Counts& b) {
  for (const auto& [k, v] : b) a[k] -= v;
  return a;
}

std::string msg_name(core::MsgType type) {
  switch (type) {
    case core::MsgType::kPropose: return "propose";
    case core::MsgType::kRespond: return "respond";
    case core::MsgType::kDecide: return "decide";
    case core::MsgType::kBatchPropose: return "batch_propose";
    case core::MsgType::kBatchDecide: return "batch_decide";
    case core::MsgType::kDealEnlist: return "deal_enlist";
    case core::MsgType::kDealDecision: return "deal_decision";
    default: return "other";
  }
}

struct Snapshot {
  Counts counts;
  std::vector<std::size_t> evidence_size;  // per party
  double executor_queue_peak = 0;          // a high-water mark, not additive
};

Snapshot read_snapshot(Deployment& d, const AppCounters& app) {
  Snapshot s;
  Counts& c = s.counts;
  double epoll_wakeups = 0;
  double timers_fired = 0;
  for (const std::string& name : d.names) {
    core::Coordinator::ProtocolStats ps = d.fed->coordinator(name).protocol_stats();
    for (const auto& [type, n] : ps.sent_by_type) c["sent." + msg_name(type)] += n;
    c["envelopes"] += ps.envelopes_sent;
    c["envelope_bytes"] += ps.envelope_bytes_sent;
    net::Transport::Stats ts = d.fed->transport(name).stats();
    c["frames"] += ts.app_sent + ts.retransmissions + ts.acks_sent;
    c["wire_bytes"] += ts.bytes_sent;
    c["acks"] += ts.acks_sent;
    c["retransmissions"] += ts.retransmissions;
    // Loop counters are per reactor bundle: every transport reports them.
    epoll_wakeups = std::max<double>(epoll_wakeups, ts.epoll_wakeups);
    timers_fired = std::max<double>(timers_fired, ts.timers_fired);
    s.executor_queue_peak = std::max<double>(s.executor_queue_peak, ts.executor_queue_peak);
    s.evidence_size.push_back(d.fed->coordinator(name).evidence().size());
  }
  c["epoll_wakeups"] = epoll_wakeups;
  c["timers_fired"] = timers_fired;
  c["validate_calls"] = static_cast<double>(app.validate_calls.load());
  return s;
}

// --- measurement -----------------------------------------------------------------

/// The measuring window is cut into slices of about kSliceUs. At each cut
/// the driver records its progress and times the host-speed kernels
/// (host_speed.hpp) on its own thread; their time falls between two
/// slices, in neither.
class Slices {
 public:
  struct Cut {
    double close_us;      // the slice before the cut ended
    double close_cpu_us;
    double open_us;       // the slice after the cut began
    double open_cpu_us;
    double changes;       // agreed changes so far
    double slowdown;      // measured between close and open
  };

  explicit Slices(HostSpeed& speed) : speed_(speed) {}

  /// Closes the open slice (the first call opens the window) and opens
  /// the next.
  void cut(double changes) {
    Cut c{};
    c.close_us = now_us();
    c.close_cpu_us = cpu_us();
    c.changes = changes;
    c.slowdown = speed_.sample();
    c.open_us = now_us();
    c.open_cpu_us = cpu_us();
    cuts_.push_back(c);
  }

  void maybe_cut(double changes) {
    if (now_us() - cuts_.back().open_us >= kSliceUs) cut(changes);
  }

  /// The open slice: a sample taken now belongs to it.
  std::size_t current() const { return cuts_.size() - 1; }
  /// Closed slices.
  std::size_t size() const { return cuts_.size() - 1; }
  const Cut& begin_of(std::size_t i) const { return cuts_[i]; }
  const Cut& end_of(std::size_t i) const { return cuts_[i + 1]; }
  const Cut& first() const { return cuts_.front(); }
  const Cut& last() const { return cuts_.back(); }

  /// Slice i's slowdown: the geometric mean of the readings at its ends
  /// (the last reading for the slice still open).
  double slowdown(std::size_t i) const {
    if (i + 1 >= cuts_.size()) return cuts_.back().slowdown;
    return std::sqrt(cuts_[i].slowdown * cuts_[i + 1].slowdown);
  }

  double median_slowdown() const {
    std::vector<double> v;
    for (const Cut& c : cuts_) v.push_back(c.slowdown);
    return median(std::move(v));
  }

 private:
  HostSpeed& speed_;
  std::vector<Cut> cuts_;
};

/// A latency, with the slice it ended in.
struct Sample {
  double ms;
  std::size_t slice;
};

/// The samples' latencies at the quiet host's speed.
std::vector<double> at_reference_speed(const std::vector<Sample>& samples,
                                       const Slices& slices) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.ms / slices.slowdown(s.slice));
  return out;
}

std::vector<double> as_measured(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.ms);
  return out;
}

/// A closed loop's changes per second and CPU ms per change at the quiet
/// host's speed: the medians over the slices, each slice's rate
/// multiplied and its CPU time divided by its slowdown.
std::pair<double, double> closed_loop_rates(const Slices& slices) {
  std::vector<double> rate;
  std::vector<double> cpu;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const Slices::Cut& a = slices.begin_of(i);
    const Slices::Cut& b = slices.end_of(i);
    const double changes = b.changes - a.changes;
    if (changes <= 0) continue;
    const double slow = slices.slowdown(i);
    rate.push_back(changes / ((b.close_us - a.open_us) / 1e6) * slow);
    cpu.push_back((b.close_cpu_us - a.open_cpu_us) / 1000.0 / changes / slow);
  }
  return {median(rate), median(cpu)};
}

/// An open loop's CPU ms per change at the quiet host's speed: each
/// slice's CPU time divided by its slowdown, summed, over all changes.
/// (Its slices hold too few changes each for a median of ratios.)
double open_loop_cpu_ms(const Slices& slices) {
  double cpu_ms = 0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    cpu_ms += (slices.end_of(i).close_cpu_us - slices.begin_of(i).open_cpu_us) / 1000.0 /
              slices.slowdown(i);
  }
  const double changes = slices.last().changes - slices.first().changes;
  return changes > 0 ? cpu_ms / changes : 0;
}

struct Results {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t changes = 0;         // agreed changes, deal legs included
  std::uint64_t main_changes = 0;    // agreed changes outside sim deals
  double peak_rss_mb = 0;            // by the workload's fixed-work point
  std::vector<Sample> run_ms;        // state-run latencies
  std::vector<Sample> deal_ms;       // deal latencies
  std::uint64_t deals_started = 0;
  std::uint64_t deals_committed = 0;
  double deal_cpu_us = 0;            // process CPU inside the sim's deals
  // Open-loop validity.
  std::vector<double> generator_late_ms;
  std::vector<double> client_wait_ms;
  std::uint64_t backlog_peak = 0;
  Snapshot before;
  Snapshot after;
  /// The sim's interleaved deals, kept out of the per-change layer counts
  /// so that those describe the workload's own operation exactly.
  Counts deal_counts;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> deal_evidence;
  std::set<std::uint64_t> deal_ops;
};

bool agreed(const core::RunHandle& h) {
  return h->outcome.load() == core::RunResult::Outcome::kAgreed;
}

core::DealCoordinator::DealSpec deal_spec(Deployment& d, const Args& args,
                                          std::uint64_t op, std::size_t a,
                                          std::size_t b) {
  core::DealCoordinator::DealSpec spec;
  for (std::size_t k : {a, b}) {
    core::DealCoordinator::LegSpec leg;
    leg.object = d.objects[k];
    leg.new_state = make_state(args.seed, op, k);
    leg.payload = leg.new_state;
    leg.is_update = false;
    spec.legs.push_back(std::move(leg));
  }
  return spec;
}

/// Closed loop on the sim: each operation is submitted after the previous
/// one completed and drained; its latency runs from submit to kAgreed at
/// the proposer. After every w.ops_per_deal changes (single or batch) on
/// object 0 comes one 2-leg deal over objects 0 and 1.
void run_closed_sim(Deployment& d, const Workload& w, const Args& args,
                    Tracer& tracer, const AppCounters& app, Slices& slices,
                    Results& r) {
  core::Coordinator& coord = d.proposer();
  const double window_us = args.seconds * 1e6;
  std::uint64_t op = 0;        // operation ids, deals included
  std::uint64_t main_ops = 0;  // the workload's own operations
  r.deal_evidence.resize(kParties);

  // Submit, await and drain one operation; true when it agreed.
  auto drive = [&](auto&& submit, double& latency_ms) {
    const double t_submit = now_us();
    core::RunHandle h;
    {
      Tracer::Scope span(tracer, "b2b.submit");
      h = submit();
    }
    bool done = false;
    {
      Tracer::Scope span(tracer, "b2b.await");
      done = d.fed->run_until_done(h);
    }
    latency_ms = (now_us() - t_submit) / 1000.0;
    {
      Tracer::Scope span(tracer, "b2b.settle");
      d.fed->settle();
    }
    ++r.attempted;
    if (done && agreed(h)) return true;
    ++r.failed;
    return false;
  };

  r.before = read_snapshot(d, app);
  slices.cut(0);
  const double t0 = slices.first().open_us;
  double prev_end = t0;  // a closed loop's next op is due when one ends
  while (now_us() - t0 < window_us) {
    ++op;
    const double t_begin = now_us();
    r.generator_late_ms.push_back((t_begin - prev_end) / 1000.0);
    d.current_op[0].store(op);
    std::vector<Bytes> states;
    for (std::size_t i = 0; i < (w.pipeline ? kBatchSize : 1); ++i) {
      states.push_back(make_state(args.seed, op, i));
    }
    r.client_wait_ms.push_back((now_us() - t_begin) / 1000.0);
    double ms = 0;
    bool ok = false;
    {
      Tracer::Scope root(tracer, w.pipeline ? "op.batch" : "op.change", op);
      ok = drive(
          [&] {
            if (w.pipeline) {
              std::vector<core::Replica::BatchOp> ops;
              for (const Bytes& s : states) ops.push_back({false, s, s});
              return coord.propagate_batch(d.objects[0], std::move(ops));
            }
            d.impl(0, 0).set_value(states[0]);
            return coord.propagate_new_state(d.objects[0], states[0]);
          },
          ms);
    }
    if (ok) {
      r.run_ms.push_back({ms, slices.current()});
      r.changes += states.size();
      r.main_changes += states.size();
      d.expected[0] = states.back();
      if (r.peak_rss_mb == 0 && r.main_changes >= w.rss_changes) r.peak_rss_mb = peak_rss_mb();
    }

    if (++main_ops % w.ops_per_deal == 0) {
      ++op;
      r.deal_ops.insert(op);
      d.current_op[0].store(op);
      d.current_op[1].store(op);
      core::DealCoordinator::DealSpec spec = deal_spec(d, args, op, 0, 1);
      std::vector<Bytes> legs = {spec.legs[0].new_state, spec.legs[1].new_state};
      const Snapshot before = read_snapshot(d, app);
      const double deal_cpu = cpu_us();
      ++r.deals_started;
      {
        Tracer::Scope root(tracer, "op.deal", op);
        ok = drive([&] { return d.fed->start_deal(d.names[0], std::move(spec)); }, ms);
      }
      r.deal_cpu_us += cpu_us() - deal_cpu;
      const Snapshot after = read_snapshot(d, app);
      r.deal_counts += after.counts - before.counts;
      for (std::size_t p = 0; p < kParties; ++p) {
        r.deal_evidence[p].push_back({before.evidence_size[p], after.evidence_size[p]});
      }
      if (ok) {
        ++r.deals_committed;
        r.deal_ms.push_back({ms, slices.current()});
        r.changes += 2;
        d.expected[0] = legs[0];
        d.expected[1] = legs[1];
      }
    }
    slices.maybe_cut(static_cast<double>(r.changes));
    prev_end = now_us();
  }
  slices.cut(static_cast<double>(r.changes));
  r.after = read_snapshot(d, app);
  if (r.peak_rss_mb == 0) r.peak_rss_mb = peak_rss_mb();
}

/// One operation of the open-loop mix.
struct Op {
  std::uint64_t id = 0;
  double due_us = 0;       // when the schedule says it arrives
  double enqueued_us = 0;  // when the generator got to it
  double submit_us = 0;
  bool deal = false;
  std::size_t a = 0, b = 0;  // objects (b unused for a single change)
  std::vector<Bytes> states;
  core::RunHandle handle;
  std::uint64_t await_span = 0;
};

/// Open loop on the reactor: Poisson arrivals at a fixed rate, 85% single
/// overwrites of a uniformly chosen object, 15% 2-leg deals. Each object
/// has a client-side FIFO: an operation is submitted once it heads the
/// queue of every object it touches and those objects are idle. Latency
/// runs from the due time.
void run_open_reactor(Deployment& d, const Workload& w, const Args& args,
                      Tracer& tracer, const AppCounters& app, Slices& slices,
                      Results& r) {
  const std::size_t n_objects = w.objects;
  SplitMix rng{args.seed ^ 0x6D69786564ull};

  // The schedule: exactly round(rate * seconds) arrivals, of which exactly
  // round(kDealShare * n) are deals, placed as a Poisson process
  // conditioned on its count (sorted uniform times).
  std::deque<Op> schedule;
  if (!args.capacity) {
    const auto n = static_cast<std::size_t>(std::llround(kMixedRate * args.seconds));
    const auto n_deals = static_cast<std::size_t>(std::llround(kDealShare * n));
    std::vector<double> times(n);
    for (double& t : times) t = rng.uniform() * args.seconds * 1e6;
    std::sort(times.begin(), times.end());
    std::vector<char> is_deal(n, 0);
    for (std::size_t i = 0; i < n_deals; ++i) is_deal[i] = 1;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(is_deal[i - 1], is_deal[rng.next() % i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      Op op;
      op.due_us = times[i];
      op.deal = is_deal[i] != 0;
      schedule.push_back(std::move(op));
    }
  }
  std::uint64_t next_id = 1;
  auto fill_op = [&](Op& op) {
    op.id = next_id++;
    op.a = rng.next() % n_objects;
    if (op.deal) {
      op.b = (op.a + 1 + rng.next() % (n_objects - 1)) % n_objects;
    }
    op.states.push_back(make_state(args.seed, op.id, op.a));
    if (op.deal) op.states.push_back(make_state(args.seed, op.id, op.b));
  };

  std::vector<std::deque<std::uint64_t>> fifo(n_objects);  // op ids
  std::vector<bool> busy(n_objects, false);
  std::map<std::uint64_t, Op> waiting;  // enqueued, not yet submitted
  std::map<std::uint64_t, Op> in_flight;

  auto enqueue = [&](Op op, double now) {
    op.enqueued_us = now;
    if (!args.capacity) r.generator_late_ms.push_back((now - op.due_us) / 1000.0);
    fifo[op.a].push_back(op.id);
    if (op.deal) fifo[op.b].push_back(op.id);
    const std::uint64_t id = op.id;
    waiting.emplace(id, std::move(op));
    r.backlog_peak = std::max<std::uint64_t>(r.backlog_peak, waiting.size());
  };
  auto startable = [&](const Op& op) {
    auto heads = [&](std::size_t k) {
      return !busy[k] && !fifo[k].empty() && fifo[k].front() == op.id;
    };
    return heads(op.a) && (!op.deal || heads(op.b));
  };
  auto submit = [&](Op& op) {
    op.submit_us = now_us();
    r.client_wait_ms.push_back((op.submit_us - op.enqueued_us) / 1000.0);
    busy[op.a] = true;
    fifo[op.a].pop_front();
    d.current_op[op.a].store(op.id);
    if (op.deal) {
      busy[op.b] = true;
      fifo[op.b].pop_front();
      d.current_op[op.b].store(op.id);
    }
    const std::uint64_t root = tracer.begin(op.deal ? "op.deal" : "op.change", op.id);
    const std::uint64_t span = tracer.begin("b2b.submit", op.id, root);
    if (op.deal) {
      core::DealCoordinator::DealSpec spec;
      for (std::size_t i = 0; i < 2; ++i) {
        core::DealCoordinator::LegSpec leg;
        leg.object = d.objects[i == 0 ? op.a : op.b];
        leg.new_state = op.states[i];
        leg.payload = op.states[i];
        leg.is_update = false;
        spec.legs.push_back(std::move(leg));
      }
      op.handle = d.fed->start_deal(d.names[0], std::move(spec));
      ++r.deals_started;
    } else {
      d.impl(0, op.a).set_value(op.states[0]);
      op.handle = d.proposer().propagate_new_state(d.objects[op.a], op.states[0]);
    }
    tracer.end(span);
    op.await_span = tracer.begin("b2b.await", op.id, root);
    return root;
  };
  std::map<std::uint64_t, std::uint64_t> roots;  // op id -> root span

  auto complete = [&](Op& op, bool ok, double now) {
    ++r.attempted;
    busy[op.a] = false;
    if (op.deal) busy[op.b] = false;
    const double ms = (now - (args.capacity ? op.submit_us : op.due_us)) / 1000.0;
    if (ok) {
      if (op.deal) {
        ++r.deals_committed;
        r.deal_ms.push_back({ms, slices.current()});
        r.changes += 2;
        d.expected[op.b] = op.states[1];
      } else {
        r.run_ms.push_back({ms, slices.current()});
        r.changes += 1;
      }
      d.expected[op.a] = op.states[0];
    } else {
      ++r.failed;
    }
  };

  r.before = read_snapshot(d, app);
  slices.cut(0);
  const double t0 = slices.first().open_us;
  const double end_us = args.seconds * 1e6;
  for (;;) {
    slices.maybe_cut(static_cast<double>(r.changes));
    const double now = now_us();
    const double rel = now - t0;
    // Arrivals.
    if (args.capacity) {
      while (rel < end_us && waiting.size() < 2 * n_objects) {
        Op op;
        op.due_us = now;
        op.deal = rng.uniform() < kDealShare;
        fill_op(op);
        enqueue(std::move(op), now);
      }
    } else {
      while (!schedule.empty() && schedule.front().due_us <= rel) {
        Op op = std::move(schedule.front());
        schedule.pop_front();
        op.due_us += t0;
        fill_op(op);
        enqueue(std::move(op), now);
      }
    }
    // Completions.
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      Op& op = it->second;
      const bool done = op.handle->done();
      if (done || now - op.submit_us > kOpTimeoutUs) {
        tracer.end(op.await_span);
        tracer.end(roots[op.id]);
        roots.erase(op.id);
        complete(op, done && agreed(op.handle), now);
        it = in_flight.erase(it);
      } else {
        ++it;
      }
    }
    // Submissions, oldest first (the oldest waiting op always heads the
    // queues of its objects, so nothing starves).
    for (auto it = waiting.begin(); it != waiting.end();) {
      if (startable(it->second)) {
        roots[it->first] = submit(it->second);
        in_flight.emplace(it->first, std::move(it->second));
        it = waiting.erase(it);
      } else {
        ++it;
      }
    }
    const bool arrivals_left = args.capacity ? rel < end_us : !schedule.empty();
    if (!arrivals_left && waiting.empty() && in_flight.empty()) break;
    double sleep = kPollUs;
    if (!args.capacity && !schedule.empty()) {
      sleep = std::min(sleep, std::max(0.0, schedule.front().due_us + t0 - now_us()));
    }
    if (sleep > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(sleep));
    }
  }
  slices.cut(static_cast<double>(r.changes));
  d.fed->settle();
  r.after = read_snapshot(d, app);
  r.main_changes = r.changes;
  r.peak_rss_mb = peak_rss_mb();
}

// --- the correctness gate ----------------------------------------------------------

std::vector<std::string> correctness_gate(Deployment& d, const Workload& w,
                                          const Results& r) {
  std::vector<std::string> problems;
  core::Federation& fed = *d.fed;
  for (std::size_t k = 0; k < d.objects.size(); ++k) {
    for (std::size_t p = 0; p < kParties; ++p) {
      if (d.impl(p, k).get_state() != d.expected[k]) {
        problems.push_back(d.names[p] + " does not hold the last agreed value of " +
                           d.objects[k].str());
      }
    }
  }
  core::Arbiter arbiter(fed.make_verifier());
  for (std::size_t p = 0; p < kParties; ++p) {
    core::Coordinator& c = fed.coordinator(d.names[p]);
    if (!c.evidence().verify_chain()) {
      problems.push_back(d.names[p] + ": evidence chain does not verify");
    }
    if (c.violations_detected() != 0) {
      problems.push_back(d.names[p] + ": " + std::to_string(c.violations_detected()) +
                         " violations detected");
    }
    if (w.pipeline) {
      core::Arbiter::AnchorReport anchors =
          core::Arbiter::verify_anchored_spans(c.evidence(), c.public_key());
      if (!anchors.all_anchors_valid || anchors.anchors_seen == 0) {
        problems.push_back(d.names[p] + ": evidence anchors do not verify");
      }
    }
  }
  // Every state run on the proposer's record must verify as agreed with
  // only the public keys (batches are covered by the anchors above).
  std::vector<PartyId> recipients;
  for (std::size_t p = 1; p < kParties; ++p) recipients.push_back(PartyId{d.names[p]});
  const store::MessageStore& messages = d.proposer().messages();
  std::size_t verified = 0;
  for (const std::string& label : messages.run_labels()) {
    core::ArbitrationReport report = arbiter.arbitrate(messages, label, &recipients);
    if (!report.proposal_found) continue;
    ++verified;
    if (!report.verdict.agreed) {
      problems.push_back("run " + label + " does not verify as agreed: " + report.ruling);
      break;
    }
  }
  if (verified == 0) problems.push_back("no run on record verified");
  const core::DealCoordinator::Stats deals = d.proposer().deals().stats();
  if (r.deals_committed != r.deals_started || deals.committed != deals.started ||
      deals.committed != r.deals_committed) {
    problems.push_back("not every deal committed (" + std::to_string(deals.committed) +
                       " of " + std::to_string(deals.started) + ")");
  }
  return problems;
}

// --- calibration probes (traced run) ------------------------------------------------

struct Probes {
  double sign_us = 0;
  double verify_us = 0;
  double tss_stamp_us = 0;
  double sha256_us_per_kib = 0;
  double append_us = 0;
  double sync_us = 0;
};

template <typename F>
double time_per_call(Tracer& tracer, const char* name, std::uint64_t op, int n, F&& f) {
  Tracer::Scope span(tracer, name, op);
  const double t = now_us();
  for (int i = 0; i < n; ++i) f(i);
  return (now_us() - t) / n;
}

/// The crypto probes, on the federation's own keys and TSS.
void probe_crypto(Deployment& d, Tracer& tracer, std::uint64_t op, Probes& p) {
  Tracer::Scope root(tracer, "probe.crypto", op);
  const crypto::RsaPrivateKey& key = d.fed->keypair(d.names[0]);
  const Bytes kib = make_state(1, op, 7);
  const crypto::Digest digest = crypto::Sha256::hash(kib);
  const Bytes signature = key.sign_digest(digest);
  volatile std::size_t sink = 0;
  p.sign_us = time_per_call(tracer, "probe.crypto.sign", op, 200, [&](int) {
    sink = sink + key.sign_digest(digest).size();
  });
  p.verify_us = time_per_call(tracer, "probe.crypto.verify", op, 1000, [&](int) {
    sink = sink + key.public_key().verify_digest(digest, signature);
  });
  p.tss_stamp_us = time_per_call(tracer, "probe.crypto.tss_stamp", op, 200, [&](int) {
    sink = sink + d.fed->tss()->stamp_digest(digest).signature.size();
  });
  p.sha256_us_per_kib = time_per_call(tracer, "probe.crypto.sha256_1k", op, 5000, [&](int) {
    sink = sink + crypto::Sha256::hash(kib)[0];
  });
}

/// Journal::append and Journal::sync (fsync on) in a scratch directory,
/// at the given record size.
void probe_journal(Tracer& tracer, std::uint64_t op, std::size_t record_bytes,
                   const std::string& dir, Probes& p) {
  constexpr int kRecords = 100;
  Tracer::Scope root(tracer, "probe.store", op);
  fs::remove_all(dir);
  {
    store::Journal::Options options;
    options.fsync = true;
    store::Journal journal(dir, options);
    const Bytes record(std::max<std::size_t>(record_bytes, 1), 0x5a);
    double append_total = 0;
    double sync_total = 0;
    for (int i = 0; i < kRecords; ++i) {
      double t = now_us();
      {
        Tracer::Scope span(tracer, "probe.store.append");
        journal.append(1, record);
      }
      append_total += now_us() - t;
      t = now_us();
      {
        Tracer::Scope span(tracer, "probe.store.sync");
        journal.sync();
      }
      sync_total += now_us() - t;
    }
    p.append_us = append_total / kRecords;
    p.sync_us = sync_total / kRecords;
  }
  fs::remove_all(dir);
}

/// Journal totals over every party's journal directory (read after the
/// federation is gone, so every record is on disk).
struct JournalTotals {
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};

JournalTotals read_journals(const std::string& root) {
  JournalTotals t;
  if (root.empty() || !fs::exists(root)) return t;
  for (const auto& party : fs::directory_iterator(root)) {
    for (const auto& seg : fs::directory_iterator(party.path())) {
      t.bytes += fs::file_size(seg.path());
    }
    // Opening replays every record (and appends a marker, after counting).
    store::Journal journal(party.path().string());
    t.records += journal.records().size();
  }
  return t;
}

// --- output --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Only a run that passed the correctness gate gets here, so "correct" is
/// always true; a failed gate exits without printing a result.
void print_result(const Results& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_span_summary(const std::map<std::string, Tracer::Summary>& summary) {
  std::fprintf(stderr, "%-28s %9s %12s %12s\n", "span", "count", "total ms", "self ms");
  for (const auto& [name, s] : summary) {
    std::fprintf(stderr, "%-28s %9llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(s.count), s.total_us / 1000.0,
                 s.self_us / 1000.0);
  }
}


}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* found = find_workload(args.workload);
  if (found == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *found;
  fs::create_directories(args.workdir);

  Tracer tracer(args.trace);
  AppCounters app;
  HostSpeed speed;

  // Set-up: kSetups complete deployments; the last one is measured. Each
  // is timed between two host-speed readings, like a slice.
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  std::unique_ptr<Deployment> d;
  double slow_before = speed.sample();
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    const double t = now_us();
    d = deploy(w, args, i, tracer, app);
    const double took_s = (now_us() - t) / 1e6;
    const double slow_after = speed.sample();
    setup_raw_s.push_back(took_s);
    setup_s.push_back(took_s / std::sqrt(slow_before * slow_after));
    slow_before = slow_after;
  }
  // The torn-down deployments' journals are still being written back; let
  // that finish before the window, so it does not stall the first fsyncs.
  ::sync();

  Results r;
  Slices slices(speed);
  if (w.reactor) {
    run_open_reactor(*d, w, args, tracer, app, slices, r);
  } else {
    run_closed_sim(*d, w, args, tracer, app, slices, r);
  }
  d->fed->settle();
  if (args.diverge) {
    d->impl(kParties - 1, 0).set_value(make_state(args.seed, 0, 0xD1));
  }

  const std::vector<std::string> problems = correctness_gate(*d, w, r);
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "b2b_bench: correctness gate failed: %s\n", p.c_str());
    }
    return 3;
  }

  const double late_p99 = percentile(r.generator_late_ms, 0.99);
  if (w.reactor && !args.capacity && late_p99 > kMaxGeneratorLateMs) {
    std::fprintf(stderr,
                 "b2b_bench: invalid run: the load generator ran %.1f ms late "
                 "at p99 (limit %.0f ms)\n",
                 late_p99, kMaxGeneratorLateMs);
    return 4;
  }

  // Every reported time is at the quiet host's speed (host_speed.hpp).
  // The open loop's rate is fixed by its schedule; a closed loop's is what
  // the system sustains, the median over the slices.
  const double window_s = (slices.last().close_us - slices.first().open_us) / 1e6;
  const auto [closed_rate, closed_cpu] = closed_loop_rates(slices);
  const double changes_per_s = w.reactor ? r.changes / window_s : closed_rate;
  const double cpu_ms = w.reactor ? open_loop_cpu_ms(slices) : closed_cpu;
  const std::vector<double> run_ms = at_reference_speed(r.run_ms, slices);
  const std::vector<double> deal_ms = at_reference_speed(r.deal_ms, slices);
  const std::vector<double> raw_run_ms = as_measured(r.run_ms);
  const std::vector<double> raw_deal_ms = as_measured(r.deal_ms);
  std::fprintf(stderr,
               "%s seed=%llu, as measured: %llu changes in %.2f s (%.1f/s), runs=%zu "
               "(p50 %.3f ms, p99 %.3f ms), deals=%zu (p50 %.3f ms, p95 %.3f ms), "
               "setup median %.4f s; host slowdown median %.3f over %zu slices; at "
               "reference speed: runs p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, deals p50 "
               "%.3f ms, p90 %.3f ms, p99 %.3f ms\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(r.changes), window_s, r.changes / window_s,
               raw_run_ms.size(), median(raw_run_ms), percentile(raw_run_ms, 0.99),
               raw_deal_ms.size(), median(raw_deal_ms), percentile(raw_deal_ms, 0.95),
               median(setup_raw_s), slices.median_slowdown(), slices.size(),
               median(run_ms), percentile(run_ms, 0.90), percentile(run_ms, 0.99), median(deal_ms),
               percentile(deal_ms, 0.90), percentile(deal_ms, 0.99));

  if (!args.trace) {
    print_result(r, {
                        {"setup_s", median(setup_s), "s"},
                        {"changes_per_s", changes_per_s, "1/s"},
                        {"run_p50_ms", median(run_ms), "ms"},
                        {"run_p90_ms", percentile(run_ms, 0.90), "ms"},
                        {"deal_p50_ms", median(deal_ms), "ms"},
                        {"deal_p90_ms", percentile(deal_ms, 0.90), "ms"},
                        {"cpu_ms_per_change", cpu_ms, "ms"},
                        {"peak_rss_mb", r.peak_rss_mb, "MB"},
                    });
    return 0;
  }

  // --- per-layer metrics (traced run) ---
  // They describe the workload's own operations: on the sim, the
  // interleaved deals are kept out (their counts, evidence and spans).
  const double changes = static_cast<double>(std::max<std::uint64_t>(r.main_changes, 1));
  const Counts counts = r.after.counts - r.before.counts - r.deal_counts;
  auto count = [&](const std::string& name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  std::uint64_t evidence = 0;
  std::uint64_t stamps = 0;
  std::uint64_t anchors = 0;
  for (std::size_t p = 0; p < kParties; ++p) {
    const auto& records = d->fed->coordinator(d->names[p]).evidence().records();
    std::vector<char> in_deal(r.after.evidence_size[p], 0);
    if (!r.deal_evidence.empty()) {
      for (auto [lo, hi] : r.deal_evidence[p]) {
        std::fill(in_deal.begin() + lo, in_deal.begin() + hi, 1);
      }
    }
    for (std::size_t i = r.before.evidence_size[p]; i < r.after.evidence_size[p]; ++i) {
      if (in_deal[i]) continue;
      ++evidence;
      if (records[i].kind == core::evidence_kind::kEvidenceAnchor) ++anchors;
      if (core::Coordinator::decode_evidence_payload(records[i].payload).timestamp) {
        ++stamps;
      }
    }
  }
  const auto summary = tracer.summarize(
      [&](std::uint64_t op) { return op < kProbeOp && r.deal_ops.count(op) == 0; });
  auto span_mean_us = [&](const char* name) {
    auto it = summary.find(name);
    return it == summary.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / it->second.count;
  };
  auto span_total_us = [&](const char* name) {
    auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.total_us;
  };

  const double n1 = kParties - 1;  // recipients of a broadcast
  const double broadcast_signed = count("sent.propose") + count("sent.batch_propose") +
                                  count("sent.deal_enlist") + count("sent.deal_decision");
  const double signed_msgs = broadcast_signed + count("sent.respond");
  // A broadcast carries one signature for all its recipients; anchors are
  // signed too.
  const double protocol_signs = broadcast_signed / n1 + count("sent.respond") + anchors;
  // Each signed envelope is verified once on receipt; a decide carries the
  // n-1 responses, which each recipient verifies.
  const double verifies =
      signed_msgs + (count("sent.decide") + count("sent.batch_decide")) * n1;
  const double cpu_ms_per_change =
      (slices.last().close_cpu_us - slices.first().open_cpu_us - r.deal_cpu_us) / 1000.0 /
      changes;

  Probes probes;
  probe_crypto(*d, tracer, kProbeOp, probes);
  // The journal is complete on disk only once the federation is gone.
  const double journal_changes = r.changes + static_cast<double>(d->objects.size());
  d->fed.reset();
  const JournalTotals journal = read_journals(d->journal_root);
  d.reset();
  const std::size_t record_bytes =
      journal.records > 0 ? journal.bytes / journal.records : kStateBytes + 64;
  probe_journal(tracer, kProbeOp, record_bytes,
                (fs::path(args.workdir) / ("probe-" + std::to_string(::getpid()))).string(),
                probes);

  const double est_busy_ms =
      (protocol_signs * probes.sign_us + stamps * probes.tss_stamp_us +
       verifies * probes.verify_us +
       count("envelope_bytes") / 1024.0 * probes.sha256_us_per_kib) /
      1000.0 / changes;
  auto per_change = [&](double v) { return v / changes; };
  const std::vector<Metric> layer = {
      {"crypto.tss_stamps_per_change", per_change(stamps), "count"},
      {"crypto.signed_msgs_per_change", per_change(signed_msgs), "count"},
      {"crypto.rsa_signs_per_change", per_change(protocol_signs + stamps), "count"},
      {"crypto.sign_us", probes.sign_us, "us"},
      {"crypto.verify_us", probes.verify_us, "us"},
      {"crypto.tss_stamp_us", probes.tss_stamp_us, "us"},
      {"crypto.sha256_us_per_kib", probes.sha256_us_per_kib, "us"},
      {"crypto.est_busy_ms_per_change", est_busy_ms, "ms"},
      {"crypto.est_busy_share", est_busy_ms / cpu_ms_per_change, "ratio"},
      {"wire.envelopes_per_change", per_change(count("envelopes")), "count"},
      {"wire.envelope_bytes_per_change", per_change(count("envelope_bytes")), "B"},
      {"b2b.msgs_per_change.propose", per_change(count("sent.propose")), "count"},
      {"b2b.msgs_per_change.respond", per_change(count("sent.respond")), "count"},
      {"b2b.msgs_per_change.decide", per_change(count("sent.decide")), "count"},
      {"b2b.msgs_per_change.batch_propose", per_change(count("sent.batch_propose")), "count"},
      {"b2b.msgs_per_change.batch_decide", per_change(count("sent.batch_decide")), "count"},
      {"b2b.msgs_per_change.deal_enlist", per_change(count("sent.deal_enlist")), "count"},
      {"b2b.msgs_per_change.deal_decision", per_change(count("sent.deal_decision")), "count"},
      {"net.frames_per_change", per_change(count("frames")), "count"},
      {"net.wire_bytes_per_change", per_change(count("wire_bytes")), "B"},
      {"net.acks_per_change", per_change(count("acks")), "count"},
      {"net.retransmissions_per_change", per_change(count("retransmissions")), "count"},
      {"net.epoll_wakeups_per_change", per_change(count("epoll_wakeups")), "count"},
      {"net.timers_fired_per_change", per_change(count("timers_fired")), "count"},
      {"net.executor_queue_peak", r.after.executor_queue_peak, "count"},
      {"net.wait_ms_per_run", span_mean_us("b2b.await") / 1000.0, "ms"},
      {"store.journal_bytes_per_change", journal.bytes / journal_changes, "B"},
      {"store.journal_records_per_change", journal.records / journal_changes, "count"},
      {"store.append_us", probes.append_us, "us"},
      {"store.sync_us", probes.sync_us, "us"},
      {"b2b.submit_us_per_run", span_mean_us("b2b.submit"), "us"},
      {"b2b.evidence_records_per_change", per_change(evidence), "count"},
      {"b2b.anchors_per_change", per_change(anchors), "count"},
      {"b2b.deals_committed", static_cast<double>(r.deals_committed), "count"},
      {"b2b.violations", 0.0, "count"},  // the gate passed, so none
      {"apps.validate_calls_per_change", per_change(count("validate_calls")), "count"},
      {"apps.apply_us_per_change", per_change(span_total_us("apps.apply_state")), "us"},
      {"load.generator_late_p99_ms", late_p99, "ms"},
      {"load.backlog_peak", static_cast<double>(r.backlog_peak), "count"},
      {"load.client_queue_wait_p50_ms", median(r.client_wait_ms), "ms"},
      {"load.run_samples", static_cast<double>(r.run_ms.size()), "count"},
      {"load.deal_samples", static_cast<double>(r.deal_ms.size()), "count"},
      {"load.run_p99_ms", percentile(run_ms, 0.99), "ms"},
      {"load.deal_p99_ms", percentile(deal_ms, 0.99), "ms"},
      {"load.failed_ratio", static_cast<double>(r.failed) / r.attempted, "ratio"},
      {"trace.changes_per_s", changes_per_s, "1/s"},
      {"host.slowdown", slices.median_slowdown(), "ratio"},
      {"trace.spans", static_cast<double>(tracer.size()), "count"},
  };
  print_span_summary(tracer.summarize([](std::uint64_t) { return true; }));
  if (!args.trace_out.empty() && !tracer.write_jsonl(args.trace_out)) {
    std::fprintf(stderr, "b2b_bench: cannot write %s\n", args.trace_out.c_str());
  }
  print_result(r, layer);
  return 0;
}
