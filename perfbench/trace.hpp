// In-memory span recorder for the benchmark's traced runs.
//
// A span has a name, a start and an end (microseconds on the benchmark's
// steady clock), the span that caused it, and the id of the operation
// (state run, batch, deal, or calibration probe) it belongs to. Spans are
// recorded only around calls the benchmark makes into the middleware:
// submit, await, settle, the object callbacks and the calibration probes.
// Nothing is written until the run ends; write_jsonl() then emits every
// span with its self time (its duration minus the part of it that its
// children cover).
//
// With tracing off every call is a single branch, so the untraced runs
// that give the end-to-end metrics pay nothing measurable.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Microseconds since the first call, on the steady clock.
inline double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::uint64_t parent = 0;  // span id, 0 = root
    double start_us = 0;
    double end_us = -1;  // < 0 while open
  };

  /// Per-name totals over every closed span.
  struct Summary {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };

  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span; returns its id (0 when tracing is off). `parent` 0
  /// means "the span currently open on this thread, if any"; `op` 0
  /// inherits the parent's operation.
  std::uint64_t begin(const char* name, std::uint64_t op = 0,
                      std::uint64_t parent = 0) {
    if (!on_) return 0;
    if (parent == 0) parent = tl_current_;
    const double t = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    if (op == 0 && parent != 0) op = spans_[parent - 1].op;
    spans_.push_back(Span{name, op, parent, t, -1});
    return spans_.size();
  }

  void end(std::uint64_t id) {
    if (id == 0) return;
    const double t = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_us = t;
  }

  /// RAII span that is also the parent of spans opened on this thread
  /// while it is open.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t op = 0,
          std::uint64_t parent = 0)
        : tracer_(tracer), prev_(tl_current_) {
      id_ = tracer_.begin(name, op, parent);
      if (id_ != 0) tl_current_ = id_;
    }
    ~Scope() {
      if (id_ == 0) return;
      tracer_.end(id_);
      tl_current_ = prev_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint64_t prev_;
    std::uint64_t id_ = 0;
  };

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Self time of every span (index = id - 1); call once recording ended.
  std::vector<double> self_times() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != 0 && s.end_us >= 0) {
        children[s.parent - 1].push_back({s.start_us, s.end_us});
      }
    }
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_us < 0) continue;
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0;
      double cursor = s.start_us;
      for (auto [lo, hi] : kids) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, s.end_us);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
      self[i] = (s.end_us - s.start_us) - covered;
    }
    return self;
  }

  /// Totals of the spans whose operation id `keep` accepts.
  template <typename Keep>
  std::map<std::string, Summary> summarize(Keep keep) const {
    const std::vector<double> self = self_times();
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_us < 0 || !keep(s.op)) continue;
      Summary& sum = out[s.name];
      ++sum.count;
      sum.total_us += s.end_us - s.start_us;
      sum.self_us += self[i];
    }
    return out;
  }

  /// One JSON object per line: id, op, parent, name, start, end, self.
  bool write_jsonl(const std::string& path) const {
    const std::vector<double> self = self_times();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_us < 0) continue;
      std::fprintf(f,
                   "{\"id\":%zu,\"op\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n",
                   i + 1, static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.parent), s.name,
                   s.start_us, s.end_us, self[i]);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  static inline thread_local std::uint64_t tl_current_ = 0;
};

}  // namespace perfbench
