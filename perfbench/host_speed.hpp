// Host-speed reference for the benchmark's timings.
//
// The benchmark runs on shared virtual machines whose speed drifts: for
// stretches of a second to minutes, code that touches memory runs up to
// ~1.7x slower (other tenants on the same physical cores), while pure
// register arithmetic barely slows. Measured as is, a whole run can land
// in a slow stretch and read 1.7x slower than the next.
//
// So the driver cuts its measuring window into short slices and, at every
// slice boundary, times two fixed reference kernels on its own thread.
// Each slice's times are divided by the slice's slowdown (the kernels'
// time there over their time on a quiet host), which puts every reported
// time at the quiet host's speed. The kernels belong to the benchmark and
// touch only its own buffers, so no change to the middleware can move
// them. They stress what the slow stretches slow: one fills short runs of
// 64-bit limbs at scattered offsets of a 64 KiB buffer (the access
// pattern of the middleware's big-integer arithmetic, which dominates its
// CPU time), the other chases dependent loads through a 32 KiB table.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace.hpp"

namespace perfbench {

class HostSpeed {
 public:
  /// The kernels' median repetition times on a quiet 4-vCPU Xeon VM (the
  /// host the benchmark was defined on).
  static constexpr double kFillNominalUs = 24.0;
  static constexpr double kChaseNominalUs = 38.0;

  HostSpeed() : fill_(kFillWords), chase_(kChaseWords) {
    for (std::size_t i = 0; i < kChaseWords; ++i) {
      chase_[i] = static_cast<std::uint32_t>((i * 4099 + 1) % kChaseWords);
    }
  }

  /// Times kReps repetitions of each kernel and returns the geometric mean
  /// of their median times over their nominal times: 1 on the quiet host,
  /// 1.5 in a stretch that runs 1.5x slower. The first repetition warms
  /// the buffers, and the median keeps one preemption from moving it.
  double sample() {
    const double fill_us = median_us([&] { return fill(); });
    const double chase_us = median_us([&] { return chase(); });
    return std::sqrt(fill_us / kFillNominalUs * (chase_us / kChaseNominalUs));
  }

 private:
  static constexpr int kReps = 5;
  static constexpr std::size_t kFillWords = 8192;   // 64 KiB
  static constexpr std::size_t kChaseWords = 8192;  // 32 KiB
  static constexpr int kFills = 3000;
  static constexpr int kLoads = 20000;

  template <typename F>
  double median_us(F&& kernel) {
    double times[kReps];
    for (double& t : times) {
      const double start = now_us();
      sink_ = sink_ + kernel();
      t = now_us() - start;
    }
    std::sort(times, times + kReps);
    return times[kReps / 2];
  }

  /// kFills runs of 16 to 47 limbs, each written and one limb read back.
  std::uint64_t fill() {
    std::uint64_t sum = 0;
    for (int i = 0; i < kFills; ++i) {
      const std::size_t at = static_cast<std::size_t>(i) * 37 * 8 % (kFillWords - 64);
      const std::size_t n = 16 + (i & 31);
      for (std::size_t j = 0; j < n; ++j) fill_[at + j] = static_cast<std::uint64_t>(i) + sum;
      sum += fill_[at + (i & 15)];
    }
    return sum;
  }

  /// kLoads loads, each at the index the previous one read.
  std::uint64_t chase() {
    std::uint32_t at = 0;
    for (int i = 0; i < kLoads; ++i) at = chase_[at];
    return at;
  }

  std::vector<std::uint64_t> fill_;
  std::vector<std::uint32_t> chase_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace perfbench
