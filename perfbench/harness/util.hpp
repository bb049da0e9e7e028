// Small helpers shared by the benchmark harness: a self-contained seeded
// RNG (so generated inputs do not change when the library's own RNG
// does), a monotonic stopwatch and percentiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, fast and fully specified, so a seed means the same
/// request stream on every compiler and library version.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t state_;
};

/// Seconds since construction, from the steady clock.
class Stopwatch {
 public:
  Stopwatch() : begin_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point begin_;
};

/// Nanoseconds on the steady clock (for per-request stamps).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile by linear interpolation between closest ranks; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double f = pos - static_cast<double>(lo);
  return v[lo] + f * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace perfbench
