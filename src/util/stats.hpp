// Streaming and batch statistics used by the telemetry analysis pipeline.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace hpcem {

/// Numerically stable streaming moments (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  /// Merge another accumulator into this one (parallel reduction support).
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const;
  /// Population variance; 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Neumaier-compensated running sum.
///
/// The facility simulator maintains the running-job fleet power as a long
/// sequence of add/subtract pairs; naive accumulation drifts by an ulp per
/// operation and a months-long campaign performs hundreds of thousands of
/// them.  The compensation term keeps the error at a single rounding of the
/// peak magnitude, independent of the operation count.
class CompensatedSum {
 public:
  /// Inline: runs once (or more) per telemetry sample on the append path.
  void add(double x) {
    // Neumaier's variant of Kahan summation: compensate whichever operand
    // loses low-order bits in the addition.
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      compensation_ += (sum_ - t) + x;
    } else {
      compensation_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  void subtract(double x) { add(-x); }
  [[nodiscard]] double value() const { return sum_ + compensation_; }
  void reset() {
    sum_ = 0.0;
    compensation_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Batch summary of a sample: order statistics plus moments.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p05 = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Compute a full summary of `xs` (copies and sorts internally).
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Linear-interpolated percentile of `sorted` (q in [0,1]); requires a
/// sorted, non-empty input.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double q);

/// Exponentially weighted moving average filter.
class Ewma {
 public:
  /// `alpha` in (0, 1]: weight given to each new observation.
  explicit Ewma(double alpha);
  double add(double x);
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] bool primed() const { return primed_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

}  // namespace hpcem
