// Time-series container for facility telemetry.
//
// A `TimeSeries` is an append-only sequence of (SimTime, value) samples in
// non-decreasing time order.  It is the interchange type between the
// simulator (which produces cabinet power samples) and the analysis layer
// (which computes means over windows, integrates energy, and detects the
// operational change points the paper's figures show).
//
// The series is *streaming-first*: count, compensated sum, min/max and the
// trapezoidal time integral are maintained online at append time, so
// `mean()`, `integrate()` and the aggregate accessors are O(1) however long
// the campaign ran.  Window queries (`slice`, `mean_over`, `window_bounds`)
// binary-search the time axis, so a windowed summary costs O(log n + k)
// rather than a full scan.  For memory-bounded campaigns a retention cap
// decimates the *raw* samples (keeping every 2^k-th); the online aggregates
// are always exact over everything ever appended.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace hpcem {

/// One telemetry sample.
struct Sample {
  SimTime time;
  double value = 0.0;
};

/// Append-only, time-ordered sample sequence with analysis helpers.
class TimeSeries {
 public:
  TimeSeries() = default;
  /// Construct with a unit label used in exports ("kW", "gCO2/kWh", ...).
  explicit TimeSeries(std::string unit) : unit_(std::move(unit)) {}

  /// Append a sample; `time` must be >= the last appended time.  Inline:
  /// this is the telemetry hot path (one call per channel per sim tick).
  void append(SimTime time, double value) {
    if (total_appended_ > 0) {
      // Message built only on the failure path: this runs per sample.
      if (time < last_time_) {
        throw InvalidArgument(
            "TimeSeries::append: samples must be time-ordered");
      }
      integral_.add(0.5 * (value + last_value_) *
                    (time - last_time_).sec());
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    } else {
      first_time_ = time;
      min_ = value;
      max_ = value;
    }
    sum_.add(value);
    // Retain every keep_stride_-th appended sample (all of them until a
    // retention cap forces decimation).  The stride is always a power of
    // two, so the divisibility test is a mask.
    if ((total_appended_ & (keep_stride_ - 1)) == 0) {
      samples_.push_back({time, value});
      if (max_raw_ != 0 && samples_.size() > max_raw_) enforce_retention();
    }
    ++total_appended_;
    last_time_ = time;
    last_value_ = value;
  }

  /// Retained raw samples (== appended count unless a retention cap
  /// triggered decimation).
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return total_appended_ == 0; }
  [[nodiscard]] const Sample& operator[](std::size_t i) const {
    return samples_[i];
  }
  [[nodiscard]] std::span<const Sample> samples() const { return samples_; }
  [[nodiscard]] const std::string& unit() const { return unit_; }

  // -- Online aggregates: exact over every appended sample, O(1). ----------

  /// Total samples ever appended (survives decimation).
  [[nodiscard]] std::size_t total_appended() const { return total_appended_; }
  /// Compensated sum of all appended values.
  [[nodiscard]] double value_sum() const { return sum_.value(); }
  [[nodiscard]] double value_min() const;
  [[nodiscard]] double value_max() const;
  /// Mean of all appended samples; throws if empty.
  [[nodiscard]] double mean() const;
  /// Time-weighted trapezoidal integral interpreting values as a rate
  /// (e.g. W -> J).  Exact over every appended sample.
  [[nodiscard]] double integrate() const { return integral_.value(); }

  /// Convenience for power series in watts: integral as Energy.
  [[nodiscard]] Energy integrate_power() const {
    return Energy::joules(integrate());
  }

  [[nodiscard]] SimTime start_time() const;
  [[nodiscard]] SimTime end_time() const;
  [[nodiscard]] Duration span() const;

  // -- Retention. -----------------------------------------------------------

  /// Bound retained raw samples to `cap` (0 restores unbounded retention
  /// for future appends; already-dropped samples are gone).  When the cap
  /// is exceeded every other retained sample is dropped, doubling the
  /// keep-stride, so memory stays <= cap while the retained subsample
  /// remains uniformly spaced.  Aggregates are unaffected; raw-sample
  /// queries (`slice`, `mean_over`, `values`, exports) see the decimated
  /// subsample.
  void set_max_raw_samples(std::size_t cap);
  [[nodiscard]] std::size_t max_raw_samples() const { return max_raw_; }
  /// True once decimation has dropped at least one sample.
  [[nodiscard]] bool decimated() const { return keep_stride_ > 1; }
  /// Current keep-stride: every `keep_stride()`-th appended sample is
  /// retained (1 = everything).
  [[nodiscard]] std::size_t keep_stride() const { return keep_stride_; }

  // -- Windowed queries: O(log n + k) over retained samples. ----------------

  /// Half-open index range [first, last) of retained samples with
  /// start <= time < end (binary search).
  [[nodiscard]] std::pair<std::size_t, std::size_t> window_bounds(
      SimTime start, SimTime end) const;

  /// Values only, in time order.
  [[nodiscard]] std::vector<double> values() const;

  /// Sub-series with start <= t < end.
  [[nodiscard]] TimeSeries slice(SimTime start, SimTime end) const;

  /// Arithmetic mean of sample values in [start, end); throws if empty.
  [[nodiscard]] double mean_over(SimTime start, SimTime end) const;
  /// Full summary statistics of all retained sample values.
  [[nodiscard]] Summary summary() const;

  /// Piecewise-linear interpolation at `t`; clamps outside the range.
  /// Throws on an empty series.
  [[nodiscard]] double value_at(SimTime t) const;

  /// Resample to a fixed interval by bucket-averaging; buckets with no
  /// samples take the interpolated value at the bucket centre.
  [[nodiscard]] TimeSeries resample(Duration interval) const;

 private:
  void enforce_retention();

  std::string unit_;
  std::vector<Sample> samples_;

  // Online accumulators (exact over every appended sample).
  std::size_t total_appended_ = 0;
  CompensatedSum sum_;
  CompensatedSum integral_;
  double min_ = 0.0;
  double max_ = 0.0;
  SimTime first_time_{};
  // The last *appended* sample (may be newer than samples_.back() under
  // decimation); the trapezoid increment integrates against it.
  SimTime last_time_{};
  double last_value_ = 0.0;

  // Retention state.
  std::size_t max_raw_ = 0;      ///< 0 = unbounded
  std::size_t keep_stride_ = 1;  ///< retain appends with index % stride == 0
};

}  // namespace hpcem
