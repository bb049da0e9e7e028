#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hpcem {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
}

double RunningStats::mean() const {
  require_state(n_ > 0, "RunningStats::mean on empty accumulator");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile_sorted(std::span<const double> sorted, double q) {
  require(!sorted.empty(), "percentile_sorted: empty input");
  require(q >= 0.0 && q <= 1.0, "percentile_sorted: q must be in [0,1]");
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  RunningStats rs;
  for (double x : xs) rs.add(x);
  s.count = xs.size();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = sorted.front();
  s.max = sorted.back();
  s.p05 = percentile_sorted(sorted, 0.05);
  s.p25 = percentile_sorted(sorted, 0.25);
  s.median = percentile_sorted(sorted, 0.50);
  s.p75 = percentile_sorted(sorted, 0.75);
  s.p95 = percentile_sorted(sorted, 0.95);
  return s;
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  require(alpha > 0.0 && alpha <= 1.0, "Ewma: alpha must be in (0,1]");
}

double Ewma::add(double x) {
  if (!primed_) {
    value_ = x;
    primed_ = true;
  } else {
    value_ += alpha_ * (x - value_);
  }
  return value_;
}

}  // namespace hpcem
