// Short-term facility power forecasting.
//
// A grid-citizen facility (paper §3) must be able to tell its grid
// operator what it will draw tomorrow.  The forecaster combines the two
// structures the telemetry actually has: the weekly submission-cycle
// profile (from telemetry/seasonal.hpp) and a slowly-moving level tracked
// by an EWMA over the deseasonalised residual — so it follows operational
// changes (the paper's BIOS/frequency steps) within days while keeping
// the weekday/weekend shape.
#pragma once

#include "telemetry/seasonal.hpp"
#include "telemetry/timeseries.hpp"
#include "util/stats.hpp"

namespace hpcem {

/// Weekly-profile + EWMA-level forecaster.
class PowerForecaster {
 public:
  /// Fit to history (needs >= 2 weeks).  `level_alpha` controls how fast
  /// the level adapts to regime changes (per-sample EWMA weight).
  explicit PowerForecaster(const TimeSeries& history,
                           double level_alpha = 0.02);

  /// Point forecast for an instant after the history window.
  [[nodiscard]] double forecast(SimTime t) const;

  /// Forecast series over [start, end) at `step` spacing.
  [[nodiscard]] TimeSeries forecast_series(SimTime start, SimTime end,
                                           Duration step) const;

  [[nodiscard]] const WeeklyDecomposition& weekly() const { return weekly_; }
  [[nodiscard]] double level() const { return level_; }

 private:
  WeeklyDecomposition weekly_;
  double level_ = 0.0;  ///< EWMA of the deseasonalised residual
};

}  // namespace hpcem
