// Tests for the short-term power forecaster.
#include <gtest/gtest.h>

#include <cmath>

#include "telemetry/forecast.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hpcem {
namespace {

TimeSeries weekly_power(double weekday, double weekend, double noise,
                        SimTime start, int weeks, std::uint64_t seed,
                        double level_shift_after_days = -1.0,
                        double shift = 0.0) {
  Rng rng(seed);
  TimeSeries ts("kW");
  for (int h = 0; h < weeks * 7 * 24; ++h) {
    const SimTime t = start + Duration::hours(h);
    double v = (day_of_week(t) < 5 ? weekday : weekend) +
               rng.normal(0.0, noise);
    if (level_shift_after_days >= 0.0 &&
        h >= level_shift_after_days * 24.0) {
      v += shift;
    }
    ts.append(t, v);
  }
  return ts;
}

const SimTime kMonday = sim_time_from_date({2022, 1, 3});

TEST(Forecast, ReproducesWeeklyShapeOnCleanData) {
  const TimeSeries hist = weekly_power(3300, 3100, 5.0, kMonday, 6, 1);
  const PowerForecaster fc(hist);
  // Forecast the following Tuesday noon and Sunday noon.
  const SimTime next = kMonday + Duration::days(42.0);
  EXPECT_NEAR(fc.forecast(next + Duration::days(1.0) +
                          Duration::hours(12.0)),
              3300.0, 15.0);
  EXPECT_NEAR(fc.forecast(next + Duration::days(6.0) +
                          Duration::hours(12.0)),
              3100.0, 15.0);
}

TEST(Forecast, NextWeekMaeSmallOnStationaryData) {
  const TimeSeries hist = weekly_power(3300, 3100, 25.0, kMonday, 8, 2);
  const PowerForecaster fc(hist);
  const TimeSeries future = weekly_power(
      3300, 3100, 25.0, kMonday + Duration::days(56.0), 1, 3);
  // MAE should be close to the noise scale (~sigma * sqrt(2/pi) ~ 20).
  double abs_error = 0.0;
  for (const auto& s : future.samples()) {
    abs_error += std::fabs(s.value - fc.forecast(s.time));
  }
  EXPECT_LT(abs_error / static_cast<double>(future.size()), 30.0);
}

TEST(Forecast, AdaptsToAnOperationalStepChange) {
  // History contains a -210 kW step three weeks before the end (the BIOS
  // change); the forecast must track the new level, not the old mean.
  const TimeSeries hist = weekly_power(3300, 3100, 10.0, kMonday, 8, 4,
                                       /*shift after=*/35.0, -210.0);
  const PowerForecaster fc(hist, 0.02);
  const SimTime next_tue = kMonday + Duration::days(57.0) +
                           Duration::hours(12.0);
  // Expect much closer to 3090 than to 3300.
  EXPECT_LT(fc.forecast(next_tue), 3230.0);
  EXPECT_GT(fc.forecast(next_tue), 3000.0);
}

TEST(Forecast, HigherAlphaAdaptsFaster) {
  const TimeSeries hist = weekly_power(3300, 3100, 10.0, kMonday, 8, 5,
                                       35.0, -210.0);
  const PowerForecaster slow(hist, 0.005);
  const PowerForecaster fast(hist, 0.05);
  const SimTime probe = kMonday + Duration::days(57.0) +
                        Duration::hours(12.0);
  EXPECT_LT(fast.forecast(probe), slow.forecast(probe));
}

TEST(Forecast, SeriesGenerationCoversWindow) {
  const TimeSeries hist = weekly_power(3300, 3100, 5.0, kMonday, 4, 6);
  const PowerForecaster fc(hist);
  const SimTime f0 = kMonday + Duration::days(28.0);
  const TimeSeries fs =
      fc.forecast_series(f0, f0 + Duration::days(1.0), Duration::hours(1.0));
  EXPECT_EQ(fs.size(), 24u);
  EXPECT_THROW(fc.forecast_series(f0, f0, Duration::hours(1.0)),
               InvalidArgument);
  EXPECT_THROW(
      fc.forecast_series(f0, f0 + Duration::days(1.0),
                         Duration::seconds(0.0)),
      InvalidArgument);
}

TEST(Forecast, RequiresTwoWeeksOfHistory) {
  const TimeSeries hist = weekly_power(3300, 3100, 5.0, kMonday, 1, 7);
  EXPECT_THROW(PowerForecaster{hist}, InvalidArgument);
}

}  // namespace
}  // namespace hpcem
