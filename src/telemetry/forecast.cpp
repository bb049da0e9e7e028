#include "telemetry/forecast.hpp"

#include "util/error.hpp"

namespace hpcem {

PowerForecaster::PowerForecaster(const TimeSeries& history,
                                 double level_alpha) {
  weekly_ = decompose_weekly(history);  // validates >= 2 weeks
  Ewma level(level_alpha);
  for (const auto& s : history.samples()) {
    level.add(s.value - weekly_.profile_at(s.time));
  }
  level_ = level.value();
}

double PowerForecaster::forecast(SimTime t) const {
  return weekly_.profile_at(t) + level_;
}

TimeSeries PowerForecaster::forecast_series(SimTime start, SimTime end,
                                            Duration step) const {
  require(end > start, "forecast_series: end must follow start");
  require(step.sec() > 0.0, "forecast_series: step must be positive");
  TimeSeries out("kW");
  for (SimTime t = start; t < end; t += step) {
    out.append(t, forecast(t));
  }
  return out;
}

}  // namespace hpcem
