// Cooling overhead model (PUE as a function of outdoor conditions).
//
// The paper's §3 lists cooling among the practical reasons to cut power
// draw: "Higher power draw by HPC systems lead to higher cooling
// requirements increasing the overheads of running an HPC system."  The
// model: an evaporative-cooled plant runs near-free when the outdoor
// temperature is below a free-cooling threshold; above it, mechanical
// assistance adds overhead per degree.  PUE multiplies IT power into total
// facility power, so every kW saved on the nodes saves PUE kW at the meter
// — the cooling amplification of the paper's levers.
#pragma once

#include "telemetry/timeseries.hpp"
#include "util/units.hpp"

namespace hpcem {

/// Evaporative cooling plant parameters.
struct CoolingParams {
  /// PUE with full free cooling (pumps, fans, distribution losses).
  double base_pue = 1.05;
  /// Outdoor temperature up to which free cooling suffices, degC.
  double free_cooling_max_c = 18.0;
  /// Additional PUE per degree above the free-cooling threshold.
  double pue_per_degree = 0.012;
  /// Hard ceiling (plant design limit).
  double max_pue = 1.35;
};

/// Cooling plant: maps outdoor temperature to PUE and IT power to total.
class CoolingModel {
 public:
  explicit CoolingModel(CoolingParams params = {});

  [[nodiscard]] double pue_at(double outdoor_c) const;
  [[nodiscard]] Power facility_power(Power it_power, double outdoor_c) const;
  /// Overhead (non-IT) power at a given condition.
  [[nodiscard]] Power overhead_power(Power it_power, double outdoor_c) const;

  /// Mean PUE over a temperature series.
  [[nodiscard]] double mean_pue(const TimeSeries& outdoor_c) const;

  [[nodiscard]] const CoolingParams& params() const { return params_; }

 private:
  CoolingParams params_;
};

}  // namespace hpcem
