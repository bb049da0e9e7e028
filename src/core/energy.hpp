// Energy accounting over telemetry: kWh, cost and scope-2 emissions.
#pragma once

#include "grid/carbon.hpp"
#include "telemetry/timeseries.hpp"
#include "util/units.hpp"

namespace hpcem {

/// Result of accounting a power series over a window.
struct EnergyAccount {
  Duration span;
  Energy energy;
  Power mean_power;
  Cost cost;
  CarbonMass scope2;
};

/// Integrates power telemetry into energy, cost and scope-2 emissions.
class EnergyAccountant {
 public:
  EnergyAccountant(PriceModel price, CarbonIntensitySeries intensity);

  /// Account a kW-valued power channel over its full span.
  [[nodiscard]] EnergyAccount account(const TimeSeries& power_kw) const;

  [[nodiscard]] const CarbonIntensitySeries& intensity() const {
    return intensity_;
  }
  [[nodiscard]] const PriceModel& price() const { return price_; }

 private:
  PriceModel price_;
  CarbonIntensitySeries intensity_;
};

}  // namespace hpcem
