#include "core/energy.hpp"

#include "util/error.hpp"

namespace hpcem {

EnergyAccountant::EnergyAccountant(PriceModel price,
                                   CarbonIntensitySeries intensity)
    : price_(price), intensity_(std::move(intensity)) {}

EnergyAccount EnergyAccountant::account(const TimeSeries& power_kw) const {
  require(power_kw.size() >= 2, "EnergyAccountant: need >= 2 samples");
  EnergyAccount a;
  a.span = power_kw.span();
  a.energy = Energy::kilojoules(power_kw.integrate());  // kW * s = kJ
  a.mean_power = a.energy / a.span;
  a.cost = price_.cost_of(power_kw);
  a.scope2 = intensity_.emissions_of(power_kw);
  return a;
}

}  // namespace hpcem
