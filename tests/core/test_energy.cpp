// Tests for the energy accountant.
#include <gtest/gtest.h>

#include "core/energy.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

CarbonIntensitySeries flat_intensity(double g_per_kwh, SimTime start,
                                     SimTime end) {
  TimeSeries ts("gCO2/kWh");
  for (SimTime t = start; t <= end; t += Duration::hours(1.0)) {
    ts.append(t, g_per_kwh);
  }
  return CarbonIntensitySeries(std::move(ts));
}

class EnergyTest : public ::testing::Test {
 protected:
  SimTime start_ = sim_time_from_date({2022, 6, 1});
  SimTime end_ = start_ + Duration::days(10.0);
  EnergyAccountant acct_{PriceModel{}, flat_intensity(100.0, start_, end_)};

  TimeSeries constant_power(double kw) const {
    TimeSeries ts("kW");
    for (SimTime t = start_; t <= end_; t += Duration::minutes(30.0)) {
      ts.append(t, kw);
    }
    return ts;
  }
};

TEST_F(EnergyTest, ConstantDrawAccounting) {
  const auto account = acct_.account(constant_power(3220.0));
  EXPECT_NEAR(account.span.day(), 10.0, 1e-9);
  EXPECT_NEAR(account.energy.to_mwh(), 3.22 * 240.0, 0.01);
  EXPECT_NEAR(account.mean_power.kw(), 3220.0, 1e-6);
  // Summer price 0.25 GBP/kWh.
  EXPECT_NEAR(account.cost.pounds(), 3220.0 * 240.0 * 0.25, 10.0);
  // 100 g/kWh.
  EXPECT_NEAR(account.scope2.t(), 3220.0 * 240.0 * 100.0 / 1e6, 0.1);
}

TEST_F(EnergyTest, WindowedAccounting) {
  const auto series = constant_power(1000.0);
  const auto account =
      acct_.account(series.slice(start_, start_ + Duration::days(1.0)));
  EXPECT_NEAR(account.energy.to_kwh(), 1000.0 * 23.5, 1.0);  // half-open
}

TEST_F(EnergyTest, TooFewSamplesThrow) {
  TimeSeries ts("kW");
  ts.append(start_, 1.0);
  EXPECT_THROW(acct_.account(ts), InvalidArgument);
}

}  // namespace
}  // namespace hpcem
