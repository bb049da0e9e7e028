// Tests for the cooling/PUE model.
#include <gtest/gtest.h>

#include "power/cooling.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

TEST(Cooling, FreeCoolingBelowThreshold) {
  const CoolingModel m;
  EXPECT_DOUBLE_EQ(m.pue_at(5.0), 1.05);
  EXPECT_DOUBLE_EQ(m.pue_at(18.0), 1.05);
  EXPECT_DOUBLE_EQ(m.pue_at(-10.0), 1.05);
}

TEST(Cooling, MechanicalAssistAboveThreshold) {
  const CoolingModel m;
  EXPECT_NEAR(m.pue_at(23.0), 1.05 + 5.0 * 0.012, 1e-12);
  EXPECT_GT(m.pue_at(30.0), m.pue_at(20.0));
}

TEST(Cooling, CeilingEnforced) {
  const CoolingModel m;
  EXPECT_DOUBLE_EQ(m.pue_at(100.0), 1.35);
}

TEST(Cooling, FacilityPowerScalesIt) {
  const CoolingModel m;
  const Power it = Power::kilowatts(3000.0);
  EXPECT_NEAR(m.facility_power(it, 10.0).kw(), 3150.0, 1e-9);
  EXPECT_NEAR(m.overhead_power(it, 10.0).kw(), 150.0, 1e-9);
  EXPECT_THROW(m.facility_power(Power::watts(-1.0), 10.0),
               InvalidArgument);
}

TEST(Cooling, SavedItPowerSavesOverheadToo) {
  // The paper's cooling argument: a node-level saving is amplified by PUE
  // at the facility meter.
  const CoolingModel m;
  const double before = m.facility_power(Power::kilowatts(3220.0), 22.0).kw();
  const double after = m.facility_power(Power::kilowatts(2530.0), 22.0).kw();
  const double it_saving = 3220.0 - 2530.0;
  EXPECT_GT(before - after, it_saving);
}

TEST(Cooling, MeanPue) {
  TimeSeries temp("degC");
  temp.append(SimTime(0.0), 10.0);   // 1.05
  temp.append(SimTime(1.0), 28.0);   // 1.05 + 10*0.012 = 1.17
  const CoolingModel m;
  EXPECT_NEAR(m.mean_pue(temp), (1.05 + 1.17) / 2.0, 1e-12);
  EXPECT_THROW(m.mean_pue(TimeSeries{}), InvalidArgument);
}

TEST(Cooling, InvalidParamsRejected) {
  CoolingParams bad;
  bad.base_pue = 0.9;
  EXPECT_THROW(CoolingModel{bad}, InvalidArgument);
  bad = {};
  bad.max_pue = 1.0;
  EXPECT_THROW(CoolingModel{bad}, InvalidArgument);
  bad = {};
  bad.pue_per_degree = -0.1;
  EXPECT_THROW(CoolingModel{bad}, InvalidArgument);
}

}  // namespace
}  // namespace hpcem
