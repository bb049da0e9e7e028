// Tests for the demand-response schedule and cap-driven policy chooser.
#include <gtest/gtest.h>

#include "grid/demand_response.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

GridStressEvent event(double start_h, double end_h, double cap_kw) {
  GridStressEvent e;
  e.start = SimTime(start_h * 3600.0);
  e.end = SimTime(end_h * 3600.0);
  e.cabinet_cap = Power::kilowatts(cap_kw);
  return e;
}

TEST(DemandResponse, AddSortsAndValidates) {
  DemandResponseSchedule sched;
  sched.add(event(20, 22, 2000));
  sched.add(event(10, 12, 2500));
  ASSERT_EQ(sched.events().size(), 2u);
  EXPECT_LT(sched.events()[0].start.sec(), sched.events()[1].start.sec());
}

TEST(DemandResponse, OverlapRejected) {
  DemandResponseSchedule sched;
  sched.add(event(10, 14, 2500));
  EXPECT_THROW(sched.add(event(12, 16, 2000)), InvalidArgument);
  EXPECT_THROW(sched.add(event(8, 11, 2000)), InvalidArgument);
  // A rejected event leaves the schedule unchanged.
  ASSERT_EQ(sched.events().size(), 1u);
  // Back-to-back windows are fine.
  EXPECT_NO_THROW(sched.add(event(14, 15, 2000)));
}

TEST(DemandResponse, DegenerateEventsRejected) {
  DemandResponseSchedule sched;
  EXPECT_THROW(sched.add(event(10, 10, 2500)), InvalidArgument);
  EXPECT_THROW(sched.add(event(10, 12, 0.0)), InvalidArgument);
  EXPECT_TRUE(sched.events().empty());
}

std::vector<PolicyOption> options() {
  // Draw/slowdown shaped like the real lever set.
  PolicyOption baseline;
  baseline.predicted_cabinet = Power::kilowatts(3220.0);
  baseline.mean_slowdown = 0.0;
  PolicyOption perfdet;
  perfdet.predicted_cabinet = Power::kilowatts(3010.0);
  perfdet.mean_slowdown = 0.003;
  PolicyOption lowfreq;
  lowfreq.predicted_cabinet = Power::kilowatts(2530.0);
  lowfreq.mean_slowdown = 0.07;
  PolicyOption floor;
  floor.predicted_cabinet = Power::kilowatts(2100.0);
  floor.mean_slowdown = 0.35;
  return {baseline, perfdet, lowfreq, floor};
}

TEST(PolicyChooser, PicksLeastDamagingFittingOption) {
  const auto opts = options();
  EXPECT_NEAR(choose_policy_for_cap(opts, Power::kilowatts(3300.0))
                  .predicted_cabinet.kw(),
              3220.0, 1e-9);
  EXPECT_NEAR(choose_policy_for_cap(opts, Power::kilowatts(3100.0))
                  .predicted_cabinet.kw(),
              3010.0, 1e-9);
  EXPECT_NEAR(choose_policy_for_cap(opts, Power::kilowatts(2600.0))
                  .predicted_cabinet.kw(),
              2530.0, 1e-9);
  EXPECT_NEAR(choose_policy_for_cap(opts, Power::kilowatts(2200.0))
                  .predicted_cabinet.kw(),
              2100.0, 1e-9);
}

TEST(PolicyChooser, BestEffortWhenNothingFits) {
  const auto opts = options();
  const auto& chosen = choose_policy_for_cap(opts, Power::kilowatts(500.0));
  EXPECT_NEAR(chosen.predicted_cabinet.kw(), 2100.0, 1e-9);
}

TEST(PolicyChooser, EmptyOptionsThrow) {
  EXPECT_THROW(choose_policy_for_cap({}, Power::kilowatts(1000.0)),
               InvalidArgument);
}

}  // namespace
}  // namespace hpcem
