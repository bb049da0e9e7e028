// Tests for the scope-3 embodied audit.
#include <gtest/gtest.h>

#include "core/embodied_audit.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

TEST(EmbodiedAudit, Archer2TotalOrderOfMagnitude) {
  const auto audit = EmbodiedAudit::archer2();
  // ~9 ktCO2e for the full configuration (DRI-scoping-style estimates).
  EXPECT_GT(audit.total().t(), 6000.0);
  EXPECT_LT(audit.total().t(), 14000.0);
}

TEST(EmbodiedAudit, NodesDominateTheFootprint) {
  const auto audit = EmbodiedAudit::archer2();
  const auto& nodes = audit.components().front();
  ASSERT_EQ(nodes.name, "Compute nodes (2x EPYC, 256-512 GB)");
  const double node_share = nodes.total().g() / audit.total().g();
  EXPECT_GT(node_share, 0.70);
  EXPECT_LT(node_share, 0.95);
}

TEST(EmbodiedAudit, ManufactureDominatesPhases) {
  const auto audit = EmbodiedAudit::archer2();
  const double manufacture =
      audit.phase_total(LifecyclePhase::kManufacture).g();
  const double transport = audit.phase_total(LifecyclePhase::kTransport).g();
  const double decommission =
      audit.phase_total(LifecyclePhase::kDecommission).g();
  EXPECT_GT(manufacture, 10.0 * (transport + decommission));
  EXPECT_NEAR(manufacture + transport + decommission, audit.total().g(),
              1.0);
}

TEST(EmbodiedAudit, CrossoverLandsInPaperBalancedBand) {
  // The audit's amortised total, combined with the measured facility draw,
  // must put the scope-2 == scope-3 crossover inside 30-100 gCO2/kWh —
  // the consistency check that validates the paper's regime boundaries
  // for a machine of this scale.
  const auto audit = EmbodiedAudit::archer2();
  const EmissionsModel model(audit.amortise(6.0),
                             Power::kilowatts(3220.0 / 0.9));
  const double crossover = model.crossover_intensity().gkwh();
  EXPECT_GT(crossover, 30.0);
  EXPECT_LT(crossover, 100.0);
}

TEST(EmbodiedAudit, GramsPerNodeHourFloor) {
  const auto audit = EmbodiedAudit::archer2();
  // 6-year life at 90% utilisation: the embodied floor per node-hour.
  const double g = audit.grams_per_node_hour(5860, 6.0, 0.9);
  EXPECT_GT(g, 20.0);
  EXPECT_LT(g, 60.0);
  // Higher utilisation dilutes the floor.
  EXPECT_LT(audit.grams_per_node_hour(5860, 6.0, 0.95), g);
  // Longer service life dilutes it too — the paper's "extract the most
  // from each node-hour for as long as possible".
  EXPECT_LT(audit.grams_per_node_hour(5860, 8.0, 0.9), g);
}

TEST(EmbodiedAudit, ComponentArithmetic) {
  EmbodiedComponent c;
  c.name = "x";
  c.count = 10;
  c.manufacture_each = CarbonMass::kilograms(100.0);
  c.transport_each = CarbonMass::kilograms(3.0);
  c.decommission_each = CarbonMass::kilograms(2.0);
  EXPECT_NEAR(c.total_each().kg(), 105.0, 1e-9);
  EXPECT_NEAR(c.total().t(), 1.05, 1e-9);
}

TEST(EmbodiedAudit, ValidationAndErrors) {
  EmbodiedAudit audit;
  EmbodiedComponent bad;
  bad.name = "";
  bad.count = 1;
  EXPECT_THROW(audit.add(bad), InvalidArgument);
  bad.name = "x";
  bad.count = 0;
  EXPECT_THROW(audit.add(bad), InvalidArgument);
  bad.count = 1;
  bad.manufacture_each = CarbonMass::kilograms(-1.0);
  EXPECT_THROW(audit.add(bad), InvalidArgument);

  const auto a2 = EmbodiedAudit::archer2();
  EXPECT_THROW(a2.amortise(0.0), InvalidArgument);
  EXPECT_THROW(a2.grams_per_node_hour(0, 6.0, 0.9), InvalidArgument);
  EXPECT_THROW(a2.grams_per_node_hour(10, 6.0, 0.0), InvalidArgument);
}

TEST(EmbodiedAudit, AmortiseFeedsEmissionsModel) {
  const auto audit = EmbodiedAudit::archer2();
  const EmbodiedParams p = audit.amortise(6.0);
  EXPECT_NEAR(p.total.g(), audit.total().g(), 1.0);
  EXPECT_NEAR(p.annual().g(), audit.total().g() / 6.0, 1.0);
}

TEST(EmbodiedAudit, RenderListsComponentsAndTotals) {
  const std::string s = EmbodiedAudit::archer2().render();
  EXPECT_NE(s.find("Compute nodes"), std::string::npos);
  EXPECT_NE(s.find("Slingshot switches"), std::string::npos);
  EXPECT_NE(s.find("Total"), std::string::npos);
  EXPECT_NE(s.find("100.0%"), std::string::npos);
}

TEST(EmbodiedAudit, SharesSumToOne) {
  const auto audit = EmbodiedAudit::archer2();
  double total = 0.0;
  for (const auto& c : audit.components()) {
    total += c.total().g() / audit.total().g();
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace hpcem
