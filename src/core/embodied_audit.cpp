#include "core/embodied_audit.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/text_table.hpp"

namespace hpcem {

namespace {

EmbodiedComponent component(std::string name, std::size_t count,
                            double manufacture_kg_each) {
  EmbodiedComponent c;
  c.name = std::move(name);
  c.count = count;
  c.manufacture_each = CarbonMass::kilograms(manufacture_kg_each);
  // Transport ~3% and decommissioning ~2% of manufacture: both are small
  // against fab emissions for electronics.
  c.transport_each = CarbonMass::kilograms(manufacture_kg_each * 0.03);
  c.decommission_each = CarbonMass::kilograms(manufacture_kg_each * 0.02);
  return c;
}

}  // namespace

EmbodiedAudit EmbodiedAudit::archer2() {
  EmbodiedAudit audit;
  // Counts from Table 1; footprints per the header comment.
  audit.add(component("Compute nodes (2x EPYC, 256-512 GB)", 5860, 1300.0));
  audit.add(component("Slingshot switches", 768, 350.0));
  audit.add(component("ClusterStor L300 HDD storage (13.6 PB)", 1,
                      13.6 * 25000.0));
  audit.add(component("ClusterStor E1000 NVMe storage (1 PB)", 1, 45000.0));
  audit.add(component("NetApp storage (1 PB)", 1, 30000.0));
  audit.add(component("Compute cabinets", 23, 2000.0));
  audit.add(component("Coolant distribution units", 6, 1500.0));
  return audit;
}

void EmbodiedAudit::add(EmbodiedComponent c) {
  require(!c.name.empty(), "EmbodiedAudit::add: component needs a name");
  require(c.count > 0, "EmbodiedAudit::add: count must be positive");
  require(c.manufacture_each.g() >= 0.0 && c.transport_each.g() >= 0.0 &&
              c.decommission_each.g() >= 0.0,
          "EmbodiedAudit::add: footprints must be non-negative");
  components_.push_back(std::move(c));
}

CarbonMass EmbodiedAudit::total() const {
  CarbonMass t;
  for (const auto& c : components_) t += c.total();
  return t;
}

CarbonMass EmbodiedAudit::phase_total(LifecyclePhase phase) const {
  CarbonMass t;
  for (const auto& c : components_) {
    switch (phase) {
      case LifecyclePhase::kManufacture:
        t += c.manufacture_each * static_cast<double>(c.count);
        break;
      case LifecyclePhase::kTransport:
        t += c.transport_each * static_cast<double>(c.count);
        break;
      case LifecyclePhase::kDecommission:
        t += c.decommission_each * static_cast<double>(c.count);
        break;
    }
  }
  return t;
}

EmbodiedParams EmbodiedAudit::amortise(double lifetime_years) const {
  require(lifetime_years > 0.0,
          "EmbodiedAudit::amortise: lifetime must be positive");
  EmbodiedParams p;
  p.total = total();
  p.lifetime_years = lifetime_years;
  return p;
}

double EmbodiedAudit::grams_per_node_hour(std::size_t nodes,
                                          double lifetime_years,
                                          double utilisation) const {
  require(nodes > 0, "grams_per_node_hour: nodes must be positive");
  require(lifetime_years > 0.0,
          "grams_per_node_hour: lifetime must be positive");
  require(utilisation > 0.0 && utilisation <= 1.0,
          "grams_per_node_hour: utilisation must be in (0, 1]");
  const double delivered_node_hours = static_cast<double>(nodes) *
                                      utilisation * 24.0 * 365.25 *
                                      lifetime_years;
  return total().g() / delivered_node_hours;
}

std::string EmbodiedAudit::render() const {
  TextTable t({"Component", "Count", "Manufacture (t)", "Transport (t)",
               "Decommission (t)", "Total (t)", "Share"},
              {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
               Align::kRight, Align::kRight, Align::kRight});
  const double grand = total().g();
  for (const auto& c : components_) {
    const double n = static_cast<double>(c.count);
    t.add_row({c.name, std::to_string(c.count),
               TextTable::grouped(c.manufacture_each.t() * n),
               TextTable::grouped(c.transport_each.t() * n),
               TextTable::grouped(c.decommission_each.t() * n),
               TextTable::grouped(c.total().t()),
               grand > 0.0 ? TextTable::pct(c.total().g() / grand, 1)
                           : "-"});
  }
  t.add_rule();
  t.add_row({"Total", "",
             TextTable::grouped(phase_total(LifecyclePhase::kManufacture).t()),
             TextTable::grouped(phase_total(LifecyclePhase::kTransport).t()),
             TextTable::grouped(
                 phase_total(LifecyclePhase::kDecommission).t()),
             TextTable::grouped(total().t()), "100.0%"});
  std::ostringstream os;
  os << "Scope-3 embodied emissions audit\n" << t.str();
  return os.str();
}

}  // namespace hpcem
