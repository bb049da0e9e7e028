// Scope-3 (embodied) emissions audit.
//
// The paper defers a detailed embodied audit to future work but states the
// framework: scope-3 emissions come from manufacture, shipping and
// decommissioning of the hardware, and their balance against scope-2
// decides the operating strategy (§2).  This module implements the audit
// machinery that analysis needs: a per-component inventory with per-phase
// (manufacture/transport/decommission) footprints, aggregation, and
// amortisation over the service life, producing the EmbodiedParams the
// EmissionsModel consumes.
//
// Default footprints are DRI-scoping-style estimates (order-of-magnitude
// literature values, not vendor LCAs): a dual-socket 512 GB compute node
// ~1.3 tCO2e to manufacture, a switch ~0.35 t, HDD storage ~25 t/PB,
// NVMe ~45 t/PB, a cabinet ~2 t of fabricated steel/copper, transport ~3%
// and decommissioning ~2% of manufacture.  They combine to ~10 ktCO2e for
// the ARCHER2 configuration, which places the scope-2/scope-3 crossover
// inside the paper's 30-100 gCO2/kWh "balanced" band — the consistency
// check `tests/core/test_embodied_audit.cpp` enforces.
#pragma once

#include <string>
#include <vector>

#include "core/emissions.hpp"
#include "util/units.hpp"

namespace hpcem {

/// Lifecycle phase of an embodied-emissions entry.
enum class LifecyclePhase { kManufacture, kTransport, kDecommission };

/// One audited component class.
struct EmbodiedComponent {
  std::string name;
  std::size_t count = 0;
  CarbonMass manufacture_each;
  CarbonMass transport_each;
  CarbonMass decommission_each;

  [[nodiscard]] CarbonMass total_each() const {
    return manufacture_each + transport_each + decommission_each;
  }
  [[nodiscard]] CarbonMass total() const {
    return total_each() * static_cast<double>(count);
  }
};

/// A complete embodied audit for a facility.
class EmbodiedAudit {
 public:
  /// The ARCHER2 configuration with the default footprints above.
  static EmbodiedAudit archer2();

  EmbodiedAudit() = default;

  void add(EmbodiedComponent component);

  [[nodiscard]] const std::vector<EmbodiedComponent>& components() const {
    return components_;
  }

  /// Grand total across components and phases.
  [[nodiscard]] CarbonMass total() const;
  /// Total for one lifecycle phase.
  [[nodiscard]] CarbonMass phase_total(LifecyclePhase phase) const;

  /// Uniform amortisation over the service life (the EmissionsModel
  /// convention).
  [[nodiscard]] EmbodiedParams amortise(double lifetime_years) const;

  /// Embodied grams attributable to one delivered node-hour, given the
  /// machine's node count, lifetime and utilisation.  This is the floor
  /// under the per-node-hour footprint that no energy efficiency can
  /// remove — the reason §2 says low-carbon grids favour maximising
  /// output per node-hour.
  [[nodiscard]] double grams_per_node_hour(std::size_t nodes,
                                           double lifetime_years,
                                           double utilisation) const;

  /// Render the audit as a table (for benches and EXPERIMENTS.md).
  [[nodiscard]] std::string render() const;

 private:
  std::vector<EmbodiedComponent> components_;
};

}  // namespace hpcem
