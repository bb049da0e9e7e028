// Facility-level power aggregation: the component inventory of Table 2.
//
// `FacilityPowerModel` combines the per-component models with the machine's
// component counts and answers the questions the paper's §3 answers: what
// does each subsystem draw idle and loaded, what fraction of the total is
// each, and what does the *compute cabinet* metering boundary (nodes +
// switches + cabinet overheads, ~90% of the system) see — the boundary the
// paper's Figures 1-3 are measured at.
#pragma once

#include <string>
#include <vector>

#include "power/node_model.hpp"
#include "power/plant.hpp"
#include "util/units.hpp"

namespace hpcem {

/// Component counts for the modelled machine (defaults: ARCHER2, Table 1).
struct FacilityInventory {
  std::size_t compute_nodes = 5860;
  std::size_t switches = 768;
  std::size_t cabinets = 23;
  std::size_t cdus = 6;
  std::size_t filesystems = 5;
  std::size_t cores_per_node = 128;  ///< 2x 64-core EPYC

  [[nodiscard]] std::size_t total_cores() const {
    return compute_nodes * cores_per_node;
  }
};

/// One row of the Table 2 reproduction.
struct ComponentPowerRow {
  std::string component;
  std::size_t count = 0;
  Power idle_each;
  Power loaded_each;
  Power idle_total;
  Power loaded_total;
  /// Share of the loaded facility total, as the paper's "Approx. %" column.
  double loaded_share = 0.0;
};

/// Aggregated facility power model.
class FacilityPowerModel {
 public:
  FacilityPowerModel(FacilityInventory inventory, NodePowerParams node_params,
                     DynamicPowerProfile fleet_profile,
                     SwitchPowerModel switch_model = {},
                     CabinetOverheadModel cabinet_model = {},
                     CduPowerModel cdu_model = {},
                     FilesystemPowerModel fs_model = {});

  [[nodiscard]] const FacilityInventory& inventory() const {
    return inventory_;
  }
  [[nodiscard]] const NodePowerParams& node_params() const {
    return node_params_;
  }

  /// Whole-machine power with every node at the given activity.
  [[nodiscard]] Power total_power(const NodeActivity& activity) const;

  /// Power inside the compute-cabinet metering boundary (nodes + switches +
  /// cabinet overheads) given an already-aggregated node fleet power and a
  /// load factor for the weakly load-dependent plant.
  [[nodiscard]] Power cabinet_power(Power node_fleet_power,
                                    double load_factor) const;

  /// Fraction of the loaded facility total inside the cabinet boundary
  /// (the paper states ~90%).
  [[nodiscard]] double cabinet_share_loaded() const;

  /// Reproduce Table 2: per-component idle/loaded draws and shares, using a
  /// representative fully-loaded node activity.
  [[nodiscard]] std::vector<ComponentPowerRow> component_table(
      const NodeActivity& loaded_activity) const;

  [[nodiscard]] const SwitchPowerModel& switch_model() const {
    return switch_model_;
  }
  [[nodiscard]] const CabinetOverheadModel& cabinet_model() const {
    return cabinet_model_;
  }

 private:
  FacilityInventory inventory_;
  NodePowerParams node_params_;
  /// Fleet-average dynamic profile used for whole-machine estimates.
  DynamicPowerProfile fleet_profile_;
  SwitchPowerModel switch_model_;
  CabinetOverheadModel cabinet_model_;
  CduPowerModel cdu_model_;
  FilesystemPowerModel fs_model_;
};

}  // namespace hpcem
