// Grid demand-response: "good grid citizen" behaviour (paper §3).
//
// The paper's work was done in the Winter 2022/23 context of possible UK
// power shortages: a facility that can shed hundreds of kW on request frees
// grid capacity for critical infrastructure.  This module models stress
// windows and a power-cap policy that chooses the strongest operating
// policy satisfying the cap, preferring the least performance-damaging
// lever first (BIOS mode, then frequency) — the same ordering the paper's
// two changes follow.
#pragma once

#include <vector>

#include "util/sim_time.hpp"
#include "util/units.hpp"
#include "workload/policy.hpp"

namespace hpcem {

/// One grid stress window with the cap requested of the facility.
struct GridStressEvent {
  SimTime start;
  SimTime end;
  Power cabinet_cap;  ///< maximum cabinet draw requested during the window
};

/// Calendar of stress events (non-overlapping, time-ordered).
class DemandResponseSchedule {
 public:
  /// Insert in time order; throws InvalidArgument (leaving the schedule
  /// unchanged) when the event is degenerate or overlaps another.
  void add(GridStressEvent event);

  [[nodiscard]] const std::vector<GridStressEvent>& events() const {
    return events_;
  }

 private:
  void validate() const;
  std::vector<GridStressEvent> events_;
};

/// A candidate operating policy with its predicted steady-state cabinet
/// draw (computed by the caller from its facility model).
struct PolicyOption {
  OperatingPolicy policy;
  Power predicted_cabinet;
  /// Mix-average expected slowdown vs the baseline policy (0 = none).
  double mean_slowdown = 0.0;
};

/// Choose the least-damaging policy meeting `cap`: among options whose
/// predicted draw fits, the one with the smallest mean slowdown; if none
/// fits, the lowest-power option (best effort).  `options` must be
/// non-empty.
[[nodiscard]] const PolicyOption& choose_policy_for_cap(
    const std::vector<PolicyOption>& options, Power cap);

}  // namespace hpcem
