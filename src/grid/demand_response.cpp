#include "grid/demand_response.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hpcem {

void DemandResponseSchedule::add(GridStressEvent event) {
  // Validate on a copy so a rejected event leaves the schedule unchanged.
  std::vector<GridStressEvent> candidate = events_;
  candidate.push_back(event);
  std::sort(candidate.begin(), candidate.end(),
            [](const GridStressEvent& a, const GridStressEvent& b) {
              return a.start < b.start;
            });
  DemandResponseSchedule trial;
  trial.events_ = std::move(candidate);
  trial.validate();
  events_ = std::move(trial.events_);
}

void DemandResponseSchedule::validate() const {
  for (const auto& e : events_) {
    require(e.end > e.start,
            "DemandResponseSchedule: event must have positive duration");
    require(e.cabinet_cap.w() > 0.0,
            "DemandResponseSchedule: cap must be positive");
  }
  for (std::size_t i = 1; i < events_.size(); ++i) {
    require(events_[i - 1].end <= events_[i].start,
            "DemandResponseSchedule: events must not overlap");
  }
}

const PolicyOption& choose_policy_for_cap(
    const std::vector<PolicyOption>& options, Power cap) {
  require(!options.empty(), "choose_policy_for_cap: no options");
  const PolicyOption* best_fitting = nullptr;
  const PolicyOption* lowest_power = &options.front();
  for (const auto& opt : options) {
    if (opt.predicted_cabinet < lowest_power->predicted_cabinet) {
      lowest_power = &opt;
    }
    if (opt.predicted_cabinet <= cap) {
      if (best_fitting == nullptr ||
          opt.mean_slowdown < best_fitting->mean_slowdown) {
        best_fitting = &opt;
      }
    }
  }
  return best_fitting != nullptr ? *best_fitting : *lowest_power;
}

}  // namespace hpcem
