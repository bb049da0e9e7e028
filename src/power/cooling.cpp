#include "power/cooling.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hpcem {

CoolingModel::CoolingModel(CoolingParams params) : params_(params) {
  require(params_.base_pue >= 1.0, "CoolingModel: base PUE must be >= 1");
  require(params_.max_pue >= params_.base_pue,
          "CoolingModel: max PUE must be >= base PUE");
  require(params_.pue_per_degree >= 0.0,
          "CoolingModel: pue_per_degree must be non-negative");
}

double CoolingModel::pue_at(double outdoor_c) const {
  const double excess = std::max(0.0, outdoor_c - params_.free_cooling_max_c);
  return std::min(params_.max_pue,
                  params_.base_pue + params_.pue_per_degree * excess);
}

Power CoolingModel::facility_power(Power it_power, double outdoor_c) const {
  require(it_power.w() >= 0.0,
          "CoolingModel: IT power must be non-negative");
  return it_power * pue_at(outdoor_c);
}

Power CoolingModel::overhead_power(Power it_power, double outdoor_c) const {
  return facility_power(it_power, outdoor_c) - it_power;
}

double CoolingModel::mean_pue(const TimeSeries& outdoor_c) const {
  require(!outdoor_c.empty(), "CoolingModel::mean_pue: empty series");
  double sum = 0.0;
  for (const auto& s : outdoor_c.samples()) sum += pue_at(s.value);
  return sum / static_cast<double>(outdoor_c.size());
}

}  // namespace hpcem
