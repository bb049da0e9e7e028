#include "telemetry/recorder.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace hpcem {

namespace detail {

void note_recorder_ingest(std::uint64_t n) {
  static const obs::Counter samples("telemetry.recorder.samples", "samples");
  samples.add(n);
}

}  // namespace detail

ChannelId Recorder::declare(const std::string& name,
                            const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    require(channels_[it->second]->unit() == unit,
            "Recorder::declare: unit mismatch for existing channel " + name);
    return ChannelId(it->second);
  }
  const auto idx = static_cast<std::uint32_t>(channels_.size());
  channels_.push_back(std::make_unique<TimeSeries>(unit));
  if (max_raw_ != 0) channels_.back()->set_max_raw_samples(max_raw_);
  index_.emplace(name, idx);
  return ChannelId(idx);
}

const TimeSeries& Recorder::series(ChannelId id) const {
  require_state(id.index() < channels_.size(),
                "Recorder::series: invalid channel id");
  return *channels_[id.index()];
}

TimeSeries& Recorder::series(ChannelId id) {
  require_state(id.index() < channels_.size(),
                "Recorder::series: invalid channel id");
  return *channels_[id.index()];
}

void Recorder::set_max_raw_samples(std::size_t cap) {
  max_raw_ = cap;
  for (auto& ch : channels_) ch->set_max_raw_samples(cap);
}

const TimeSeries& Recorder::channel(const std::string& name) const {
  auto it = index_.find(name);
  require_state(it != index_.end(),
                "Recorder::channel: no such channel: " + name);
  return *channels_[it->second];
}

std::vector<std::string> Recorder::channel_names() const {
  std::vector<std::string> names;
  names.reserve(index_.size());
  for (const auto& [name, _] : index_) names.push_back(name);
  return names;
}

void Recorder::record(const std::string& name, SimTime t, double value) {
  auto it = index_.find(name);
  require_state(it != index_.end(),
                "Recorder::record: no such channel: " + name);
  channels_[it->second]->append(t, value);
}

std::uint64_t Recorder::total_appended() const {
  std::uint64_t total = 0;
  for (const auto& c : channels_) total += c->total_appended();
  return total;
}

}  // namespace hpcem
