#include "core/run_artifact.hpp"

#include <fstream>
#include <utility>

#include "obs/metrics_export.hpp"
#include "obs/registry.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace hpcem {

namespace {

constexpr const char* kSchemaName = "hpcem.run_artifact";

JsonValue time_json(SimTime t) {
  JsonValue v = JsonValue::object();
  v.set("epoch_s", t.sec());
  v.set("iso", iso_date_time(t));
  return v;
}

SimTime time_from_json(const JsonValue& v) {
  return SimTime(v.at("epoch_s").as_number());
}

JsonValue channel_json(const ChannelAggregate& c) {
  JsonValue v = JsonValue::object();
  v.set("name", c.name);
  v.set("unit", c.unit);
  v.set("samples", c.samples);
  v.set("mean", c.mean);
  v.set("min", c.min);
  v.set("max", c.max);
  v.set("integral", c.integral);
  v.set("first_time", time_json(c.first_time));
  v.set("last_time", time_json(c.last_time));
  // v3: parallel times/values arrays, written only when the producer opted
  // into carrying the raw samples (aggregate-only artifacts keep the v1/v2
  // channel shape).
  if (!c.series.empty()) {
    JsonValue times = JsonValue::array();
    JsonValue values = JsonValue::array();
    for (const Sample& s : c.series) {
      times.push_back(s.time.sec());
      values.push_back(s.value);
    }
    JsonValue series = JsonValue::object();
    series.set("times", std::move(times));
    series.set("values", std::move(values));
    v.set("series", std::move(series));
  }
  return v;
}

ChannelAggregate channel_from_json(const JsonValue& v) {
  ChannelAggregate c;
  c.name = v.at("name").as_string();
  c.unit = v.at("unit").as_string();
  c.samples = static_cast<std::size_t>(v.at("samples").as_number());
  c.mean = v.at("mean").as_number();
  c.min = v.at("min").as_number();
  c.max = v.at("max").as_number();
  c.integral = v.at("integral").as_number();
  c.first_time = time_from_json(v.at("first_time"));
  c.last_time = time_from_json(v.at("last_time"));
  // Optional from v3 on.
  if (const JsonValue* series = v.get("series")) {
    const auto& times = series->at("times").as_array();
    const auto& values = series->at("values").as_array();
    require(times.size() == values.size(),
            "RunArtifact: channel '" + c.name +
                "' series times/values length mismatch");
    c.series.reserve(times.size());
    SimTime prev{};
    for (std::size_t i = 0; i < times.size(); ++i) {
      const SimTime t(times[i].as_number());
      require(i == 0 || t >= prev,
              "RunArtifact: channel '" + c.name +
                  "' series times must be non-decreasing");
      c.series.push_back({t, values[i].as_number()});
      prev = t;
    }
  }
  return c;
}

JsonValue change_point_json(const ArtifactChangePoint& cp) {
  JsonValue v = JsonValue::object();
  v.set("at", time_json(cp.at));
  v.set("mean_before_kw", cp.mean_before_kw);
  v.set("mean_after_kw", cp.mean_after_kw);
  v.set("detected", cp.detected);
  return v;
}

ArtifactChangePoint change_point_from_json(const JsonValue& v) {
  ArtifactChangePoint cp;
  cp.at = time_from_json(v.at("at"));
  cp.mean_before_kw = v.at("mean_before_kw").as_number();
  cp.mean_after_kw = v.at("mean_after_kw").as_number();
  cp.detected = v.at("detected").as_bool();
  return cp;
}

}  // namespace

JsonValue RunArtifact::to_json() const {
  JsonValue v = JsonValue::object();
  v.set("schema", kSchemaName);
  v.set("schema_version", kSchemaVersion);
  v.set("scenario", scenario);
  v.set("source", source);
  v.set("machine", machine);
  v.set("window_start", time_json(window_start));
  v.set("window_end", time_json(window_end));
  v.set("replicates", replicates);

  JsonValue h = JsonValue::object();
  h.set("mean_kw", headline.mean_kw);
  h.set("mean_before_kw", headline.mean_before_kw);
  h.set("mean_after_kw", headline.mean_after_kw);
  h.set("mean_utilisation", headline.mean_utilisation);
  h.set("window_energy_kwh", headline.window_energy_kwh);
  h.set("completed_jobs", headline.completed_jobs);
  v.set("headline", std::move(h));

  JsonValue cps = JsonValue::array();
  for (const auto& cp : change_points) cps.push_back(change_point_json(cp));
  v.set("change_points", std::move(cps));

  JsonValue chans = JsonValue::array();
  for (const auto& c : channels) chans.push_back(channel_json(c));
  v.set("channels", std::move(chans));
  // v2: the obs member is written only when metrics were collected, so a
  // run with collection off serializes to the same bytes as before
  // (modulo the version bump).
  if (!obs.is_null()) v.set("obs", obs);
  return v;
}

std::string RunArtifact::to_json_text() const { return to_json().dump(2); }

std::string RunArtifact::to_csv() const {
  CsvWriter w({"channel", "unit", "samples", "mean", "min", "max",
               "integral", "first_time", "last_time"});
  for (const auto& c : channels) {
    w.add_row({c.name, c.unit, std::to_string(c.samples),
               json_number(c.mean), json_number(c.min), json_number(c.max),
               json_number(c.integral), iso_date_time(c.first_time),
               iso_date_time(c.last_time)});
  }
  return w.str();
}

RunArtifact RunArtifact::from_json(const JsonValue& v) {
  require(v.at("schema").as_string() == kSchemaName,
          "RunArtifact: not a run-artifact document");
  const int version =
      static_cast<int>(v.at("schema_version").as_number());
  require(version >= kMinSchemaVersion && version <= kSchemaVersion,
          "RunArtifact: unsupported schema version " +
              std::to_string(version));

  RunArtifact a;
  a.scenario = v.at("scenario").as_string();
  a.source = v.at("source").as_string();
  a.machine = v.at("machine").as_string();
  a.window_start = time_from_json(v.at("window_start"));
  a.window_end = time_from_json(v.at("window_end"));
  a.replicates = static_cast<std::size_t>(v.at("replicates").as_number());

  const JsonValue& h = v.at("headline");
  a.headline.mean_kw = h.at("mean_kw").as_number();
  a.headline.mean_before_kw = h.at("mean_before_kw").as_number();
  a.headline.mean_after_kw = h.at("mean_after_kw").as_number();
  a.headline.mean_utilisation = h.at("mean_utilisation").as_number();
  a.headline.window_energy_kwh = h.at("window_energy_kwh").as_number();
  a.headline.completed_jobs = h.at("completed_jobs").as_number();

  for (const auto& cp : v.at("change_points").as_array()) {
    a.change_points.push_back(change_point_from_json(cp));
  }
  for (const auto& c : v.at("channels").as_array()) {
    a.channels.push_back(channel_from_json(c));
  }
  // Optional from v2 on; absent in v1 documents and in runs that did not
  // collect metrics.
  if (const JsonValue* o = v.get("obs")) {
    (void)obs::metrics_from_json(*o);  // validate before carrying it along
    a.obs = *o;
  }
  return a;
}

RunArtifact RunArtifact::from_json_text(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

ChannelAggregate aggregate_channel(const std::string& name,
                                   const TimeSeries& series,
                                   bool include_series) {
  ChannelAggregate c;
  c.name = name;
  c.unit = series.unit();
  c.samples = series.total_appended();
  if (c.samples > 0) {
    c.mean = series.mean();
    c.min = series.value_min();
    c.max = series.value_max();
    c.integral = series.integrate();
    c.first_time = series.start_time();
    c.last_time = series.end_time();
  }
  if (include_series) {
    const auto samples = series.samples();
    c.series.assign(samples.begin(), samples.end());
  }
  return c;
}

std::vector<ChannelAggregate> aggregate_channels(const Recorder& recorder,
                                                 bool include_series) {
  std::vector<ChannelAggregate> out;
  const auto names = recorder.channel_names();
  out.reserve(names.size());
  for (const auto& name : names) {
    out.push_back(
        aggregate_channel(name, recorder.channel(name), include_series));
  }
  return out;
}

JsonValue collected_obs_metrics() {
  if (!obs::enabled()) return JsonValue();
  return obs::metrics_json(obs::metrics_snapshot());
}

std::string machine_label(MachineModel machine) {
  switch (machine) {
    case MachineModel::kArcher2: return "archer2";
    case MachineModel::kTestbed: return "testbed";
    case MachineModel::kMicro: return "micro";
  }
  return "unknown";
}

RunArtifact make_run_artifact(const FacilitySimulator& sim,
                              const ScenarioSpec& spec,
                              const TimelineResult& result) {
  RunArtifact a;
  a.scenario = spec.name;
  a.source = "simulation";
  a.machine = machine_label(spec.machine);
  a.window_start = result.window_start;
  a.window_end = result.window_end;
  a.replicates = 1;

  a.headline.mean_kw = result.mean_kw;
  a.headline.mean_before_kw = result.mean_before_kw;
  a.headline.mean_after_kw = result.mean_after_kw;
  a.headline.mean_utilisation = result.mean_utilisation;
  a.headline.window_energy_kwh = result.cabinet_kw.integrate() / 3600.0;
  std::size_t in_window = 0;
  for (const auto& r : sim.completed()) {
    if (r.end_time >= result.window_start && r.end_time < result.window_end) {
      ++in_window;
    }
  }
  a.headline.completed_jobs = static_cast<double>(in_window);

  if (result.change_time) {
    a.change_points.push_back({*result.change_time, result.mean_before_kw,
                               result.mean_after_kw, /*detected=*/false});
  }
  if (result.detected) {
    a.change_points.push_back({result.detected->time,
                               result.detected->mean_before,
                               result.detected->mean_after,
                               /*detected=*/true});
  }
  a.channels = aggregate_channels(sim.telemetry());
  a.obs = collected_obs_metrics();
  return a;
}

RunArtifact make_run_artifact(const ScenarioOutcome& outcome,
                              const ScenarioSpec& spec) {
  RunArtifact a;
  a.scenario = outcome.name;
  a.source = "campaign";
  a.machine = machine_label(spec.machine);
  a.window_start = spec.window_start;
  a.window_end = spec.window_end;
  a.replicates = outcome.replicates;

  a.headline.mean_kw = outcome.mean_kw.mean();
  a.headline.mean_before_kw = outcome.mean_before_kw.mean();
  a.headline.mean_after_kw = outcome.mean_after_kw.mean();
  a.headline.mean_utilisation = outcome.mean_utilisation.mean();
  a.headline.window_energy_kwh = outcome.window_energy_kwh.mean();
  a.headline.completed_jobs = outcome.completed_jobs.mean();

  if (const auto split = spec.first_change_in_window()) {
    a.change_points.push_back({*split, a.headline.mean_before_kw,
                               a.headline.mean_after_kw,
                               /*detected=*/false});
  }
  a.obs = collected_obs_metrics();
  return a;
}

std::vector<RunArtifact> make_campaign_artifacts(
    const CampaignResult& result, const std::vector<ScenarioSpec>& specs) {
  require(result.scenarios.size() == specs.size(),
          "make_campaign_artifacts: result/spec count mismatch");
  std::vector<RunArtifact> out;
  out.reserve(result.scenarios.size());
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    out.push_back(make_run_artifact(result.scenarios[i], specs[i]));
  }
  return out;
}

std::string write_artifact_files(const RunArtifact& artifact,
                                 const std::string& basename) {
  const auto write = [](const std::string& path,
                        const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    out << content;
    if (!out) throw ParseError("write_artifact_files: cannot write " + path);
  };
  const std::string json_path = basename + ".artifact.json";
  write(json_path, artifact.to_json_text());
  if (!artifact.channels.empty()) {
    write(basename + ".aggregates.csv", artifact.to_csv());
  }
  return json_path;
}

}  // namespace hpcem
