// Unit tests for the shared run-artifact layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/assembly.hpp"
#include "core/report.hpp"
#include "core/run_artifact.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

RunArtifact sample_artifact() {
  RunArtifact a;
  a.scenario = "test-scenario";
  a.source = "simulation";
  a.machine = "micro";
  a.window_start = sim_time_from_date({2022, 4, 1});
  a.window_end = sim_time_from_date({2022, 6, 1});
  a.replicates = 3;
  a.headline.mean_kw = 3140.5;
  a.headline.mean_before_kw = 3220.0;
  a.headline.mean_after_kw = 3010.0;
  a.headline.mean_utilisation = 0.91;
  a.headline.window_energy_kwh = 4.6e6;
  a.headline.completed_jobs = 78934.0;
  a.change_points.push_back(
      {sim_time_from_date({2022, 5, 9}), 3220.0, 3010.0, false});
  a.change_points.push_back(
      {sim_time_from_date({2022, 5, 9}), 3219.4, 3010.2, true});
  ChannelAggregate c;
  c.name = "cabinet_kw";
  c.unit = "kW";
  c.samples = 4128;
  c.mean = 3172.46;
  c.min = 1653.53;
  c.max = 3477.20;
  c.integral = 2.35e10;
  c.first_time = sim_time_from_date({2022, 3, 7});
  c.last_time = sim_time_from_date({2022, 5, 31});
  a.channels.push_back(c);
  return a;
}

TEST(RunArtifact, JsonRoundTripIsLossless) {
  const RunArtifact a = sample_artifact();
  const RunArtifact b = RunArtifact::from_json_text(a.to_json_text());
  EXPECT_EQ(b.scenario, a.scenario);
  EXPECT_EQ(b.source, a.source);
  EXPECT_EQ(b.machine, a.machine);
  EXPECT_EQ(b.window_start, a.window_start);
  EXPECT_EQ(b.window_end, a.window_end);
  EXPECT_EQ(b.replicates, a.replicates);
  EXPECT_EQ(b.headline.mean_kw, a.headline.mean_kw);
  EXPECT_EQ(b.headline.window_energy_kwh, a.headline.window_energy_kwh);
  ASSERT_EQ(b.change_points.size(), 2u);
  EXPECT_EQ(b.change_points[0].at, a.change_points[0].at);
  EXPECT_FALSE(b.change_points[0].detected);
  EXPECT_TRUE(b.change_points[1].detected);
  ASSERT_EQ(b.channels.size(), 1u);
  EXPECT_EQ(b.channels[0].name, "cabinet_kw");
  EXPECT_EQ(b.channels[0].samples, 4128u);
  EXPECT_EQ(b.channels[0].integral, a.channels[0].integral);
  // Determinism: re-serializing the round-trip is byte-identical.
  EXPECT_EQ(b.to_json_text(), a.to_json_text());
}

TEST(RunArtifact, SchemaIsStamped) {
  const JsonValue v = sample_artifact().to_json();
  EXPECT_EQ(v.at("schema").as_string(), "hpcem.run_artifact");
  EXPECT_EQ(static_cast<int>(v.at("schema_version").as_number()),
            RunArtifact::kSchemaVersion);
}

TEST(RunArtifact, FromJsonRejectsWrongSchema) {
  JsonValue v = sample_artifact().to_json();
  v.set("schema", "something.else");
  EXPECT_THROW(RunArtifact::from_json(v), InvalidArgument);
  JsonValue w = sample_artifact().to_json();
  w.set("schema_version", 999);
  EXPECT_THROW(RunArtifact::from_json(w), InvalidArgument);
  EXPECT_THROW(RunArtifact::from_json_text("{not json"), ParseError);
  EXPECT_THROW(RunArtifact::from_json_text("{}"), ParseError);
}

// Schema v1 documents (no "obs" member) predate the obs layer and must
// keep parsing; the obs member stays null on the way back in.
TEST(RunArtifact, V1DocumentsStillParse) {
  JsonValue v = sample_artifact().to_json();
  v.set("schema_version", 1);
  const RunArtifact a = RunArtifact::from_json(v);
  EXPECT_EQ(a.scenario, "test-scenario");
  EXPECT_TRUE(a.obs.is_null());
}

TEST(RunArtifact, ObsSectionOmittedWhenCollectionOff) {
  // Collection is off by default in the test process.
  EXPECT_TRUE(collected_obs_metrics().is_null());
  const JsonValue v = sample_artifact().to_json();
  EXPECT_EQ(v.get("obs"), nullptr);
}

TEST(RunArtifact, ObsSectionRoundTripsInV2) {
  obs::set_enabled(true);
  obs::reset_collected();
  const obs::Counter jobs("artifact.test.jobs", "jobs");
  jobs.add(17);
  RunArtifact a = sample_artifact();
  a.obs = collected_obs_metrics();
  obs::set_enabled(false);
  obs::reset_collected();
  ASSERT_FALSE(a.obs.is_null());

  const RunArtifact b = RunArtifact::from_json_text(a.to_json_text());
  ASSERT_FALSE(b.obs.is_null());
  EXPECT_EQ(b.to_json_text(), a.to_json_text());
  const obs::MetricsSnapshot snap = obs::metrics_from_json(b.obs);
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "artifact.test.jobs") {
      EXPECT_EQ(c.value, 17u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RunArtifact, CsvHasOneRowPerChannel) {
  const std::string csv = sample_artifact().to_csv();
  EXPECT_NE(
      csv.find("channel,unit,samples,mean,min,max,integral,first_time,"
               "last_time"),
      std::string::npos);
  EXPECT_NE(csv.find("cabinet_kw,kW,4128,"), std::string::npos);
}

TEST(RunArtifact, AggregateChannelMatchesSeriesAccumulators) {
  TimeSeries ts("kW");
  for (int i = 0; i < 100; ++i) {
    ts.append(SimTime(30.0 * i), 3000.0 + i);
  }
  const ChannelAggregate c = aggregate_channel("power", ts);
  EXPECT_EQ(c.name, "power");
  EXPECT_EQ(c.unit, "kW");
  EXPECT_EQ(c.samples, 100u);
  EXPECT_EQ(c.mean, ts.mean());
  EXPECT_EQ(c.min, ts.value_min());
  EXPECT_EQ(c.max, ts.value_max());
  EXPECT_EQ(c.integral, ts.integrate());
  EXPECT_EQ(c.first_time, ts.start_time());
  EXPECT_EQ(c.last_time, ts.end_time());
}

TEST(RunArtifact, MicroSimulationProducesConsistentArtifact) {
  ScenarioSpec spec = ScenarioSpec::figure2();
  spec.machine = MachineModel::kMicro;
  spec.name = "micro-fig2";
  const FacilityAssembly assembly(spec);
  const auto sim = assembly.run_simulator();
  const RunArtifact a =
      make_run_artifact(*sim, spec, analyze_timeline(*sim, spec));

  EXPECT_EQ(a.scenario, "micro-fig2");
  EXPECT_EQ(a.source, "simulation");
  EXPECT_EQ(a.machine, "micro");
  EXPECT_EQ(a.replicates, 1u);
  EXPECT_EQ(a.window_start, spec.window_start);
  EXPECT_EQ(a.window_end, spec.window_end);
  EXPECT_GT(a.headline.mean_kw, 0.0);
  EXPECT_GT(a.headline.window_energy_kwh, 0.0);
  EXPECT_GT(a.headline.completed_jobs, 0.0);
  // The scheduled change point is recorded alongside any detected one.
  ASSERT_GE(a.change_points.size(), 1u);
  EXPECT_FALSE(a.change_points.front().detected);
  // Channel aggregates cover the simulator's channel set, name-ordered.
  ASSERT_GE(a.channels.size(), 2u);
  for (std::size_t i = 1; i < a.channels.size(); ++i) {
    EXPECT_LT(a.channels[i - 1].name, a.channels[i].name);
  }
  // Headline must agree with the timeline analysis it was built from.
  const TimelineResult result = assembly.run();
  EXPECT_EQ(a.headline.mean_kw, result.mean_kw);
  EXPECT_EQ(a.headline.mean_before_kw, result.mean_before_kw);
  EXPECT_EQ(a.headline.mean_after_kw, result.mean_after_kw);
}

TEST(RunArtifact, CampaignArtifactsCarryReplicateMeans) {
  ScenarioSpec spec = ScenarioSpec::figure2();
  spec.machine = MachineModel::kMicro;
  spec.name = "camp";
  spec.window_end = spec.window_start + Duration::days(14.0);
  spec.warmup = Duration::days(2.0);
  CampaignConfig cfg;
  cfg.seeds_per_scenario = 2;
  cfg.workers = 2;
  const std::vector<ScenarioSpec> specs = {spec};
  const CampaignResult result = run_campaign(specs, cfg);
  const auto artifacts = make_campaign_artifacts(result, specs);
  ASSERT_EQ(artifacts.size(), 1u);
  const RunArtifact& a = artifacts.front();
  EXPECT_EQ(a.source, "campaign");
  EXPECT_EQ(a.replicates, 2u);
  EXPECT_EQ(a.headline.mean_kw, result.scenarios.front().mean_kw.mean());
  EXPECT_TRUE(a.channels.empty());
  EXPECT_THROW(make_campaign_artifacts(result, {}), InvalidArgument);
}

TEST(RunArtifact, WriteArtifactFilesEmitsJsonAndCsv) {
  const RunArtifact a = sample_artifact();
  const std::string base = ::testing::TempDir() + "hpcem_artifact_test";
  const std::string json_path = write_artifact_files(a, base);
  EXPECT_EQ(json_path, base + ".artifact.json");

  std::ifstream json_in(json_path);
  ASSERT_TRUE(json_in.good());
  std::ostringstream json_buf;
  json_buf << json_in.rdbuf();
  const RunArtifact back = RunArtifact::from_json_text(json_buf.str());
  EXPECT_EQ(back.to_json_text(), a.to_json_text());

  std::ifstream csv_in(base + ".aggregates.csv");
  ASSERT_TRUE(csv_in.good());
  std::ostringstream csv_buf;
  csv_buf << csv_in.rdbuf();
  EXPECT_EQ(csv_buf.str(), a.to_csv());

  std::remove(json_path.c_str());
  std::remove((base + ".aggregates.csv").c_str());
}

}  // namespace
}  // namespace hpcem
