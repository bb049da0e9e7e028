// ArtifactStore: ingest, duplicate rejection, columnisation and windowed
// aggregates — including the v1/v2 (aggregate-only) round trip.
#include "serve/artifact_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "telemetry/timeseries.hpp"

namespace hpcem::serve {
namespace {

TimeSeries ramp_series(std::size_t n, double t0 = 0.0, double dt = 600.0) {
  TimeSeries s("kW");
  for (std::size_t i = 0; i < n; ++i) {
    const double t = t0 + static_cast<double>(i) * dt;
    s.append(SimTime(t), 3000.0 + 10.0 * static_cast<double>(i % 37));
  }
  return s;
}

RunArtifact make_artifact(const std::string& scenario, std::size_t samples,
                          bool with_series) {
  RunArtifact a;
  a.scenario = scenario;
  a.source = "simulation";
  a.machine = "archer2";
  const TimeSeries s = ramp_series(samples);
  a.window_start = s.start_time();
  a.window_end = s.end_time();
  a.headline.mean_kw = s.summary().mean;
  a.headline.window_energy_kwh = s.integrate() / 3600.0;
  a.headline.completed_jobs = 100.0;
  a.channels.push_back(aggregate_channel("cabinet_kw", s, with_series));
  return a;
}

TEST(ArtifactStore, IngestsAndColumnisesSeries) {
  ArtifactStore store;
  store.add(make_artifact("base", 200, true));

  ASSERT_EQ(store.scenario_count(), 1u);
  const StoredScenario& s = store.at("base");
  ASSERT_EQ(s.channels.size(), 1u);
  const StoredChannel& ch = s.channels[0];
  EXPECT_TRUE(ch.has_series());
  EXPECT_EQ(ch.times.size(), 200u);
  EXPECT_EQ(ch.values.size(), 200u);
  // Prefix arrays carry one extra slot (the empty prefix).
  EXPECT_EQ(ch.prefix_value_sum.size(), 201u);
  EXPECT_EQ(ch.prefix_integral.size(), 201u);
  EXPECT_DOUBLE_EQ(ch.prefix_value_sum.front(), 0.0);
  EXPECT_EQ(store.total_series_samples(), 200u);
}

TEST(ArtifactStore, RoundTripsThroughJson) {
  const RunArtifact a = make_artifact("rt", 64, true);
  const RunArtifact back = RunArtifact::from_json_text(a.to_json_text());
  ASSERT_EQ(back.channels.size(), 1u);
  ASSERT_EQ(back.channels[0].series.size(), 64u);

  ArtifactStore store;
  store.add(back);
  const StoredChannel& ch = store.at("rt").channels[0];
  const TimeSeries ref = ramp_series(64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(ch.times[i], ref[i].time.sec());
    EXPECT_DOUBLE_EQ(ch.values[i], ref[i].value);
  }
}

TEST(ArtifactStore, IngestsAggregateOnlyV1AndV2Documents) {
  // A v3 writer round-trips; v1/v2 documents are the same JSON with an
  // older schema stamp and no series/obs members.
  RunArtifact a = make_artifact("old", 50, false);
  std::string v1 = a.to_json_text();
  const std::string stamp = "\"schema_version\": 3";
  const auto pos = v1.find(stamp);
  ASSERT_NE(pos, std::string::npos);
  v1.replace(pos, stamp.size(), "\"schema_version\": 1");

  ArtifactStore store;
  store.add(RunArtifact::from_json_text(v1));
  const StoredChannel& ch = store.at("old").channels[0];
  EXPECT_FALSE(ch.has_series());
  EXPECT_EQ(ch.aggregate.samples, 50u);
  EXPECT_EQ(store.total_series_samples(), 0u);
  // Sub-window queries need a series.
  EXPECT_THROW(ArtifactStore::window_aggregate(ch, SimTime(0.0),
                                               SimTime(1000.0)),
               StateError);
}

TEST(ArtifactStore, RejectsDuplicateScenarioIds) {
  ArtifactStore store;
  store.add(make_artifact("dup", 10, false), "first.artifact.json");
  try {
    store.add(make_artifact("dup", 10, false), "second.artifact.json");
    FAIL() << "expected DuplicateScenarioError";
  } catch (const DuplicateScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dup"), std::string::npos);
    EXPECT_NE(what.find("first.artifact.json"), std::string::npos);
    EXPECT_NE(what.find("second.artifact.json"), std::string::npos);
    // One line: tools print it verbatim as `error: ...`.
    EXPECT_EQ(what.find('\n'), std::string::npos);
  }
  // The store is unchanged by the failed ingest.
  EXPECT_EQ(store.scenario_count(), 1u);
  EXPECT_EQ(store.at("dup").source_file, "first.artifact.json");
}

TEST(ArtifactStore, IterationOrderIsLexicographicNotIngestOrder) {
  ArtifactStore forward;
  forward.add(make_artifact("beta", 8, false));
  forward.add(make_artifact("alpha", 8, false));
  ArtifactStore reverse;
  reverse.add(make_artifact("alpha", 8, false));
  reverse.add(make_artifact("beta", 8, false));

  const std::vector<std::string> expected{"alpha", "beta"};
  EXPECT_EQ(forward.scenario_names(), expected);
  EXPECT_EQ(reverse.scenario_names(), expected);
}

TEST(ArtifactStore, WindowAggregateMatchesDirectComputation) {
  const TimeSeries ref = ramp_series(300);
  ArtifactStore store;
  store.add(make_artifact("w", 300, true));
  const StoredChannel& ch = store.at("w").channels[0];

  const SimTime start(60000.0);
  const SimTime end(120000.0);
  const WindowAggregate w = ArtifactStore::window_aggregate(ch, start, end);

  // Reference: scan the raw samples.
  std::size_t n = 0;
  double sum = 0.0;
  double mn = 1e300;
  double mx = -1e300;
  for (const auto& s : ref.samples()) {
    if (s.time >= start && s.time < end) {
      ++n;
      sum += s.value;
      mn = std::min(mn, s.value);
      mx = std::max(mx, s.value);
    }
  }
  ASSERT_GT(n, 0u);
  EXPECT_EQ(w.samples, n);
  EXPECT_NEAR(w.mean, sum / static_cast<double>(n), 1e-9);
  EXPECT_DOUBLE_EQ(w.min, mn);
  EXPECT_DOUBLE_EQ(w.max, mx);
  // The whole-window integral equals the streaming aggregate's.
  const WindowAggregate whole = ArtifactStore::window_aggregate(
      ch, SimTime(0.0), SimTime(1e18));
  EXPECT_NEAR(whole.integral, ch.aggregate.integral,
              1e-6 * std::abs(ch.aggregate.integral));
  EXPECT_EQ(whole.samples, 300u);
}

TEST(ArtifactStore, EmptyWindowReportsZeroSamples) {
  ArtifactStore store;
  store.add(make_artifact("e", 20, true));
  const StoredChannel& ch = store.at("e").channels[0];
  const WindowAggregate w =
      ArtifactStore::window_aggregate(ch, SimTime(1e9), SimTime(2e9));
  EXPECT_EQ(w.samples, 0u);
}

TEST(ArtifactStore, LoadDirectoryIngestsSortedAndRejectsDuplicates) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "hpcem_store_test_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const std::string& stem, const RunArtifact& a) {
    std::ofstream out(dir / (stem + ".artifact.json"));
    out << a.to_json_text();
  };
  write("b_second", make_artifact("s2", 16, true));
  write("a_first", make_artifact("s1", 16, false));
  std::ofstream(dir / "notes.txt") << "ignored";

  ArtifactStore store;
  EXPECT_EQ(store.load_directory(dir.string()), 2u);
  EXPECT_EQ(store.scenario_count(), 2u);
  // Provenance records the actual file each scenario came from.
  EXPECT_NE(store.at("s1").source_file.find("a_first"), std::string::npos);

  write("c_dup", make_artifact("s1", 16, false));
  ArtifactStore fresh;
  EXPECT_THROW(fresh.load_directory(dir.string()), DuplicateScenarioError);
  fs::remove_all(dir);
}

TEST(ArtifactStore, FindChannelIsExact) {
  ArtifactStore store;
  RunArtifact a = make_artifact("m", 8, false);
  const TimeSeries s = ramp_series(8);
  a.channels.push_back(aggregate_channel("utilisation", s, false));
  a.channels.push_back(aggregate_channel("aaa", s, false));
  store.add(a);
  const StoredScenario& sc = store.at("m");
  // Channels are sorted by name regardless of producer order.
  ASSERT_EQ(sc.channels.size(), 3u);
  EXPECT_EQ(sc.channels[0].name, "aaa");
  EXPECT_EQ(sc.channels[2].name, "utilisation");
  EXPECT_NE(sc.find_channel("cabinet_kw"), nullptr);
  EXPECT_EQ(sc.find_channel("cabinet"), nullptr);
  EXPECT_EQ(sc.find_channel("zzz"), nullptr);
}

TEST(ArtifactStore, UnknownScenarioLookups) {
  ArtifactStore store;
  store.add(make_artifact("only", 8, false));
  EXPECT_EQ(store.find("missing"), nullptr);
  EXPECT_THROW(store.at("missing"), InvalidArgument);
}

}  // namespace
}  // namespace hpcem::serve
