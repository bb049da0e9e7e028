// Exporters and analysis: Chrome trace documents, the metrics JSON
// section, profile computation and A/B comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "util/error.hpp"

namespace hpcem::obs {
namespace {

class ObsExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset_collected();
    set_enabled(true);
    set_deterministic(true);
    set_thread_label("main");
  }
  void TearDown() override {
    set_enabled(false);
    set_deterministic(false);
    reset_collected();
  }
};

void record_nested_spans() {
  const ScopedSpan outer(intern_name("obs.export.outer"));
  {
    const ScopedSpan inner(intern_name("obs.export.inner"));
  }
}

TEST_F(ObsExportTest, TraceDocumentShape) {
  record_nested_spans();
  const JsonValue doc = trace_json(trace_snapshot());
  EXPECT_EQ(doc.at("schema").as_string(), "hpcem.trace");
  EXPECT_EQ(static_cast<int>(doc.at("schema_version").as_number()),
            kTraceSchemaVersion);
  EXPECT_TRUE(doc.at("deterministic").as_bool());
  EXPECT_EQ(doc.at("time_unit").as_string(), "ticks");

  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);
  // Thread metadata first, then "X" spans sorted parents-before-children.
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "main");
  EXPECT_EQ(events[1].at("ph").as_string(), "X");
  EXPECT_EQ(events[1].at("name").as_string(), "obs.export.outer");
  EXPECT_EQ(events[1].at("ts").as_number(), 1.0);
  EXPECT_EQ(events[1].at("dur").as_number(), 3.0);
  EXPECT_EQ(events[2].at("name").as_string(), "obs.export.inner");
  EXPECT_EQ(events[2].at("ts").as_number(), 2.0);
  EXPECT_EQ(events[2].at("dur").as_number(), 1.0);
}

TEST_F(ObsExportTest, DeterministicTraceIsByteStable) {
  record_nested_spans();
  const std::string first = trace_json_text(trace_snapshot());
  // The same workload after a reset serializes to the same bytes: logical
  // ticks restart and interned ids never leak into the document.
  reset_collected();
  record_nested_spans();
  EXPECT_EQ(trace_json_text(trace_snapshot()), first);
}

TEST_F(ObsExportTest, WallTraceExportsMicroseconds) {
  set_deterministic(false);
  record_nested_spans();
  const JsonValue doc = trace_json(trace_snapshot());
  EXPECT_EQ(doc.at("time_unit").as_string(), "us");
  EXPECT_FALSE(doc.at("deterministic").as_bool());
}

TEST_F(ObsExportTest, MetricsJsonRoundTrips) {
  const Counter c("obs.export.counter", "ops");
  const Histogram h("obs.export.hist", "ns");
  const Gauge g("obs.export.gauge", "items");
  c.add(17);
  g.set(5);
  h.record(100);
  h.record(3);

  const JsonValue doc = metrics_json(metrics_snapshot());
  EXPECT_EQ(doc.at("schema").as_string(), "hpcem.obs_metrics");
  const MetricsSnapshot back = metrics_from_json(doc);
  // Round trip is exact: integers survive the double-typed JSON layer
  // (all obs values stay far below 2^53).
  EXPECT_EQ(metrics_json(back).dump(2), doc.dump(2));

  EXPECT_THROW((void)metrics_from_json(JsonValue::object()), ParseError);
}

TEST_F(ObsExportTest, TraceEmbedsMetricsSnapshot) {
  const Counter c("obs.export.embed_counter", "ops");
  c.add(3);
  record_nested_spans();
  const MetricsSnapshot metrics = metrics_snapshot();
  const JsonValue doc = trace_json(trace_snapshot(), &metrics);
  const JsonValue* m = doc.get("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->at("schema").as_string(), "hpcem.obs_metrics");
  const MetricsSnapshot back = metrics_from_json(*m);
  bool found = false;
  for (const auto& cv : back.counters) {
    if (cv.name == "obs.export.embed_counter") {
      found = true;
      EXPECT_EQ(cv.value, 3u);
    }
  }
  EXPECT_TRUE(found);
  // Without a snapshot the member is simply absent (a v1-shaped document
  // modulo the version number).
  EXPECT_EQ(trace_json(trace_snapshot()).get("metrics"), nullptr);
}

TEST_F(ObsExportTest, ProfileComputesSelfAndInclusive) {
  record_nested_spans();
  record_nested_spans();
  const Profile p = profile_trace(trace_json(trace_snapshot()));
  EXPECT_EQ(p.time_unit, "ticks");
  const auto find = [&p](std::string_view name) -> const ProfileEntry* {
    for (const auto& e : p.entries) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  const ProfileEntry* outer = find("obs.export.outer");
  const ProfileEntry* inner = find("obs.export.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 2u);
  EXPECT_EQ(inner->count, 2u);
  // Each outer span is 3 ticks long with a 1-tick child inside.
  EXPECT_EQ(outer->inclusive, 6.0);
  EXPECT_EQ(outer->self, 4.0);
  EXPECT_EQ(inner->inclusive, 2.0);
  EXPECT_EQ(inner->self, 2.0);
  EXPECT_EQ(find("obs.export.absent"), nullptr);

  EXPECT_THROW((void)profile_trace(JsonValue::object()), InvalidArgument);
}

TEST_F(ObsExportTest, CompareProfilesReportsPercentDeltas) {
  Profile a;
  a.time_unit = "ticks";
  a.entries.push_back({"shared", 10, 120.0, 100.0});
  a.entries.push_back({"gone", 1, 5.0, 5.0});
  Profile b;
  b.time_unit = "ticks";
  b.entries.push_back({"shared", 10, 130.0, 110.0});
  b.entries.push_back({"fresh", 2, 8.0, 8.0});

  const auto deltas = compare_profiles(a, b);
  ASSERT_EQ(deltas.size(), 3u);
  // Sorted by current (b) self time, descending.
  EXPECT_EQ(deltas[0].name, "shared");
  EXPECT_DOUBLE_EQ(deltas[0].self_pct, 10.0);
  EXPECT_EQ(deltas[1].name, "fresh");
  EXPECT_TRUE(std::isinf(deltas[1].self_pct));
  EXPECT_EQ(deltas[2].name, "gone");
  EXPECT_DOUBLE_EQ(deltas[2].self_pct, -100.0);

  Profile wall;
  wall.time_unit = "us";
  EXPECT_THROW((void)compare_profiles(a, wall), InvalidArgument);
}

TEST_F(ObsExportTest, ThreadsOrderedByLabelNotCreation) {
  {
    const ScopedSpan main_span(intern_name("obs.export.main_work"));
  }
  std::thread second([] {
    set_thread_label("aux");
    const ScopedSpan s(intern_name("obs.export.aux_work"));
  });
  second.join();
  const TraceSnapshot snap = trace_snapshot();
  ASSERT_EQ(snap.threads.size(), 2u);
  EXPECT_EQ(snap.threads[0].label, "aux");
  EXPECT_EQ(snap.threads[1].label, "main");
}

}  // namespace
}  // namespace hpcem::obs
