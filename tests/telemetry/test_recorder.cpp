// Unit tests for the telemetry recorder.
#include <gtest/gtest.h>

#include <algorithm>

#include "telemetry/recorder.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

bool has_channel(const Recorder& rec, const std::string& name) {
  const auto names = rec.channel_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(Recorder, CreateAndRecord) {
  Recorder rec;
  rec.declare("power", "kW");
  EXPECT_TRUE(has_channel(rec, "power"));
  EXPECT_FALSE(has_channel(rec, "other"));
  rec.record("power", SimTime(0.0), 3220.0);
  rec.record("power", SimTime(1.0), 3221.0);
  EXPECT_EQ(rec.channel("power").size(), 2u);
  EXPECT_EQ(rec.channel("power").unit(), "kW");
}

TEST(Recorder, ReDeclareSameUnitIsIdempotent) {
  Recorder rec;
  const ChannelId id = rec.declare("x", "kW");
  TimeSeries& a = rec.series(id);
  a.append(SimTime(0.0), 1.0);
  TimeSeries& b = rec.series(rec.declare("x", "kW"));
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.size(), 1u);
}

TEST(Recorder, UnitMismatchThrows) {
  // A rejected re-declaration leaves the existing channel as it was.
  Recorder rec;
  const ChannelId id = rec.declare("x", "kW");
  rec.record(id, SimTime(0.0), 1.0);
  EXPECT_THROW(rec.declare("x", "MW"), InvalidArgument);
  EXPECT_EQ(rec.channel_count(), 1u);
  EXPECT_EQ(rec.channel("x").unit(), "kW");
  EXPECT_EQ(rec.channel("x").size(), 1u);
}

TEST(Recorder, UnknownChannelThrows) {
  Recorder rec;
  EXPECT_THROW(rec.record("nope", SimTime(0.0), 1.0), StateError);
  EXPECT_THROW(rec.channel("nope"), StateError);
}

TEST(Recorder, ChannelNamesSorted) {
  Recorder rec;
  rec.declare("zeta", "x");
  rec.declare("alpha", "x");
  const auto names = rec.channel_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(Recorder, DeclareReturnsStableHandles) {
  Recorder rec;
  const ChannelId a = rec.declare("power", "kW");
  const ChannelId b = rec.declare("util", "fraction");
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a, b);
  // Re-declaring yields the same handle.
  EXPECT_EQ(rec.declare("power", "kW"), a);
  EXPECT_EQ(rec.channel_count(), 2u);
  EXPECT_EQ(&rec.series(a), &rec.channel("power"));
  EXPECT_EQ(&rec.series(b), &rec.channel("util"));
}

TEST(Recorder, DefaultChannelIdIsInvalid) {
  const ChannelId id;
  EXPECT_FALSE(id.valid());
}

TEST(Recorder, HandleRecordMatchesStringRecord) {
  Recorder by_handle;
  Recorder by_name;
  const ChannelId id = by_handle.declare("power", "kW");
  by_name.declare("power", "kW");
  for (int i = 0; i < 100; ++i) {
    const SimTime t(static_cast<double>(i));
    const double v = 3000.0 + i;
    by_handle.record(id, t, v);
    by_name.record("power", t, v);
  }
  const TimeSeries& a = by_handle.series(id);
  const TimeSeries& b = by_name.channel("power");
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.integrate(), b.integrate());
  EXPECT_EQ(a.unit(), b.unit());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.samples()[i].time, b.samples()[i].time) << "sample " << i;
    EXPECT_EQ(a.samples()[i].value, b.samples()[i].value) << "sample " << i;
  }
}

TEST(Recorder, SeriesWithInvalidHandleThrows) {
  Recorder rec;
  EXPECT_THROW(rec.series(ChannelId{}), StateError);
}

TEST(Recorder, DeclareUnitMismatchThrows) {
  Recorder rec;
  rec.declare("x", "kW");
  EXPECT_THROW(rec.declare("x", "MW"), InvalidArgument);
}

TEST(Recorder, HandlesSurviveManyLaterDeclares) {
  // The dense channel table must not invalidate outstanding references
  // when it grows.
  Recorder rec;
  const ChannelId first = rec.declare("ch_first", "kW");
  const TimeSeries* addr = &rec.series(first);
  for (int i = 0; i < 200; ++i) {
    rec.declare("ch_" + std::to_string(i), "kW");
  }
  EXPECT_EQ(&rec.series(first), addr);
  rec.record(first, SimTime(0.0), 1.0);
  EXPECT_EQ(rec.series(first).size(), 1u);
}

TEST(Recorder, MaxRawSamplesAppliesToAllChannels) {
  Recorder rec;
  const ChannelId a = rec.declare("a", "kW");
  rec.set_max_raw_samples(64);
  const ChannelId b = rec.declare("b", "kW");  // declared after the cap
  for (int i = 0; i < 1000; ++i) {
    rec.record(a, SimTime(static_cast<double>(i)), 1.0);
    rec.record(b, SimTime(static_cast<double>(i)), 2.0);
  }
  EXPECT_LE(rec.series(a).size(), 64u);
  EXPECT_LE(rec.series(b).size(), 64u);
  EXPECT_EQ(rec.series(a).total_appended(), 1000u);
  EXPECT_EQ(rec.series(b).total_appended(), 1000u);
  EXPECT_DOUBLE_EQ(rec.series(a).mean(), 1.0);
  EXPECT_DOUBLE_EQ(rec.series(b).mean(), 2.0);
}

}  // namespace
}  // namespace hpcem
