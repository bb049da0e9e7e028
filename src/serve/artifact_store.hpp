// In-memory indexed column store over run artifacts: the data tier of the
// serving layer (see DESIGN.md "Serving layer").
//
// An `ArtifactStore` ingests a directory of `RunArtifact` JSON files — the
// output of `hpcem_sim --serve-export`, `hpcem_replay --artifact-out` and
// `hpcem_analyze --serve-export` — and turns them into a query-ready shape:
//   * scenario and channel names are interned to dense ids assigned in
//     lexicographic order, so every iteration over the store is
//     deterministic regardless of ingest order;
//   * channels that carry a v3 series are stored as separate time/value
//     columns with prefix sums (value sum and trapezoidal integral), so a
//     windowed aggregate costs two binary searches plus an O(k) min/max
//     scan rather than a full pass;
//   * duplicate scenario ids across files are rejected at ingest with a
//     one-line error naming both files — a store where the answer depends
//     on which file loaded last is a silent-wrong-answer machine.
//
// The store is frozen after loading: every accessor is const and
// thread-safe by immutability, which is what lets the serving front run
// queries on a pool of workers without a single lock around the data.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/run_artifact.hpp"
#include "util/error.hpp"

namespace hpcem::serve {

/// Thrown when two ingested artifacts claim the same scenario id.  A
/// distinct type so tools can map it to a usage-style exit (the mistake is
/// in the store directory the caller assembled, not in any one file).
class DuplicateScenarioError : public Error {
 public:
  explicit DuplicateScenarioError(const std::string& what) : Error(what) {}
};

/// One channel of one scenario, column-ised for windowed queries.
struct StoredChannel {
  std::string name;
  std::string unit;
  /// Whole-run streaming aggregates (always present, even without series).
  ChannelAggregate aggregate;

  // Column store of the retained raw samples; empty for aggregate-only
  // (v1/v2) artifacts.
  std::vector<double> times;   ///< seconds since epoch, non-decreasing
  std::vector<double> values;
  /// prefix_value_sum[i] = sum of values[0..i); size == values.size() + 1.
  std::vector<double> prefix_value_sum;
  /// prefix_integral[i] = trapezoidal integral over samples [0..i);
  /// size == values.size() + 1 (unit-seconds, e.g. kW s).
  std::vector<double> prefix_integral;

  [[nodiscard]] bool has_series() const { return !times.empty(); }
};

/// One ingested scenario: its artifact metadata plus columnised channels.
struct StoredScenario {
  std::string name;
  std::string source;        ///< artifact "source" member
  std::string machine;
  std::string source_file;   ///< ingest provenance ("<memory>" for add())
  SimTime window_start{};
  SimTime window_end{};
  std::size_t replicates = 1;
  RunHeadline headline;
  std::vector<ArtifactChangePoint> change_points;
  /// Channels sorted by name; index == dense per-scenario channel id.
  std::vector<StoredChannel> channels;

  /// Channel by name, nullptr when absent (binary search).
  [[nodiscard]] const StoredChannel* find_channel(
      const std::string& name) const;
};

/// Windowed aggregate of a stored channel over [start, end).
struct WindowAggregate {
  std::size_t samples = 0;  ///< retained samples inside the window
  double mean = 0.0;        ///< arithmetic mean of in-window sample values
  double min = 0.0;
  double max = 0.0;
  /// Trapezoidal integral over the in-window sample intervals
  /// (unit-seconds); spans only [first, last] in-window sample times.
  double integral = 0.0;
  SimTime first_time{};
  SimTime last_time{};
};

/// Immutable-after-load, deterministically ordered artifact collection.
class ArtifactStore {
 public:
  /// Ingest one artifact.  `source_file` labels error messages and the
  /// scenario's provenance.  Throws DuplicateScenarioError when the
  /// scenario id is already present.
  void add(const RunArtifact& artifact,
           const std::string& source_file = "<memory>");

  /// Ingest one artifact JSON file.  Throws ParseError on unreadable or
  /// malformed input, DuplicateScenarioError on a duplicate scenario id.
  void load_file(const std::string& path);

  /// Ingest every `*.artifact.json` directly inside `dir`, in sorted
  /// filename order.  Returns the number of files ingested.
  std::size_t load_directory(const std::string& dir);

  /// Ingest every scenario of one HCAF shard file (colstore/hcaf.hpp).
  /// Near-instant: the shard carries the columns and prefix sums
  /// pre-computed, so ingest is validation plus moves — no JSON parse, no
  /// prefix-sum pass.  Returns the number of scenarios ingested.  Throws
  /// ParseError on a truncated/corrupt/over-versioned shard,
  /// DuplicateScenarioError on a duplicate scenario id.
  std::size_t load_hcaf_file(const std::string& path);

  /// Ingest format of this store's contents so far: "empty", "memory"
  /// (add()), "json", "hcaf", or "mixed" when more than one applies.
  [[nodiscard]] std::string format() const;

  [[nodiscard]] std::size_t scenario_count() const {
    return scenarios_.size();
  }
  /// Scenario names in lexicographic order (== dense id order).
  [[nodiscard]] std::vector<std::string> scenario_names() const;

  /// Scenario by name; nullptr when absent.
  [[nodiscard]] const StoredScenario* find(const std::string& name) const;
  /// Scenario by name; throws InvalidArgument when absent.
  [[nodiscard]] const StoredScenario& at(const std::string& name) const;

  /// Total retained series samples across every channel of every scenario.
  [[nodiscard]] std::size_t total_series_samples() const;

  /// Windowed aggregate of a channel over [start, end) — two binary
  /// searches plus prefix-sum lookups; min/max scan the in-window values.
  /// Requires a stored series; throws StateError for aggregate-only
  /// channels.  Returns samples == 0 when the window is empty.
  [[nodiscard]] static WindowAggregate window_aggregate(
      const StoredChannel& channel, SimTime start, SimTime end);

 private:
  /// Common ingest tail: sort channels, reject duplicate channel and
  /// scenario names, insert.
  void insert_scenario(StoredScenario&& s);

  // Scenarios sorted by name: a std::map gives deterministic iteration and
  // stable addresses (the front hands out StoredScenario pointers).
  std::map<std::string, StoredScenario> scenarios_;
  // Ingest-kind counters behind format().
  std::size_t memory_ingests_ = 0;
  std::size_t json_ingests_ = 0;
  std::size_t hcaf_ingests_ = 0;
};

}  // namespace hpcem::serve
