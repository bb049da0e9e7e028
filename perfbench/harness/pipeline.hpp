// One pass of the paper pipeline through the library's public API:
//
//   load_scenario_file -> FacilityAssembly::run_simulator -> analyze_timeline
//   -> make_run_artifact (+ series) -> to_json_text
//   -> colstore::write_shard_bytes (2 shards, HashRing) -> shard files
//   -> ArtifactStore::load_hcaf_file -> MultiStore
//
// Every layer call is timed with the benchmark's own stopwatch and wrapped
// in a benchmark span ("bench.<layer>...") that the traced run harvests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/run_artifact.hpp"
#include "serve/multi_store.hpp"

namespace perfbench {

/// Wall seconds per layer, summed over the scenarios of one pass.
struct PassTimes {
  double spec_parse = 0.0;
  double sim_run = 0.0;
  double analyze = 0.0;
  double artifact_build = 0.0;
  double artifact_json = 0.0;
  double colstore_write = 0.0;
  double colstore_read = 0.0;  ///< decode-only probe (traced runs only)
  double serve_load = 0.0;
  double total = 0.0;
};

/// Window means the seed-robustness band is checked against.
struct Headline {
  std::string scenario;
  double mean_kw = 0.0;
  double mean_before_kw = 0.0;
  double mean_after_kw = 0.0;
  bool has_change = false;
};

struct BuiltStore {
  std::vector<hpcem::RunArtifact> artifacts;
  std::vector<std::string> json_texts;  ///< exact artifact JSON bytes
  std::vector<Headline> headlines;
  std::vector<std::string> shard_paths;
  std::vector<std::size_t> shard_scenarios;  ///< scenarios per shard
  std::size_t json_bytes = 0;
  std::size_t shard_bytes = 0;
  double simulated_days = 0.0;  ///< warmup + window, summed
  hpcem::serve::MultiStore store;
  PassTimes times;
};

inline constexpr std::size_t kShards = 2;

/// Run one pass.  Every simulation runs at its spec's seed plus `seed`.
/// Shard files go under `work_dir`.  `decode_probe` additionally times a
/// decode-only read of each shard (colstore.read_ms).
[[nodiscard]] std::unique_ptr<BuiltStore> build_store(
    const std::vector<std::string>& spec_paths, std::uint64_t seed,
    const std::string& work_dir, bool decode_probe);

}  // namespace perfbench
