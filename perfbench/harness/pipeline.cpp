#include "pipeline.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "colstore/hcaf.hpp"
#include "colstore/shard.hpp"
#include "core/assembly.hpp"
#include "core/spec_io.hpp"
#include "obs/span.hpp"
#include "serve/artifact_store.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

/// Time `fn` into `acc` (seconds) and return its result.
template <typename Fn>
auto timed(double& acc, Fn&& fn) {
  const Stopwatch sw;
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += sw.seconds();
  } else {
    auto result = fn();
    acc += sw.seconds();
    return result;
  }
}

}  // namespace

std::unique_ptr<BuiltStore> build_store(
    const std::vector<std::string>& spec_paths, std::uint64_t seed,
    const std::string& work_dir, bool decode_probe) {
  HPCEM_OBS_SPAN("bench.pipeline.build_store");
  const Stopwatch total;
  auto out = std::make_unique<BuiltStore>();
  PassTimes& t = out->times;

  for (const std::string& path : spec_paths) {
    const hpcem::ScenarioSpec spec = timed(t.spec_parse, [&] {
      HPCEM_OBS_SPAN("bench.core.spec.parse");
      return hpcem::load_scenario_file(path);
    });
    const hpcem::FacilityAssembly assembly(spec);
    const auto sim = timed(t.sim_run, [&] {
      HPCEM_OBS_SPAN("bench.sim.run_simulator");
      return assembly.run_simulator(spec.seed + seed);
    });
    out->simulated_days +=
        (spec.window_end - spec.window_start).sec() / 86400.0 +
        spec.warmup.sec() / 86400.0;
    const hpcem::TimelineResult result = timed(t.analyze, [&] {
      HPCEM_OBS_SPAN("bench.core.analyze");
      return hpcem::analyze_timeline(*sim, spec);
    });
    Headline h;
    h.scenario = spec.name;
    h.mean_kw = result.mean_kw;
    h.mean_before_kw = result.mean_before_kw;
    h.mean_after_kw = result.mean_after_kw;
    h.has_change = result.change_time.has_value();
    out->headlines.push_back(h);

    // The serve-export artifact: the figure artifact plus the v3 series.
    hpcem::RunArtifact artifact = timed(t.artifact_build, [&] {
      HPCEM_OBS_SPAN("bench.core.artifact.build");
      hpcem::RunArtifact a = hpcem::make_run_artifact(*sim, spec, result);
      a.channels = hpcem::aggregate_channels(sim->telemetry(),
                                             /*include_series=*/true);
      return a;
    });
    std::string json = timed(t.artifact_json, [&] {
      HPCEM_OBS_SPAN("bench.core.artifact.json");
      return artifact.to_json_text();
    });
    out->json_bytes += json.size();
    out->artifacts.push_back(std::move(artifact));
    out->json_texts.push_back(std::move(json));
  }

  // Compact: consistent-hash assignment, scenarios ordered by id inside
  // each shard (what hpcem_compact writes).
  std::filesystem::create_directories(work_dir);
  const hpcem::colstore::HashRing ring(kShards);
  std::vector<std::vector<const hpcem::RunArtifact*>> by_shard(kShards);
  for (const hpcem::RunArtifact& a : out->artifacts) {
    by_shard[ring.shard_of(a.scenario)].push_back(&a);
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    std::sort(by_shard[s].begin(), by_shard[s].end(),
              [](const auto* a, const auto* b) {
                return a->scenario < b->scenario;
              });
    std::vector<hpcem::RunArtifact> members;
    for (const auto* a : by_shard[s]) members.push_back(*a);
    const std::string bytes = timed(t.colstore_write, [&] {
      HPCEM_OBS_SPAN("bench.colstore.write");
      return hpcem::colstore::write_shard_bytes(members);
    });
    const std::string path =
        work_dir + "/shard-00" + std::to_string(s) + ".hcaf";
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << bytes;
    if (!f) throw std::runtime_error("cannot write " + path);
    out->shard_paths.push_back(path);
    out->shard_scenarios.push_back(members.size());
    out->shard_bytes += bytes.size();
  }

  if (decode_probe) {
    for (const std::string& path : out->shard_paths) {
      timed(t.colstore_read, [&] {
        HPCEM_OBS_SPAN("bench.colstore.read");
        return hpcem::colstore::read_shard_file(path).size();
      });
    }
  }

  // Cold load, as hpcem_serve does for a shard directory.
  timed(t.serve_load, [&] {
    HPCEM_OBS_SPAN("bench.serve.load");
    for (const std::string& path : out->shard_paths) {
      auto shard = std::make_shared<hpcem::serve::ArtifactStore>();
      shard->load_hcaf_file(path);
      out->store.adopt(std::move(shard));
    }
  });
  t.total = total.seconds();
  return out;
}

}  // namespace perfbench
