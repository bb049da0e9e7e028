// Correctness checks.  All of them run after the timed phases; each
// mismatch counts as one failed operation.
//
//   * window means of the paper scenarios stay within the +-4% band of
//     tests/integration/test_seed_robustness.cpp;
//   * every artifact read back from an HCAF shard re-serialises byte-identically to the JSON artifacts;
//   * every response is byte-equal to a single-threaded QueryEngine over a
//     store loaded from the JSON artifact files;
//   * every whatif energy_kwh and scope-2 mass is within 1e-9 relative of
//     a linear recomputation from the artifact series.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mix.hpp"
#include "pipeline.hpp"
#include "serve/artifact_store.hpp"
#include "serve/query.hpp"

namespace perfbench {

/// Failure messages, capped so a systematic failure stays readable.
struct Failures {
  std::size_t count = 0;
  std::vector<std::string> messages;
  void add(std::string message);
};

/// Band check of one pass's window means, one check per paper scenario.
/// Returns the number of checks made.
std::size_t check_bands(const BuiltStore& built, Failures& failures);

/// HCAF round trip of one pass's shards: one check per artifact read back
/// and one that the shards hold every scenario.  Returns the number of
/// checks made.
std::size_t check_round_trip(const BuiltStore& built, Failures& failures);

/// The reference answers: a single-threaded engine over the JSON store.
class Reference {
 public:
  /// Writes the pass's JSON artifacts under `work_dir` and loads them.
  Reference(const BuiltStore& built, const std::string& work_dir);

  /// Check each response against the reference answer to its query's
  /// canonical spelling (and whatif answers against the linear
  /// recomputation).  `memoize` caches reference answers per query, for
  /// traffic that repeats queries.  Returns one flag per response, set
  /// where the response failed.
  std::vector<char> check(const Generator& generator,
                          const std::vector<Request>& requests,
                          const std::vector<std::string>& responses,
                          bool memoize, Failures& failures);

 private:
  const BuiltStore& built_;
  hpcem::serve::ArtifactStore store_;
  std::unique_ptr<hpcem::serve::QueryEngine> engine_;
  std::unordered_map<std::uint32_t, std::string> memo_;
};

}  // namespace perfbench
