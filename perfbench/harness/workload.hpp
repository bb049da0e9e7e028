// What one benchmark run shares between its untraced (end-to-end) and
// traced (per-layer) modes: the run's options and inputs, the traffic
// phases over a ServeFront, and the correctness bookkeeping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "host_speed.hpp"
#include "mix.hpp"
#include "pipeline.hpp"
#include "serve/front.hpp"
#include "traffic.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
};

/// Everything one run accumulates besides its metrics.
struct Run {
  Options opt;
  std::vector<std::string> specs;
  std::string work;  ///< working directory for shards and reference files
  Mix paper_mix;
  std::optional<Mix> traffic_mix;  ///< query workloads only
  Failures failures;
  std::size_t attempted = 0;

  [[nodiscard]] bool paper() const { return !traffic_mix.has_value(); }
};

/// One front's worth of traffic: a fresh ServeFront, the cache warmed with
/// the mix's working set (if any), then rounds of an open-loop phase
/// followed by a closed-loop phase.  The first `warmup_rounds` rounds are
/// checked but not timed.  Request generation happens before the front
/// exists.
struct ServeRun {
  /// Where each round's requests end in `open` / `closed`, how long its
  /// closed loop took, and the host's speed around it (timed rounds of an
  /// end-to-end run; 1 otherwise).
  struct Round {
    std::size_t open_end = 0;
    std::size_t closed_end = 0;
    double closed_s = 0.0;
    double time_scale = 1.0;
  };

  std::unique_ptr<Generator> generator;
  std::vector<Request> warm_requests;
  std::vector<Request> open_requests;    ///< every round's, in send order
  std::vector<Request> closed_requests;
  PhaseResult warm;
  PhaseResult open;
  PhaseResult closed;
  std::vector<Round> rounds;
  std::size_t warmup_rounds = 0;
  hpcem::serve::FrontStats stats;
  double front_s = 0.0;  ///< front construction to teardown
  std::vector<char> open_bad;    ///< set by check_pass
  std::vector<char> closed_bad;

  /// Index of the first timed open-loop / closed-loop request.
  [[nodiscard]] std::size_t timed_open_begin() const;
  [[nodiscard]] std::size_t timed_closed_begin() const;
};

/// One pipeline pass up to the loaded store.
[[nodiscard]] std::unique_ptr<BuiltStore> build(const Run& run,
                                                bool decode_probe);
/// The query pass that ends every pipeline pass: one warm-up round, then
/// four timed rounds of the paper mix.  When `speed` is given, the reference kernel is sampled
/// before and after every timed round to set its time_scale.
[[nodiscard]] std::unique_ptr<ServeRun> paper_pass(const Run& run,
                                                   const BuiltStore& built,
                                                   HostSpeed* speed = nullptr);

/// A query workload's traffic over the set-up's store: one warm-up round,
/// then rounds of its query mix whose open loops fill kOpenShare of
/// --seconds.
[[nodiscard]] std::unique_ptr<ServeRun> traffic_pass(
    const Run& run, const BuiltStore& built, HostSpeed* speed = nullptr);

/// Correctness of one pass: bands, round trip and every response of
/// `traffic` (when given).  Counts attempted operations and failures.
void check_pass(Run& run, const BuiltStore& built, ServeRun* traffic);

[[nodiscard]] std::size_t count_bad(const std::vector<char>& bad);

/// Print digests of every request line and response of one traffic run,
/// in send order (the determinism tests compare them across runs).
void print_digests(const ServeRun& t);

}  // namespace perfbench
