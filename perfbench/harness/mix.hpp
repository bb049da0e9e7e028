// Query traffic mixes: committed JSON data (perfbench/mixes/*.json) turned
// into NDJSON request lines by a seeded generator.  The program under test
// only ever sees the lines; the generator keeps the typed query beside each
// line so the correctness checks can recompute answers independently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/run_artifact.hpp"
#include "util.hpp"

namespace perfbench {

/// Wire operations, in the order the mixes weight them.
enum class Op { kList, kWindowAggregate, kRegimes, kCompare, kWhatIf };
inline constexpr std::size_t kOpCount = 5;
const char* op_name(Op op);

/// Share of --seconds the query workloads' open loops take in all; the
/// closed loops take about a third as long again.
inline constexpr double kOpenShare = 0.75;
/// Sub-windows span at least this many stored samples.
inline constexpr double kMinWindowSamples = 4.0;

/// One traffic mix (see perfbench/README.md for the fields).
struct Mix {
  double rate_per_s = 0.0;          ///< open-loop send rate
  double latency_limit_us = 0.0;    ///< fixed p99 latency limit (SLO)
  std::size_t open_per_round = 0;   ///< open-loop requests per round
  std::size_t closed_per_round = 0; ///< closed-loop requests per round
  double op_weights[kOpCount] = {};
  // Curve shapes for regimes/whatif.
  double curve_constant = 0.0;
  double curve_short = 0.0;         ///< remainder: half-hourly
  std::size_t short_min_points = 2;
  std::size_t short_max_points = 48;
  double half_hourly_min_fraction = 0.0625;  ///< of the stored samples
  double half_hourly_max_fraction = 1.0;
  // Window shapes.
  double whole_window = 0.0;        ///< no start/end members
  // Spellings and options.
  double spec_override = 0.0;       ///< intensity/scope3 as an inline spec
  double scope3 = 0.0;              ///< carries a scope3 override
  double iso_times = 0.0;           ///< times spelled as ISO strings
  double shuffled_members = 0.0;
  double respelled_numbers = 0.0;
  bool unique_ids = false;          ///< every request carries a fresh id
  // Popularity (hot traffic).  working_set == 0 means all-unique traffic.
  std::size_t working_set = 0;
  double zipf_exponent = 1.0;
  double verbatim_share = 0.0;
  double respell_share = 0.0;       ///< remainder: misses
};

[[nodiscard]] Mix load_mix(const std::string& path);

/// What the generator may ask about: the stored scenarios' names, channels
/// and series spans (from the set-up's artifacts, so the traffic
/// only names things the store holds).
struct ShapeChannel {
  std::string name;
  bool kw = false;
  double first = 0.0;  ///< first/last stored sample time (epoch s)
  double last = 0.0;
  std::size_t samples = 0;
};
struct ShapeScenario {
  std::string name;
  std::vector<ShapeChannel> channels;
};
using StoreShape = std::vector<ShapeScenario>;

[[nodiscard]] StoreShape shape_of(const std::vector<hpcem::RunArtifact>& a);

/// A typed query: what the line asks, independent of its spelling.
struct Query {
  Op op = Op::kList;
  std::string id;
  std::size_t scenario = 0;
  std::size_t scenario_b = 0;   ///< compare
  std::string channel;
  bool windowed = false;
  double start = 0.0;
  double end = 0.0;
  bool constant_curve = true;
  double constant = 0.0;
  std::vector<std::pair<double, double>> points;
  bool has_scope3 = false;
  double scope3_tonnes = 0.0;
  double scope3_years = 0.0;
};

/// How a query is spelled on the wire.  The default is the server's
/// canonical rendering.
struct Spelling {
  bool via_spec = false;
  bool iso_times = false;
  bool shuffled = false;
  bool respelled_numbers = false;
  std::uint64_t shuffle_seed = 0;
};

[[nodiscard]] std::string render(const Query& q, const StoreShape& shape,
                                 const Spelling& s);

/// One request line and the typed query it spells.  `query` indexes the
/// generator's query table; verbatim repeats share one line.
struct Request {
  std::shared_ptr<const std::string> line;
  std::uint32_t query = 0;
};

/// Smooth weighted round robin: a deterministic interleaving that gives
/// each choice its weight's share of every prefix of the sequence.
class RoundRobin {
 public:
  explicit RoundRobin(std::vector<double> weights)
      : weights_(std::move(weights)), current_(weights_.size(), 0.0) {}
  std::size_t next() {
    double total = 0.0;
    std::size_t best = 0;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      current_[i] += weights_[i];
      total += weights_[i];
      if (current_[i] > current_[best]) best = i;
    }
    current_[best] -= total;
    return best;
  }

 private:
  std::vector<double> weights_;
  std::vector<double> current_;
};

/// Seeded line generator for one mix over one store shape.
class Generator {
 public:
  Generator(Mix mix, StoreShape shape, std::uint64_t seed);

  /// The hot working set in canonical spelling (empty for all-unique
  /// mixes): sent once before timing so the cache is warm.
  [[nodiscard]] std::vector<Request> warmup() const;
  /// Next `n` requests of the mix.
  [[nodiscard]] std::vector<Request> take(std::size_t n);

  [[nodiscard]] const std::vector<Query>& queries() const { return queries_; }
  [[nodiscard]] const StoreShape& shape() const { return shape_; }
  [[nodiscard]] const Mix& mix() const { return mix_; }

 private:
  enum class Curve { kConstant, kShort, kHalfHourly };

  /// A query with op, scenario and curve class drawn from the mix.
  [[nodiscard]] Query fresh_query(const char* id_prefix);
  [[nodiscard]] Query make_query(Op op, std::size_t scenario, Curve curve,
                                 const char* id_prefix);
  [[nodiscard]] Spelling base_spelling();
  [[nodiscard]] Spelling respelling();
  void make_curve(Query& q, const ShapeScenario& s, Curve curve);
  void make_window(Query& q, double first, double last);
  [[nodiscard]] std::size_t zipf_rank();

  Mix mix_;
  StoreShape shape_;
  Rng rng_;
  std::vector<Query> queries_;
  std::vector<std::size_t> working_;   ///< working-set query indices
  std::vector<std::shared_ptr<const std::string>> canonical_;  ///< per working_
  std::vector<double> zipf_cdf_;
  std::uint64_t next_id_ = 0;
  RoundRobin fresh_ops_;     ///< op of each fresh query
  RoundRobin fresh_curves_;  ///< curve class of each fresh priced query
  RoundRobin kinds_;         ///< hot traffic: verbatim, re-spelled or miss
  std::size_t half_hourly_sent_ = 0;
  std::size_t half_hourly_scenario_ = 0;  ///< seeded start of the rotation
  double half_hourly_phase_ = 0.0;        ///< seeded start of the sizes
};

}  // namespace perfbench
