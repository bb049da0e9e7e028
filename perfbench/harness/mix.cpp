#include "mix.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/sim_time.hpp"

namespace perfbench {

namespace {

constexpr double kHalfHour = 1800.0;

double number_or(const hpcem::JsonValue& v, const char* key, double dflt) {
  const hpcem::JsonValue* m = v.get(key);
  return m == nullptr ? dflt : m->as_number();
}

std::size_t count_or(const hpcem::JsonValue& v, const char* key,
                     std::size_t dflt) {
  return static_cast<std::size_t>(
      number_or(v, key, static_cast<double>(dflt)));
}

/// Number spellings: the shortest round-trip form (what the server
/// prints), or — when `rng` is given — a random equivalent spelling.
std::string number(double v, Rng* rng) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string s(buf, res.ptr);
  if (rng == nullptr) return s;
  switch (rng->range(0, 2)) {
    case 1:
      if (s.find_first_of(".e") == std::string::npos) return s + ".0";
      if (s.find('e') == std::string::npos) return s + "0";
      return s;
    case 2:
      res = std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::scientific);
      return std::string(buf, res.ptr);
    default:
      return s;
  }
}

/// A JSON object under construction: members rendered, order chosen last.
class ObjectWriter {
 public:
  void add(std::string key, std::string rendered) {
    members_.emplace_back(std::move(key), std::move(rendered));
  }
  std::string str(Rng* shuffle, bool spaced) {
    if (shuffle != nullptr) {
      for (std::size_t i = members_.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            shuffle->range(0, static_cast<std::int64_t>(i) - 1));
        std::swap(members_[i - 1], members_[j]);
      }
    }
    std::string out = "{";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += spaced ? ", " : ",";
      out += '"';
      out += members_[i].first;
      out += spaced ? "\": " : "\":";
      out += members_[i].second;
    }
    out += '}';
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

std::string quoted(const std::string& s) { return '"' + s + '"'; }

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kList: return "list";
    case Op::kWindowAggregate: return "window_aggregate";
    case Op::kRegimes: return "regimes";
    case Op::kCompare: return "compare";
    case Op::kWhatIf: return "whatif";
  }
  return "unknown";
}

Mix load_mix(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read mix " + path);
  std::ostringstream text;
  text << in.rdbuf();
  hpcem::JsonParseOptions options;
  options.allow_comments = true;
  const hpcem::JsonValue v = hpcem::JsonValue::parse(text.str(), options);

  Mix m;
  m.rate_per_s = v.at("rate_per_s").as_number();
  m.latency_limit_us = v.at("latency_limit_us").as_number();
  m.open_per_round =
      static_cast<std::size_t>(v.at("open_per_round").as_number());
  m.closed_per_round =
      static_cast<std::size_t>(v.at("closed_per_round").as_number());
  if (m.open_per_round == 0 || m.closed_per_round == 0) {
    throw std::runtime_error("mix " + path + ": empty rounds");
  }
  const hpcem::JsonValue& ops = v.at("ops");
  for (std::size_t i = 0; i < kOpCount; ++i) {
    m.op_weights[i] = number_or(ops, op_name(static_cast<Op>(i)), 0.0);
  }
  const hpcem::JsonValue& curves = v.at("curves");
  m.curve_constant = number_or(curves, "constant", 0.0);
  m.curve_short = number_or(curves, "short", 0.0);
  m.short_min_points = count_or(curves, "short_min_points", 2);
  m.short_max_points = count_or(curves, "short_max_points", 48);
  m.half_hourly_min_fraction =
      number_or(curves, "half_hourly_min_fraction", 0.0625);
  m.half_hourly_max_fraction =
      number_or(curves, "half_hourly_max_fraction", 1.0);
  const hpcem::JsonValue& windows = v.at("windows");
  m.whole_window = number_or(windows, "whole", 0.0);
  const hpcem::JsonValue& spell = v.at("spelling");
  m.spec_override = number_or(spell, "spec_override", 0.0);
  m.scope3 = number_or(spell, "scope3", 0.0);
  m.iso_times = number_or(spell, "iso_times", 0.0);
  m.shuffled_members = number_or(spell, "shuffled_members", 0.0);
  m.respelled_numbers = number_or(spell, "respelled_numbers", 0.0);
  m.unique_ids = spell.get("unique_ids") != nullptr &&
                 spell.at("unique_ids").as_bool();
  if (const hpcem::JsonValue* pop = v.get("popularity")) {
    m.working_set = count_or(*pop, "working_set", 0);
    m.zipf_exponent = number_or(*pop, "zipf_exponent", 1.0);
    m.verbatim_share = number_or(*pop, "verbatim_share", 0.0);
    m.respell_share = number_or(*pop, "respell_share", 0.0);
  }
  return m;
}

StoreShape shape_of(const std::vector<hpcem::RunArtifact>& artifacts) {
  StoreShape shape;
  for (const hpcem::RunArtifact& a : artifacts) {
    ShapeScenario s;
    s.name = a.scenario;
    for (const hpcem::ChannelAggregate& c : a.channels) {
      if (c.series.size() < 2) continue;
      s.channels.push_back({c.name, c.unit == "kW", c.series.front().time.sec(),
                            c.series.back().time.sec(), c.series.size()});
    }
    shape.push_back(std::move(s));
  }
  return shape;
}

std::string render(const Query& q, const StoreShape& shape,
                   const Spelling& s) {
  Rng rng(s.shuffle_seed);
  Rng* numbers = s.respelled_numbers ? &rng : nullptr;
  Rng* shuffle = s.shuffled ? &rng : nullptr;
  const bool spaced = s.shuffled || s.respelled_numbers || s.iso_times;
  auto time = [&](double t) {
    if (s.iso_times && std::fmod(t, 60.0) == 0.0) return quoted(hpcem::iso_date_time(hpcem::SimTime(t)));
    return number(t, numbers);
  };

  ObjectWriter w;
  w.add("op", quoted(op_name(q.op)));
  if (!q.id.empty()) w.add("id", quoted(q.id));
  if (q.op == Op::kCompare) {
    w.add("a", quoted(shape[q.scenario].name));
    w.add("b", quoted(shape[q.scenario_b].name));
  }
  if (q.op != Op::kList && q.op != Op::kCompare) {
    w.add("scenario", quoted(shape[q.scenario].name));
  }
  if (!q.channel.empty()) w.add("channel", quoted(q.channel));
  if (q.windowed) {
    w.add("start", time(q.start));
    w.add("end", time(q.end));
  }
  const bool curve = q.op == Op::kRegimes || q.op == Op::kWhatIf;
  std::string intensity;
  if (curve) {
    ObjectWriter iw;
    if (q.constant_curve) {
      iw.add("constant_g_per_kwh", number(q.constant, numbers));
    } else {
      std::string pts = "[";
      for (std::size_t i = 0; i < q.points.size(); ++i) {
        if (i > 0) pts += ',';
        pts += '[';
        pts += time(q.points[i].first);
        pts += ',';
        pts += number(q.points[i].second, numbers);
        pts += ']';
      }
      pts += ']';
      iw.add("points", std::move(pts));
    }
    intensity = iw.str(shuffle, spaced);
  }
  std::string scope3;
  if (q.has_scope3) {
    ObjectWriter sw;
    sw.add("total_tonnes", number(q.scope3_tonnes, numbers));
    sw.add("lifetime_years", number(q.scope3_years, numbers));
    scope3 = sw.str(shuffle, spaced);
  }
  if (curve && s.via_spec) {
    ObjectWriter spec;
    spec.add("grid", std::move(intensity));
    if (q.has_scope3) spec.add("scope3", std::move(scope3));
    w.add("spec", spec.str(shuffle, spaced));
  } else {
    if (curve) w.add("intensity", std::move(intensity));
    if (q.has_scope3) w.add("scope3", std::move(scope3));
  }
  return w.str(shuffle, spaced);
}

Generator::Generator(Mix mix, StoreShape shape, std::uint64_t seed)
    : mix_(std::move(mix)),
      shape_(std::move(shape)),
      rng_(seed),
      fresh_ops_(std::vector<double>(mix_.op_weights,
                                     mix_.op_weights + kOpCount)),
      fresh_curves_({mix_.curve_constant, mix_.curve_short,
                     1.0 - mix_.curve_constant - mix_.curve_short}),
      kinds_({mix_.verbatim_share, mix_.respell_share,
              1.0 - mix_.verbatim_share - mix_.respell_share}) {
  if (shape_.size() < 2) throw std::runtime_error("mix needs two scenarios");
  half_hourly_scenario_ = static_cast<std::size_t>(
      rng_.range(0, static_cast<std::int64_t>(shape_.size()) - 1));
  half_hourly_phase_ = rng_.uniform();
  // The working set is stratified by popularity rank: op, scenario and
  // curve class follow fixed interleavings, so whichever seed is used the
  // most popular queries cost the same kind of work.  Working-set curves
  // are constant or short; half-hourly curves arrive only as misses.
  RoundRobin ops(std::vector<double>(mix_.op_weights,
                                     mix_.op_weights + kOpCount));
  RoundRobin curves({mix_.curve_constant, mix_.curve_short});
  double cdf = 0.0;
  for (std::size_t i = 0; i < mix_.working_set; ++i) {
    const auto op = static_cast<Op>(ops.next());
    const bool priced = op == Op::kRegimes || op == Op::kWhatIf;
    const auto curve = priced ? static_cast<Curve>(curves.next())
                              : Curve::kConstant;
    working_.push_back(queries_.size());
    queries_.push_back(make_query(op, i % shape_.size(), curve, ""));
    canonical_.push_back(std::make_shared<const std::string>(
        render(queries_.back(), shape_, Spelling{})));
    cdf += 1.0 / std::pow(static_cast<double>(i + 1), mix_.zipf_exponent);
    zipf_cdf_.push_back(cdf);
  }
  for (double& c : zipf_cdf_) c /= cdf;
}

std::vector<Request> Generator::warmup() const {
  std::vector<Request> out;
  for (std::size_t i = 0; i < working_.size(); ++i) {
    out.push_back({canonical_[i], static_cast<std::uint32_t>(working_[i])});
  }
  return out;
}

std::vector<Request> Generator::take(std::size_t n) {
  std::vector<Request> out;
  out.reserve(n);
  auto fresh = [&](const char* prefix, const Spelling& s) {
    queries_.push_back(fresh_query(prefix));
    out.push_back({std::make_shared<const std::string>(
                       render(queries_.back(), shape_, s)),
                   static_cast<std::uint32_t>(queries_.size() - 1)});
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (working_.empty()) {
      fresh("c", base_spelling());
      continue;
    }
    const std::size_t kind = kinds_.next();
    if (kind == 0) {
      const std::size_t r = zipf_rank();
      out.push_back({canonical_[r], static_cast<std::uint32_t>(working_[r])});
    } else if (kind == 1) {
      const std::size_t q = working_[zipf_rank()];
      out.push_back({std::make_shared<const std::string>(
                         render(queries_[q], shape_, respelling())),
                     static_cast<std::uint32_t>(q)});
    } else {
      fresh("m", Spelling{});
    }
  }
  return out;
}

std::size_t Generator::zipf_rank() {
  const double u = rng_.uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - zipf_cdf_.begin()),
                  zipf_cdf_.size() - 1);
}

Spelling Generator::base_spelling() {
  Spelling s;
  s.via_spec = rng_.chance(mix_.spec_override);
  s.iso_times = rng_.chance(mix_.iso_times);
  s.shuffled = rng_.chance(mix_.shuffled_members);
  s.respelled_numbers = rng_.chance(mix_.respelled_numbers);
  s.shuffle_seed = rng_.next();
  return s;
}

Spelling Generator::respelling() {
  // Always differs from the canonical bytes (spaced separators at least),
  // and usually in member order, number and time spellings too.
  Spelling s;
  s.via_spec = rng_.chance(0.3);
  s.iso_times = rng_.chance(0.5);
  s.shuffled = true;
  s.respelled_numbers = rng_.chance(0.5);
  s.shuffle_seed = rng_.next();
  return s;
}

Query Generator::fresh_query(const char* id_prefix) {
  const std::size_t op = fresh_ops_.next();
  auto scenario = static_cast<std::size_t>(
      rng_.range(0, static_cast<std::int64_t>(shape_.size()) - 1));
  // Ops, and curve classes over the priced ops, follow fixed interleavings,
  // and half-hourly curves (the slowest requests, which set query_p99_us)
  // rotate through the scenarios from a seeded start: the seed changes
  // which requests are sent, not how many of each kind and size.  So does
  // the hot mix's choice between verbatim, re-spelled and missing requests
  // (Generator::take): drawn at random, the share of slow misses in a p99
  // window varied around 1% and moved the window's p99 tenfold.
  const bool priced = static_cast<Op>(op) == Op::kRegimes ||
                      static_cast<Op>(op) == Op::kWhatIf;
  const auto curve = priced ? static_cast<Curve>(fresh_curves_.next())
                            : Curve::kConstant;
  if (curve == Curve::kHalfHourly) {
    scenario = (half_hourly_scenario_ + half_hourly_sent_) % shape_.size();
  }
  return make_query(static_cast<Op>(op), scenario, curve, id_prefix);
}

Query Generator::make_query(Op op, std::size_t scenario, Curve curve,
                            const char* id_prefix) {
  Query q;
  q.op = op;
  const bool fresh_id = id_prefix[0] != '\0' &&
                        (mix_.unique_ids || id_prefix[0] == 'm');
  if (fresh_id) q.id = id_prefix + std::to_string(next_id_++);
  q.scenario = scenario;
  const ShapeScenario& s = shape_[q.scenario];

  switch (q.op) {
    case Op::kList:
      break;
    case Op::kCompare:
      q.scenario_b = static_cast<std::size_t>(
          rng_.range(0, static_cast<std::int64_t>(shape_.size()) - 2));
      if (q.scenario_b >= q.scenario) ++q.scenario_b;
      break;
    case Op::kWindowAggregate: {
      const ShapeChannel& c = s.channels[static_cast<std::size_t>(
          rng_.range(0, static_cast<std::int64_t>(s.channels.size()) - 1))];
      q.channel = c.name;
      if (!rng_.chance(mix_.whole_window)) make_window(q, c.first, c.last);
      break;
    }
    case Op::kRegimes:
    case Op::kWhatIf: {
      std::vector<const ShapeChannel*> kw;
      for (const ShapeChannel& c : s.channels) {
        if (c.kw) kw.push_back(&c);
      }
      const ShapeChannel& c = *kw[static_cast<std::size_t>(
          rng_.range(0, static_cast<std::int64_t>(kw.size()) - 1))];
      if (q.op == Op::kWhatIf) q.channel = c.name;
      if (!rng_.chance(mix_.whole_window)) make_window(q, c.first, c.last);
      make_curve(q, s, curve);
      if (rng_.chance(mix_.scope3)) {
        q.has_scope3 = true;
        q.scope3_tonnes = 500.0 * static_cast<double>(rng_.range(16, 28));
        q.scope3_years = static_cast<double>(rng_.range(4, 8));
      }
      break;
    }
  }
  return q;
}

void Generator::make_window(Query& q, double first, double last) {
  const double min_len = kMinWindowSamples * kHalfHour;
  const double len =
      min_len + std::floor(rng_.uniform() * (last - first - min_len) / 60.0) *
                    60.0;
  const double start =
      first + std::floor(rng_.uniform() * (last - first - len) / 60.0) * 60.0;
  q.windowed = true;
  q.start = start;
  q.end = start + len;
}

void Generator::make_curve(Query& q, const ShapeScenario& s, Curve curve) {
  auto intensity = [&] {
    return std::round((5.0 + 315.0 * rng_.uniform()) * 100.0) / 100.0;
  };
  if (curve == Curve::kConstant) {
    q.constant_curve = true;
    q.constant = intensity();
    return;
  }
  q.constant_curve = false;
  const ShapeChannel& c = s.channels.front();
  if (curve == Curve::kShort) {
    // A few breakpoints anywhere around the stored span (minute-aligned so
    // every time has an ISO spelling).
    const auto k = static_cast<std::size_t>(
        rng_.range(static_cast<std::int64_t>(mix_.short_min_points),
                   static_cast<std::int64_t>(mix_.short_max_points)));
    const double lo = c.first - 86400.0;
    const double span_min = (c.last - c.first + 2 * 86400.0) / 60.0;
    std::vector<double> times;
    for (std::size_t i = 0; i < k; ++i) {
      times.push_back(lo + std::floor(rng_.uniform() * span_min) * 60.0);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    for (const double t : times) q.points.emplace_back(t, intensity());
    return;
  }
  // Half-hourly settlement resolution: up to one breakpoint per stored
  // sample, as a bounded random walk.  Sizes follow a golden-ratio
  // sequence from a seeded phase, so every run of consecutive half-hourly
  // curves spreads evenly over the size range.
  const double u = std::fmod(
      half_hourly_phase_ +
          0.6180339887498949 * static_cast<double>(half_hourly_sent_++),
      1.0);
  const double frac =
      mix_.half_hourly_min_fraction +
      u * (mix_.half_hourly_max_fraction - mix_.half_hourly_min_fraction);
  const std::size_t m = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::round(frac * static_cast<double>(
                                                     c.samples))),
      2, c.samples - 1);
  const double t0 =
      c.first + kHalfHour * static_cast<double>(rng_.range(
                                0, static_cast<std::int64_t>(c.samples - m)));
  double g = intensity();
  for (std::size_t i = 0; i < m; ++i) {
    g = std::clamp(g + 20.0 * (rng_.uniform() - 0.5), 5.0, 400.0);
    g = std::round(g * 10.0) / 10.0;
    q.points.emplace_back(t0 + kHalfHour * static_cast<double>(i), g);
  }
}

}  // namespace perfbench
