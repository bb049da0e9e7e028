#include "serve/query.hpp"

#include <algorithm>
#include <cmath>

#include "core/spec_io.hpp"
#include "obs/span.hpp"
#include "grid/carbon.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"

namespace hpcem::serve {

namespace {

constexpr double kSecondsPerYear = 365.25 * 86400.0;

/// A request time member: epoch seconds as a number, or an ISO date-time
/// string ("YYYY-MM-DD", "YYYY-MM-DD hh:mm[:ss]").
SimTime time_member(const JsonValue& v, const std::string& member) {
  if (v.is_number()) return SimTime(v.as_number());
  if (v.is_string()) {
    if (const auto t = parse_date_time(v.as_string())) return *t;
    throw ParseError("query: bad " + member + " timestamp '" +
                     v.as_string() + "'");
  }
  throw ParseError("query: " + member +
                   " must be epoch seconds or an ISO date-time string");
}

IntensitySpec intensity_from_json(const JsonValue& v) {
  IntensitySpec spec;
  const JsonValue* constant = v.get("constant_g_per_kwh");
  const JsonValue* points = v.get("points");
  if ((constant == nullptr) == (points == nullptr)) {
    throw ParseError(
        "query: intensity needs exactly one of constant_g_per_kwh | points");
  }
  if (constant != nullptr) {
    spec.constant = CarbonIntensity::g_per_kwh(constant->as_number());
    return spec;
  }
  const auto& array = points->as_array();
  spec.points.reserve(array.size());
  for (const JsonValue& p : array) {
    const auto& pair = p.as_array();
    if (pair.size() != 2) {
      throw ParseError("query: intensity points must be [time, g_per_kwh]");
    }
    const SimTime t = time_member(pair[0], "intensity point");
    spec.points.emplace_back(t.sec(), pair[1].as_number());
  }
  if (spec.points.empty()) {
    throw ParseError("query: intensity points must be non-empty");
  }
  for (std::size_t i = 1; i < spec.points.size(); ++i) {
    if (spec.points[i].first <= spec.points[i - 1].first) {
      throw ParseError(
          "query: intensity point times must be strictly increasing");
    }
  }
  return spec;
}

EmbodiedParams embodied_from_json(const JsonValue& v) {
  EmbodiedParams p;
  p.total = CarbonMass::tonnes(v.at("total_tonnes").as_number());
  p.lifetime_years = v.at("lifetime_years").as_number();
  if (p.total.t() <= 0.0 || p.lifetime_years <= 0.0) {
    throw ParseError("query: scope3 total_tonnes and lifetime_years must "
                     "be positive");
  }
  return p;
}

const char* strategy_name(OperationalStrategy s) {
  switch (s) {
    case OperationalStrategy::kMaximisePerformance: return "performance";
    case OperationalStrategy::kBalance: return "balance";
    case OperationalStrategy::kMaximiseEnergyEfficiency:
      return "energy-efficiency";
  }
  return "unknown";
}

const char* regime_name(EmissionsRegime r) {
  switch (r) {
    case EmissionsRegime::kEmbodiedDominated: return "embodied_dominated";
    case EmissionsRegime::kBalanced: return "balanced";
    case EmissionsRegime::kOperationalDominated:
      return "operational_dominated";
  }
  return "unknown";
}

/// §2 strategy from a scope-2 share (EmissionsModel::recommend thresholds).
OperationalStrategy strategy_from_share(double scope2_share) {
  if (scope2_share < 1.0 / 3.0) {
    return OperationalStrategy::kMaximisePerformance;
  }
  if (scope2_share > 2.0 / 3.0) {
    return OperationalStrategy::kMaximiseEnergyEfficiency;
  }
  return OperationalStrategy::kBalance;
}

std::string_view op_literal(QueryRequest::Op op) {
  using Op = QueryRequest::Op;
  switch (op) {
    case Op::kList: return "list";
    case Op::kWindowAggregate: return "window_aggregate";
    case Op::kRegimes: return "regimes";
    case Op::kCompare: return "compare";
    case Op::kWhatIf: return "whatif";
    case Op::kStats: return "stats";
    case Op::kTrace: return "trace";
  }
  return "unknown";
}

/// Reject members outside `allowed` so a typo cannot silently produce a
/// default-valued (and cached) answer to a different question.
void reject_unknown_members(const JsonValue& v,
                            std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : v.as_object()) {
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* a) {
          return key == a;
        }) == allowed.end()) {
      throw ParseError("query: unknown member '" + key + "'");
    }
  }
}

}  // namespace

CarbonIntensity IntensitySpec::at(SimTime t) const {
  if (constant) return *constant;
  HPCEM_ASSERT(!points.empty(), "IntensitySpec: empty breakpoint list");
  const double x = t.sec();
  if (x <= points.front().first) {
    return CarbonIntensity::g_per_kwh(points.front().second);
  }
  if (x >= points.back().first) {
    return CarbonIntensity::g_per_kwh(points.back().second);
  }
  const auto hi = std::lower_bound(
      points.begin(), points.end(), x,
      [](const std::pair<double, double>& p, double v) { return p.first < v; });
  const auto lo = hi - 1;
  const double f = (x - lo->first) / (hi->first - lo->first);
  return CarbonIntensity::g_per_kwh(lo->second +
                                    f * (hi->second - lo->second));
}

std::string QueryRequest::op_name(Op op) {
  return std::string(op_literal(op));
}

QueryRequest QueryRequest::from_json(const JsonValue& v) {
  QueryRequest r;
  const std::string& op = v.at("op").as_string();
  if (op == "list") {
    r.op = Op::kList;
    reject_unknown_members(v, {"op", "id"});
  } else if (op == "window_aggregate") {
    r.op = Op::kWindowAggregate;
    reject_unknown_members(v,
                           {"op", "id", "scenario", "channel", "start", "end"});
    r.scenario = v.at("scenario").as_string();
    r.channel = v.at("channel").as_string();
  } else if (op == "regimes") {
    r.op = Op::kRegimes;
    reject_unknown_members(v, {"op", "id", "scenario", "intensity", "start",
                               "end", "scope3", "spec"});
    r.scenario = v.at("scenario").as_string();
  } else if (op == "compare") {
    r.op = Op::kCompare;
    reject_unknown_members(v, {"op", "id", "a", "b"});
    r.scenario_a = v.at("a").as_string();
    r.scenario_b = v.at("b").as_string();
  } else if (op == "whatif") {
    r.op = Op::kWhatIf;
    reject_unknown_members(v, {"op", "id", "scenario", "channel", "intensity",
                               "start", "end", "scope3", "spec"});
    r.scenario = v.at("scenario").as_string();
    r.channel = v.at("channel").as_string();
  } else if (op == "stats") {
    r.op = Op::kStats;
    reject_unknown_members(v, {"op", "id"});
  } else if (op == "trace") {
    r.op = Op::kTrace;
    reject_unknown_members(v, {"op", "id", "request"});
    const double n = v.at("request").as_number();
    if (n < 1.0 || n >= 0x1p64 || n != std::floor(n)) {
      throw ParseError("query: trace request must be a positive integer id");
    }
    r.trace_request = static_cast<std::uint64_t>(n);
  } else {
    throw ParseError("query: unknown op '" + op + "'");
  }

  if (const JsonValue* id = v.get("id")) r.id = id->as_string();
  if (const JsonValue* start = v.get("start")) {
    r.start = time_member(*start, "start");
  }
  if (const JsonValue* end = v.get("end")) r.end = time_member(*end, "end");
  if (r.start && r.end && *r.end < *r.start) {
    throw ParseError("query: end must not precede start");
  }
  if (const JsonValue* intensity = v.get("intensity")) {
    r.intensity = intensity_from_json(*intensity);
  }
  if (const JsonValue* scope3 = v.get("scope3")) {
    r.embodied = embodied_from_json(*scope3);
  }
  if (const JsonValue* spec = v.get("spec")) {
    // Inline scenario-spec override: the `grid` / `scope3` sections in the
    // scenario-file grammar (docs/SCENARIO_SCHEMA.md), so a what-if is
    // phrased in exactly the language of the committed scenario library.
    // Mutually exclusive with the wire-level members it resolves into —
    // the canonical key (and so the cache) only ever sees the resolved
    // intensity/scope3 form.
    if (r.intensity || r.embodied) {
      throw ParseError(
          "query: spec excludes the intensity and scope3 members");
    }
    const SpecOverrides o = spec_overrides_from_json(*spec);
    if (o.grid) {
      IntensitySpec resolved;
      resolved.constant = o.grid->constant;
      resolved.points = o.grid->points;
      r.intensity = std::move(resolved);
    }
    if (o.scope3) r.embodied = *o.scope3;
  }
  // A total past ~1.8e302 t overflows the gram-based CarbonMass; it would
  // have no JSON rendering, so no canonical key.
  if (r.embodied && !std::isfinite(r.embodied->total.t())) {
    throw ParseError("query: scope3 total_tonnes is out of range");
  }
  if ((r.op == Op::kRegimes || r.op == Op::kWhatIf) && !r.intensity) {
    throw ParseError("query: " + op_name(r.op) +
                     " needs an intensity (or a spec with a grid section)");
  }
  return r;
}

QueryRequest QueryRequest::from_json_text(std::string_view text) {
  return from_json(JsonValue::parse(text));
}

std::string QueryRequest::canonical_key() const {
  // Written straight into one buffer with the JSON layer's own appenders:
  // the same bytes as building this object as a JsonValue and dump(0)-ing
  // it (tests/serve/test_query_engine.cpp pins the equivalence).
  std::string out;
  std::size_t size = 96 + id.size() + scenario.size() + channel.size() +
                     scenario_a.size() + scenario_b.size();
  if (intensity) size += 48 * intensity->points.size();
  out.reserve(size);
  // `sep` is the text before the member: "{" opens an object, "," follows
  // a sibling.
  const auto key = [&out](std::string_view sep, std::string_view name) {
    out += sep;
    out += '"';
    out += name;
    out += "\":";
  };
  const auto text = [&](std::string_view name, std::string_view value) {
    key(",", name);
    append_json_quoted(out, value);
  };
  const auto number = [&](std::string_view sep, std::string_view name,
                          double value) {
    key(sep, name);
    append_json_number(out, value);
  };

  key("{", "op");
  append_json_quoted(out, op_literal(op));
  if (!id.empty()) text("id", id);
  if (op == Op::kCompare) {
    text("a", scenario_a);
    text("b", scenario_b);
  }
  if (op == Op::kTrace) {
    number(",", "request", static_cast<double>(trace_request));
  }
  // Names an op requires stay even when empty: a key that dropped them
  // would spell a different (malformed) request, and a raw line equal to
  // it would hit this request's cached answer.
  const bool names_scenario =
      op == Op::kWindowAggregate || op == Op::kRegimes || op == Op::kWhatIf;
  const bool names_channel = op == Op::kWindowAggregate || op == Op::kWhatIf;
  if (names_scenario || !scenario.empty()) text("scenario", scenario);
  if (names_channel || !channel.empty()) text("channel", channel);
  if (start) number(",", "start", start->sec());
  if (end) number(",", "end", end->sec());
  if (intensity) {
    key(",", "intensity");
    if (intensity->constant) {
      number("{", "constant_g_per_kwh", intensity->constant->gkwh());
    } else {
      key("{", "points");
      out += '[';
      const auto& points = intensity->points;
      for (std::size_t i = 0; i < points.size(); ++i) {
        out += i == 0 ? "[" : ",[";
        append_json_number(out, points[i].first);
        out += ',';
        append_json_number(out, points[i].second);
        out += ']';
      }
      out += ']';
    }
    out += '}';
  }
  if (embodied) {
    key(",", "scope3");
    number("{", "total_tonnes", embodied->total.t());
    number(",", "lifetime_years", embodied->lifetime_years);
    out += '}';
  }
  out += '}';
  return out;
}

std::string render_response(const QueryRequest& request,
                            const JsonValue& result) {
  JsonValue v = JsonValue::object();
  v.set("ok", true);
  v.set("op", QueryRequest::op_name(request.op));
  if (!request.id.empty()) v.set("id", request.id);
  v.set("result", result);
  return v.dump(0);
}

std::string render_error(const std::string& id, const std::string& message) {
  JsonValue v = JsonValue::object();
  v.set("ok", false);
  if (!id.empty()) v.set("id", id);
  v.set("error", message);
  return v.dump(0);
}

JsonValue QueryEngine::evaluate(const QueryRequest& request) const {
  switch (request.op) {
    case QueryRequest::Op::kList: return list();
    case QueryRequest::Op::kWindowAggregate:
      return window_aggregate(request);
    case QueryRequest::Op::kRegimes: return regimes(request);
    case QueryRequest::Op::kCompare: return compare(request);
    case QueryRequest::Op::kWhatIf: return whatif(request);
    case QueryRequest::Op::kStats:
    case QueryRequest::Op::kTrace:
      // Admin commands read front/telemetry state the engine cannot see;
      // ServeFront answers them before the engine is ever reached.
      throw InvalidArgument("query: " + QueryRequest::op_name(request.op) +
                            " is a serve-front command, not an engine query");
  }
  throw InvalidArgument("query: unhandled op");
}

std::string QueryEngine::handle_line(const std::string& line) const {
  QueryRequest request;
  try {
    request = QueryRequest::from_json_text(line);
  } catch (const Error& e) {
    return render_error("", e.what());
  }
  try {
    return render_response(request, evaluate(request));
  } catch (const Error& e) {
    return render_error(request.id, e.what());
  }
}

JsonValue QueryEngine::list() const {
  HPCEM_OBS_REQUEST_SPAN("serve.query.list");
  JsonValue scenarios = JsonValue::array();
  for (const std::string& name : stores_.scenario_names()) {
    const StoredScenario& s = stores_.at(name);
    JsonValue o = JsonValue::object();
    o.set("scenario", s.name);
    o.set("source", s.source);
    o.set("machine", s.machine);
    o.set("window_start", s.window_start.sec());
    o.set("window_end", s.window_end.sec());
    o.set("replicates", s.replicates);
    o.set("completed_jobs", s.headline.completed_jobs);
    o.set("window_energy_kwh", s.headline.window_energy_kwh);
    JsonValue channels = JsonValue::array();
    for (const StoredChannel& c : s.channels) {
      JsonValue ch = JsonValue::object();
      ch.set("name", c.name);
      ch.set("unit", c.unit);
      ch.set("samples", c.aggregate.samples);
      ch.set("has_series", c.has_series());
      channels.push_back(std::move(ch));
    }
    o.set("channels", std::move(channels));
    scenarios.push_back(std::move(o));
  }
  JsonValue result = JsonValue::object();
  result.set("scenarios", std::move(scenarios));
  return result;
}

JsonValue QueryEngine::window_aggregate(const QueryRequest& r) const {
  HPCEM_OBS_REQUEST_SPAN("serve.query.window_aggregate");
  const StoredScenario& s = stores_.at(r.scenario);
  const StoredChannel* ch = s.find_channel(r.channel);
  require(ch != nullptr, "query: unknown channel '" + r.channel +
                             "' in scenario '" + r.scenario + "'");
  const ChannelAggregate& a = ch->aggregate;
  const SimTime start = r.start.value_or(s.window_start);
  const SimTime end = r.end.value_or(s.window_end);

  WindowAggregate w;
  if (!r.start && !r.end) {
    // No window: the whole channel, answered exactly from the streaming
    // aggregates — identical for series-bearing and aggregate-only (v1/v2)
    // artifacts.
    w.samples = a.samples;
    w.mean = a.mean;
    w.min = a.min;
    w.max = a.max;
    w.integral = a.integral;
    w.first_time = a.first_time;
    w.last_time = a.last_time;
  } else if (ch->has_series()) {
    w = ArtifactStore::window_aggregate(*ch, start, end);
  } else {
    // Aggregate-only artifacts can still answer an explicit window that
    // covers the whole stream exactly.
    require_state(
        start <= a.first_time && end > a.last_time,
        "query: channel '" + r.channel + "' of scenario '" + r.scenario +
            "' carries no stored series; only whole-window aggregates are "
            "available (re-export with --serve-export)");
    w.samples = a.samples;
    w.mean = a.mean;
    w.min = a.min;
    w.max = a.max;
    w.integral = a.integral;
    w.first_time = a.first_time;
    w.last_time = a.last_time;
  }

  JsonValue result = JsonValue::object();
  result.set("scenario", s.name);
  result.set("channel", ch->name);
  result.set("unit", ch->unit);
  result.set("start", start.sec());
  result.set("end", end.sec());
  result.set("samples", w.samples);
  if (w.samples > 0) {
    result.set("mean", w.mean);
    result.set("min", w.min);
    result.set("max", w.max);
    result.set("integral", w.integral);
    result.set("first_time", w.first_time.sec());
    result.set("last_time", w.last_time.sec());
    // A kW channel's trapezoidal integral is kW s: surface the energy.
    if (ch->unit == "kW") result.set("energy_kwh", w.integral / 3600.0);
  }
  return result;
}

JsonValue QueryEngine::regimes(const QueryRequest& r) const {
  HPCEM_OBS_REQUEST_SPAN("serve.query.regimes");
  const StoredScenario& s = stores_.at(r.scenario);
  HPCEM_ASSERT(r.intensity.has_value(), "regimes: parsed without intensity");
  const IntensitySpec& intensity = *r.intensity;
  const SimTime start = r.start.value_or(s.window_start);
  const SimTime end = r.end.value_or(s.window_end);
  require(end > start, "query: regimes needs a non-empty [start, end)");

  // Segment boundaries: the window ends plus every breakpoint inside it.
  std::vector<double> bounds;
  bounds.reserve(intensity.points.size() + 2);
  bounds.push_back(start.sec());
  for (const auto& [t, g] : intensity.points) {
    if (t > start.sec() && t < end.sec()) bounds.push_back(t);
  }
  bounds.push_back(end.sec());

  // Within a linear segment, split at the §2 thresholds (30 and 100
  // gCO2/kWh) so every sub-interval lies in exactly one regime; classify
  // it at its midpoint.  Exact — no sampling grid.
  double seconds[3] = {0.0, 0.0, 0.0};
  CompensatedSum intensity_integral;  // g/kWh * s, for the mean
  constexpr double kThresholds[2] = {30.0, 100.0};
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const double t0 = bounds[i];
    const double t1 = bounds[i + 1];
    const double v0 = intensity.at(SimTime(t0)).gkwh();
    const double v1 = intensity.at(SimTime(t1)).gkwh();
    intensity_integral.add(0.5 * (v0 + v1) * (t1 - t0));

    // At most both thresholds cut one segment: four cut points.
    double cuts[4] = {t0};
    std::size_t n_cuts = 1;
    for (const double threshold : kThresholds) {
      if ((v0 - threshold) * (v1 - threshold) < 0.0) {
        cuts[n_cuts++] = t0 + (threshold - v0) / (v1 - v0) * (t1 - t0);
      }
    }
    cuts[n_cuts++] = t1;
    // Insertion sort of at most four values: the order std::sort gives.
    for (std::size_t k = 1; k < n_cuts; ++k) {
      for (std::size_t j = k; j > 0 && cuts[j] < cuts[j - 1]; --j) {
        std::swap(cuts[j], cuts[j - 1]);
      }
    }
    for (std::size_t k = 0; k + 1 < n_cuts; ++k) {
      const double mid = 0.5 * (cuts[k] + cuts[k + 1]);
      const double f = t1 > t0 ? (mid - t0) / (t1 - t0) : 0.0;
      const double vmid = v0 + f * (v1 - v0);
      const auto regime =
          classify_regime(CarbonIntensity::g_per_kwh(vmid));
      seconds[static_cast<int>(regime)] += cuts[k + 1] - cuts[k];
    }
  }

  const double total = (end - start).sec();
  const double mean_g = intensity_integral.value() / total;

  // §2 strategy at the period-mean intensity, using the scenario's mean
  // facility draw to balance the scopes.
  const EmbodiedParams embodied = r.embodied.value_or(EmbodiedParams{});
  const EmissionsModel model(embodied,
                             Power::kilowatts(s.headline.mean_kw));
  const CarbonIntensity mean_ci = CarbonIntensity::g_per_kwh(mean_g);

  JsonValue result = JsonValue::object();
  result.set("scenario", s.name);
  result.set("start", start.sec());
  result.set("end", end.sec());
  JsonValue secs = JsonValue::object();
  JsonValue shares = JsonValue::object();
  int dominant = 0;
  for (int k = 0; k < 3; ++k) {
    const char* name = regime_name(static_cast<EmissionsRegime>(k));
    secs.set(name, seconds[k]);
    shares.set(name, seconds[k] / total);
    if (seconds[k] > seconds[dominant]) dominant = k;
  }
  result.set("seconds", std::move(secs));
  result.set("shares", std::move(shares));
  result.set("dominant",
             regime_name(static_cast<EmissionsRegime>(dominant)));
  result.set("mean_intensity_g_per_kwh", mean_g);
  result.set("scope2_share_at_mean", model.scope2_share(mean_ci));
  result.set("strategy", strategy_name(model.recommend(mean_ci)));
  return result;
}

JsonValue QueryEngine::compare(const QueryRequest& r) const {
  HPCEM_OBS_REQUEST_SPAN("serve.query.compare");
  const StoredScenario& a = stores_.at(r.scenario_a);
  const StoredScenario& b = stores_.at(r.scenario_b);
  const auto side = [](const StoredScenario& s) {
    require(s.headline.window_energy_kwh > 0.0,
            "query: scenario '" + s.name +
                "' has no window energy; cannot compute perf per kWh");
    JsonValue o = JsonValue::object();
    o.set("scenario", s.name);
    o.set("completed_jobs", s.headline.completed_jobs);
    o.set("window_energy_kwh", s.headline.window_energy_kwh);
    o.set("jobs_per_kwh",
          s.headline.completed_jobs / s.headline.window_energy_kwh);
    o.set("mean_kw", s.headline.mean_kw);
    o.set("mean_utilisation", s.headline.mean_utilisation);
    return o;
  };
  JsonValue oa = side(a);
  JsonValue ob = side(b);
  const double ja = oa.at("jobs_per_kwh").as_number();
  const double jb = ob.at("jobs_per_kwh").as_number();

  JsonValue result = JsonValue::object();
  result.set("a", std::move(oa));
  result.set("b", std::move(ob));
  result.set("jobs_per_kwh_ratio", ja > 0.0 ? jb / ja : 0.0);
  result.set("more_efficient", jb > ja ? "b" : (ja > jb ? "a" : "tie"));
  return result;
}

JsonValue QueryEngine::whatif(const QueryRequest& r) const {
  HPCEM_OBS_REQUEST_SPAN("serve.query.whatif");
  const StoredScenario& s = stores_.at(r.scenario);
  const StoredChannel* ch = s.find_channel(r.channel);
  require(ch != nullptr, "query: unknown channel '" + r.channel +
                             "' in scenario '" + r.scenario + "'");
  require(ch->unit == "kW",
          "query: whatif re-pricing requires a power channel in kW; '" +
              r.channel + "' is in " +
              (ch->unit.empty() ? "(no unit)" : ch->unit));
  HPCEM_ASSERT(r.intensity.has_value(), "whatif: parsed without intensity");
  const IntensitySpec& intensity = *r.intensity;
  // No explicit window means the whole stored channel — including its last
  // sample, which an end-exclusive window at window_end would drop.
  const bool whole_channel = !r.start && !r.end;
  const SimTime start = r.start.value_or(s.window_start);
  const SimTime end = r.end.value_or(s.window_end);

  // Re-price the stored energy: integrate each retained sample interval
  // and charge it at the intensity interpolated at the interval midpoint.
  double energy_kwh = 0.0;
  double scope2_g = 0.0;
  SimTime covered_start = start;
  SimTime covered_end = end;
  if (ch->has_series()) {
    const auto lo = whole_channel
                        ? ch->times.begin()
                        : std::lower_bound(ch->times.begin(),
                                           ch->times.end(), start.sec());
    const auto hi = whole_channel
                        ? ch->times.end()
                        : std::lower_bound(lo, ch->times.end(), end.sec());
    const auto first = static_cast<std::size_t>(lo - ch->times.begin());
    const auto last = static_cast<std::size_t>(hi - ch->times.begin());
    require(last > first + 1,
            "query: whatif window holds fewer than two samples of '" +
                r.channel + "'");
    CompensatedSum e_kwh;
    CompensatedSum co2_g;
    for (std::size_t i = first; i + 1 < last; ++i) {
      const double dt = ch->times[i + 1] - ch->times[i];
      const double interval_kwh =
          0.5 * (ch->values[i] + ch->values[i + 1]) * dt / 3600.0;
      const double mid = 0.5 * (ch->times[i] + ch->times[i + 1]);
      e_kwh.add(interval_kwh);
      co2_g.add(interval_kwh * intensity.at(SimTime(mid)).gkwh());
    }
    energy_kwh = e_kwh.value();
    scope2_g = co2_g.value();
    covered_start = SimTime(ch->times[first]);
    covered_end = SimTime(ch->times[last - 1]);
  } else {
    // Aggregate-only artifacts: the whole-run energy can still be
    // re-priced against a *constant* intensity exactly.
    const ChannelAggregate& a = ch->aggregate;
    require_state(
        intensity.is_constant() &&
            (whole_channel ||
             (start <= a.first_time && end > a.last_time)),
        "query: whatif with a time-varying intensity or sub-window needs a "
        "stored series for '" + r.channel + "' (re-export with "
        "--serve-export)");
    energy_kwh = a.integral / 3600.0;
    scope2_g = energy_kwh * intensity.at(a.first_time).gkwh();
    covered_start = a.first_time;
    covered_end = a.last_time;
  }

  // Scope-3: amortise the embodied total over the covered span — the same
  // span the energy integral describes, so the scope balance compares
  // like with like.
  const EmbodiedParams embodied = r.embodied.value_or(EmbodiedParams{});
  const double span_s = (covered_end - covered_start).sec();
  require(span_s > 0.0, "query: whatif window covers no time span");
  const double scope3_t =
      embodied.annual().t() * (span_s / kSecondsPerYear);
  const double scope2_t = CarbonMass::grams(scope2_g).t();
  const double share = scope2_t + scope3_t > 0.0
                           ? scope2_t / (scope2_t + scope3_t)
                           : 0.0;
  const double mean_g = energy_kwh > 0.0 ? scope2_g / energy_kwh : 0.0;

  JsonValue result = JsonValue::object();
  result.set("scenario", s.name);
  result.set("channel", ch->name);
  result.set("start", covered_start.sec());
  result.set("end", covered_end.sec());
  result.set("energy_kwh", energy_kwh);
  result.set("mean_intensity_g_per_kwh", mean_g);
  result.set("scope2_tonnes", scope2_t);
  result.set("scope3_tonnes", scope3_t);
  result.set("total_tonnes", scope2_t + scope3_t);
  result.set("scope2_share", share);
  result.set("regime",
             regime_name(classify_regime(CarbonIntensity::g_per_kwh(mean_g))));
  result.set("strategy", strategy_name(strategy_from_share(share)));
  return result;
}

}  // namespace hpcem::serve
