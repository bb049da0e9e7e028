#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "serve/query.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

/// Request lines pushed through the decomposed serve pass at most.
constexpr std::size_t kDecomposedMax = 4000;

struct SpanTotal {
  double ms = 0.0;
  std::size_t count = 0;
};

std::map<std::string, SpanTotal> span_totals(
    const hpcem::obs::TraceSnapshot& snap) {
  std::map<std::string, SpanTotal> out;
  for (const auto& thread : snap.threads) {
    for (const auto& span : thread.spans) {
      SpanTotal& t = out[hpcem::obs::name_of(span.name)];
      t.ms += static_cast<double>(span.end - span.begin) / 1e6;
      ++t.count;
    }
  }
  return out;
}

/// Parse -> key -> evaluate -> render, each timed on its own, over the
/// same lines the front served.
struct Decomposed {
  std::size_t requests = 0;  ///< lines pushed through, each one checked
  std::vector<double> parse_us[kOpCount];
  std::vector<double> key_us[kOpCount];
  std::vector<double> eval_us[kOpCount];
  std::vector<double> render_us[kOpCount];

  /// One stage over every op.
  static std::vector<double> all(const std::vector<double> (&stage)[kOpCount]) {
    std::vector<double> out;
    for (const auto& v : stage) out.insert(out.end(), v.begin(), v.end());
    return out;
  }
};

Decomposed decompose(const BuiltStore& built,
                     const std::vector<Request>& requests,
                     const Generator& generator, Failures& failures) {
  Decomposed d;
  const hpcem::serve::QueryEngine engine(built.store);
  const std::size_t n = std::min(requests.size(), kDecomposedMax);
  d.requests = n;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      const std::int64_t t0 = now_ns();
      hpcem::serve::QueryRequest req = [&] {
        HPCEM_OBS_SPAN("bench.serve.parse");
        return hpcem::serve::QueryRequest::from_json_text(*requests[i].line);
      }();
      const std::int64_t t1 = now_ns();
      const std::string key = [&] {
        HPCEM_OBS_SPAN("bench.serve.key");
        return req.canonical_key();
      }();
      const std::int64_t t2 = now_ns();
      const hpcem::JsonValue result = [&] {
        HPCEM_OBS_SPAN("bench.serve.evaluate");
        return engine.evaluate(req);
      }();
      const std::int64_t t3 = now_ns();
      const std::string response = [&] {
        HPCEM_OBS_SPAN("bench.serve.render");
        return hpcem::serve::render_response(req, result);
      }();
      const std::int64_t t4 = now_ns();
      const auto op = static_cast<std::size_t>(
          generator.queries()[requests[i].query].op);
      d.parse_us[op].push_back(static_cast<double>(t1 - t0) / 1e3);
      d.key_us[op].push_back(static_cast<double>(t2 - t1) / 1e3);
      d.eval_us[op].push_back(static_cast<double>(t3 - t2) / 1e3);
      d.render_us[op].push_back(static_cast<double>(t4 - t3) / 1e3);
      if (key.empty() || response.empty()) {
        failures.add("decomposed pass: empty key or response");
      }
    } catch (const std::exception& e) {
      failures.add(std::string("decomposed pass: ") + e.what());
    }
  }
  return d;
}

/// Parse/key/evaluate/render percentiles per op, as a table.
void print_split(const Decomposed& d) {
  std::printf("  decomposed serve pass, us (p50 / p99):\n");
  std::printf("    %-17s %6s %17s %17s %17s %17s\n", "op", "n", "parse", "key",
              "evaluate", "render");
  for (std::size_t op = 0; op < kOpCount; ++op) {
    auto cell = [](const std::vector<double>& v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%7.1f / %7.1f", quantile(v, 0.5),
                    quantile(v, 0.99));
      return std::string(buf);
    };
    std::printf("    %-17s %6zu %17s %17s %17s %17s\n",
                op_name(static_cast<Op>(op)), d.eval_us[op].size(),
                cell(d.parse_us[op]).c_str(), cell(d.key_us[op]).c_str(),
                cell(d.eval_us[op]).c_str(), cell(d.render_us[op]).c_str());
  }
}

/// One per-layer value as measured in one traced pass.
struct Value {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Every per-layer metric of one traced pass.
std::vector<Value> harvest(const BuiltStore& built, const ServeRun& traffic,
                           const Decomposed& d,
                           const hpcem::obs::TraceSnapshot& trace,
                           const hpcem::obs::MetricsSnapshot& metrics,
                           double overhead) {
  std::vector<Value> out;
  auto add = [&](std::string name, double value, std::string unit,
                 std::size_t samples = 0) {
    out.push_back({std::move(name), value, std::move(unit), samples});
  };
  const auto spans = span_totals(trace);
  auto span_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.ms;
  };
  auto counter = [&](const char* name) {
    for (const auto& c : metrics.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return 0.0;
  };
  auto histogram = [&](const std::string& name) {
    for (const auto& h : metrics.histograms) {
      if (h.name == name) return h;
    }
    return hpcem::obs::MetricsSnapshot::HistogramValue{};
  };

  // core
  const PassTimes& t = built.times;
  add("core.spec.parse_ms", t.spec_parse * 1e3, "ms");
  add("core.analyze.ms", t.analyze * 1e3, "ms");
  add("core.artifact.build_ms", t.artifact_build * 1e3, "ms");
  add("core.artifact.json_ms", t.artifact_json * 1e3, "ms");
  add("core.artifact.json_bytes",
             static_cast<double>(built.json_bytes), "bytes");

  // sim, folded from the library's own spans and counters
  const auto pass_hist = histogram("sim.sched.pass_ns");
  const double run_ms = span_ms("sim.run");
  const double generate_ms = span_ms("sim.workload.generate");
  const double power_ms = span_ms("sim.sample.power");
  const double telemetry_ms = span_ms("sim.sample.telemetry");
  const double pass_ms = static_cast<double>(pass_hist.sum) / 1e6;
  const double started = counter("sim.jobs.started");
  const double unattributed =
      run_ms - generate_ms - power_ms - telemetry_ms - pass_ms;
  add("sim.run_ms", t.sim_run * 1e3, "ms");
  // The scheduler passes run inside sim.step (from dispatch), so the
  // step's own time excludes them as well as its named child spans.
  add("sim.step.self_ms",
      span_ms("sim.step") - generate_ms - power_ms - telemetry_ms - pass_ms,
      "ms");
  add("sim.workload.generate_ms", generate_ms, "ms",
             spans.count("sim.workload.generate") != 0
                 ? spans.at("sim.workload.generate").count
                 : 0);
  add("sim.sample.power_ms", power_ms, "ms");
  add("sim.sample.telemetry_ms", telemetry_ms, "ms");
  add("sim.sched.passes", static_cast<double>(pass_hist.count),
             "count");
  add("sim.sched.pass_ms", pass_ms, "ms");
  add("sim.jobs.started", started, "count");
  add("sim.samples", counter("sim.samples"), "count");
  add("sim.sched.passes_per_start",
             started > 0.0 ? static_cast<double>(pass_hist.count) / started
                           : 0.0,
             "ratio");
  add("sim.unattributed_ms", unattributed, "ms");
  add("sim.unattributed_share", run_ms > 0.0 ? unattributed / run_ms
                                                    : 0.0,
             "ratio");

  // colstore
  std::size_t max_shard = 0;
  for (const std::size_t n : built.shard_scenarios) {
    max_shard = std::max(max_shard, n);
  }
  add("colstore.write_ms", t.colstore_write * 1e3, "ms");
  add("colstore.bytes", static_cast<double>(built.shard_bytes),
             "bytes");
  add("colstore.read_ms", t.colstore_read * 1e3, "ms");
  add("colstore.shard.max_share",
             static_cast<double>(max_shard) /
                 static_cast<double>(built.artifacts.size()),
             "ratio");

  // serve: the decomposed pass
  add("serve.load_ms", t.serve_load * 1e3, "ms");
  const auto parse = Decomposed::all(d.parse_us);
  const auto key = Decomposed::all(d.key_us);
  const auto render = Decomposed::all(d.render_us);
  add("serve.parse_us.p50", quantile(parse, 0.5), "us", parse.size());
  add("serve.parse_us.p99", quantile(parse, 0.99), "us", parse.size());
  add("serve.key_us.p50", quantile(key, 0.5), "us", key.size());
  add("serve.key_us.p99", quantile(key, 0.99), "us", key.size());
  add("serve.render_us.p50", quantile(render, 0.5), "us", render.size());
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const std::string base =
        std::string("serve.eval_us.") + op_name(static_cast<Op>(op));
    add(base + ".p50", quantile(d.eval_us[op], 0.5), "us",
               d.eval_us[op].size());
    add(base + ".p99", quantile(d.eval_us[op], 0.99), "us",
               d.eval_us[op].size());
  }

  // serve: the front's own histograms and statistics
  const auto request_hist = histogram("serve.request.ns");
  double query_ns = 0.0;
  for (std::size_t op = 0; op < kOpCount; ++op) {
    const std::string name =
        std::string("serve.query.") + op_name(static_cast<Op>(op)) + ".ns";
    const auto h = histogram(name);
    query_ns += static_cast<double>(h.sum);
    add(std::string("serve.query.") + op_name(static_cast<Op>(op)) +
                   ".mean_us",
               h.count > 0 ? static_cast<double>(h.sum) /
                                 static_cast<double>(h.count) / 1e3
                           : 0.0,
               "us", h.count);
  }
  const double requests = static_cast<double>(request_hist.count);
  add("serve.request.mean_us",
             requests > 0 ? static_cast<double>(request_hist.sum) / requests /
                                1e3
                          : 0.0,
             "us", request_hist.count);
  add("serve.front.overhead_us",
             requests > 0 ? (static_cast<double>(request_hist.sum) -
                             query_ns) /
                                requests / 1e3
                          : 0.0,
             "us", request_hist.count);
  const auto& fs = traffic.stats;
  const double lookups = static_cast<double>(fs.cache.hits + fs.cache.misses);
  add("serve.cache.hit_ratio",
             lookups > 0 ? static_cast<double>(fs.cache.hits) / lookups : 0.0,
             "ratio");
  add("serve.evaluations_per_request",
             static_cast<double>(fs.evaluations) /
                 static_cast<double>(fs.requests),
             "ratio", fs.requests);
  add("serve.coalesced", static_cast<double>(fs.coalesced), "count");

  // benchmark and obs
  const std::size_t sent = traffic.warm.responses.size() +
                           traffic.open.responses.size() +
                           traffic.closed.responses.size();
  const std::size_t failed =
      count_bad(traffic.open_bad) + count_bad(traffic.closed_bad);
  // The client is the front's only worker, so a request that starts late
  // waited in the queue; the peak backlog is that queue's peak depth.
  double max_lag_us = 0.0;
  for (const double lag : traffic.open.lag_us) {
    max_lag_us = std::max(max_lag_us, lag);
  }
  add("bench.generator.lag_p99_us",
             quantile(traffic.open.lag_us, 0.99), "us",
             traffic.open.lag_us.size());
  add("bench.backlog.peak",
             std::floor(max_lag_us * 1e-6 *
                        traffic.generator->mix().rate_per_s),
             "count");
  add("bench.requests.sent", static_cast<double>(sent), "count");
  add("bench.requests.ok", static_cast<double>(sent - failed),
             "count");
  add("bench.requests.failed", static_cast<double>(failed), "count");
  add("obs.overhead_ratio", overhead, "ratio");
  return out;
}

}  // namespace

void per_layer(Run& run, Report& report) {
  namespace obs = hpcem::obs;

  // The untraced unit obs.overhead_ratio is taken against: a whole pass on
  // paper-pipeline, the closed-loop time per request on query workloads.
  obs::set_enabled(false);
  std::unique_ptr<BuiltStore> built = build(run, false);
  std::unique_ptr<ServeRun> plain =
      run.paper() ? paper_pass(run, *built) : traffic_pass(run, *built);
  auto per_request = [](const ServeRun& t) {
    return t.closed.elapsed_s /
           static_cast<double>(std::max<std::size_t>(t.closed.responses.size(),
                                                     1));
  };
  const double untraced_unit = run.paper()
                                   ? built->times.total + plain->front_s
                                   : per_request(*plain);
  check_pass(run, *built, plain.get());
  plain.reset();

  // Traced passes: paper-pipeline repeats them for --seconds and reports
  // each metric's median; the query workloads run their traffic once.
  std::vector<std::vector<Value>> passes;
  std::unique_ptr<ServeRun> traffic;
  Decomposed d;
  obs::TraceSnapshot trace;
  obs::MetricsSnapshot metrics;
  const Stopwatch phase;
  do {
    obs::reset_collected();
    obs::set_enabled(true);
    built.reset();
    built = build(run, true);
    traffic = run.paper() ? paper_pass(run, *built) : traffic_pass(run, *built);
    // The decomposed serve pass pushes the lines the front just served.
    std::vector<Request> lines = traffic->open_requests;
    lines.insert(lines.end(), traffic->closed_requests.begin(),
                 traffic->closed_requests.end());
    d = decompose(*built, lines, *traffic->generator, run.failures);
    run.attempted += d.requests;
    obs::set_enabled(false);
    trace = obs::trace_snapshot();
    metrics = obs::metrics_snapshot();
    check_pass(run, *built, traffic.get());
    const double overhead =
        run.paper() ? (built->times.total + traffic->front_s) / untraced_unit
                    : per_request(*traffic) / untraced_unit;
    passes.push_back(harvest(*built, *traffic, d, trace, metrics, overhead));
  } while (run.paper() && phase.seconds() < run.opt.seconds);

  // The Chrome trace holds the last traced pass.
  const std::string trace_dir = run.opt.root + "/.bench_build/traces";
  std::filesystem::create_directories(trace_dir);
  const std::string trace_path = trace_dir + "/" + run.opt.workload +
                                 "-seed" + std::to_string(run.opt.seed) +
                                 ".trace.json";
  obs::write_trace_file(trace, trace_path, &metrics);
  std::printf("  trace written: %s (last of %zu traced pass(es))\n",
              trace_path.c_str(), passes.size());
  print_digests(*traffic);
  print_split(d);

  for (std::size_t i = 0; i < passes.back().size(); ++i) {
    std::vector<double> values;
    for (const auto& pass : passes) values.push_back(pass[i].value);
    const Value& last = passes.back()[i];
    report.add(last.name, median(values), last.unit, last.samples);
  }
}

}  // namespace perfbench
