// hpcem_perfbench: the repository benchmark (see perfbench/README.md).
//
//   hpcem_perfbench --workload <paper-pipeline|query-cold|query-hot>
//                   --seed <n> --seconds <s> --trace <0|1> [--root <dir>]
//
// --trace 0 measures the end-to-end metrics with obs collection off;
// --trace 1 measures the per-layer metrics with obs collection on and writes
// a Chrome trace (hpcem_prof reads it) under <root>/.bench_build/traces/.
// The last stdout line is the JSON result; the exit code is non-zero when
// any correctness check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "layers.hpp"
#include "report.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

/// Set-up passes per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 5;

/// Open-loop requests per window of query_p90_us and slo_met_ratio (at
/// least one window per traffic run): fifty beyond each window's p90, and
/// three windows in a query-cold run, so a burst of host stalls in one of
/// them does not move the median.
constexpr std::size_t kTailWindow = 500;

const char* const kSpecs[] = {"scenarios/figure1.json",
                              "scenarios/figure2.json",
                              "scenarios/figure3.json"};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The query metrics of a run, gathered over the timed rounds of one or
/// more traffic runs, with every time scaled by its round's time_scale
/// (see host_speed.hpp): latencies multiplied, rates divided.
/// query_p90_us and slo_met_ratio are the medians of per-window figures, each window about kTailWindow requests in
/// send order, and capacity_qps the median of per-round closed-loop rates:
/// a burst of host stalls inflates some windows or rounds, not the metric,
/// while a slowdown of the program shows in every one.
struct QueryTotals {
  std::vector<double> latency_us;  ///< every timed open-loop request
  std::vector<double> raw_latency_us;  ///< the same, as measured
  std::vector<char> correct;       ///< per latency_us entry
  std::vector<double> window_p90;
  std::vector<double> window_met;  ///< share within the latency limit
  std::vector<double> round_qps;
  std::vector<double> raw_round_qps;
  std::vector<double> round_scale;
  std::size_t closed_ok = 0;

  /// Add the timed rounds of one traffic run.
  void add(const ServeRun& t, double limit_us) {
    const std::size_t first = latency_us.size();
    std::size_t open_begin = t.timed_open_begin();
    std::size_t closed_begin = t.timed_closed_begin();
    for (std::size_t r = t.warmup_rounds; r < t.rounds.size(); ++r) {
      const ServeRun::Round& round = t.rounds[r];
      for (std::size_t i = open_begin; i < round.open_end; ++i) {
        latency_us.push_back(t.open.latency_us[i] * round.time_scale);
        raw_latency_us.push_back(t.open.latency_us[i]);
        correct.push_back(t.open_bad[i] == 0 ? 1 : 0);
      }
      std::size_t ok = 0;
      for (std::size_t i = closed_begin; i < round.closed_end; ++i) {
        if (t.closed_bad[i] == 0) ++ok;
      }
      const double qps = static_cast<double>(ok) / round.closed_s;
      raw_round_qps.push_back(qps);
      round_qps.push_back(qps / round.time_scale);
      round_scale.push_back(round.time_scale);
      closed_ok += ok;
      open_begin = round.open_end;
      closed_begin = round.closed_end;
    }
    const auto lat = latency_us.begin() + static_cast<std::ptrdiff_t>(first);
    const std::size_t n = latency_us.size() - first;
    const std::size_t windows = std::max<std::size_t>(1, n / kTailWindow);
    for (std::size_t w = 0; w < windows; ++w) {
      const std::vector<double> window(
          lat + static_cast<std::ptrdiff_t>(w * n / windows),
          lat + static_cast<std::ptrdiff_t>((w + 1) * n / windows));
      window_p90.push_back(quantile(window, 0.90));
      const std::size_t begin = first + w * n / windows;
      window_met.push_back(static_cast<double>(met(limit_us, begin,
                                                   begin + window.size())) /
                           static_cast<double>(window.size()));
    }
  }

  /// Open-loop requests in [begin, end) that were correct and within
  /// `limit_us`.
  [[nodiscard]] std::size_t met(double limit_us, std::size_t begin,
                                std::size_t end) const {
    std::size_t n = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (correct[i] != 0 && latency_us[i] <= limit_us) ++n;
    }
    return n;
  }
};

void print_list(const char* title, const std::vector<double>& values,
                const char* format) {
  std::printf("  %s:", title);
  for (const double v : values) std::printf(format, v);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.
// ---------------------------------------------------------------------------

void end_to_end(Run& run, Report& report) {
  std::vector<double> setup_s;
  std::vector<double> pipeline_s;
  std::vector<double> sim_rate;
  QueryTotals q;
  HostSpeed speed;
  const Mix& mix = run.paper() ? run.paper_mix : *run.traffic_mix;
  // Pipeline passes: the set-up passes, then on paper-pipeline more passes
  // for --seconds.  On paper-pipeline each pass ends with a query pass of
  // the paper mix; those query passes are its traffic, so its query metrics
  // sample the whole run.  The query workloads' set-up passes end at the
  // loaded store.
  std::unique_ptr<BuiltStore> built;
  std::unique_ptr<ServeRun> pass;
  double timed_s = 0.0;
  while (setup_s.size() < kSetupRepeats ||
         (run.paper() && timed_s < run.opt.seconds)) {
    const bool setup = setup_s.size() < kSetupRepeats;
    built.reset();
    built = build(run, false);
    if (setup) setup_s.push_back(built->times.total);
    sim_rate.push_back(built->simulated_days / built->times.sim_run);
    if (!run.paper()) {
      check_pass(run, *built, nullptr);
      continue;
    }
    pass = paper_pass(run, *built, &speed);
    pipeline_s.push_back(built->times.total + pass->front_s);
    if (!setup) timed_s += pipeline_s.back();
    check_pass(run, *built, pass.get());
    q.add(*pass, mix.latency_limit_us);
  }
  if (!run.paper()) {
    // The query mix for --seconds over the last pass's store.
    pass = traffic_pass(run, *built, &speed);
    check_pass(run, *built, pass.get());
    q.add(*pass, mix.latency_limit_us);
  }
  print_digests(*pass);

  // setup_s is wall time as measured; the query metrics are scaled to the
  // nominal host speed round by round (QueryTotals).
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  // Shown but not bounded: these follow the shared host's speed, which
  // moved the simulator by up to a third between minutes-long periods, so
  // their ten-run spread exceeds any allowed bound.  The simulator stays
  // bounded through setup_s.
  if (run.paper()) {
    Report::print("pipeline_s", median(pipeline_s), "s", pipeline_s.size());
  }
  Report::print("sim_days_per_s", median(sim_rate), "1/s", sim_rate.size());
  const std::size_t sent = q.latency_us.size();
  report.add("query_p50_us", quantile(q.latency_us, 0.5), "us", sent);
  report.add("query_p90_us", median(q.window_p90), "us", sent);
  // Shown but not gated: the host stalls the vCPU for several milliseconds
  // often enough to hold 0.5-3% of a second's open-loop requests, so the
  // p99 of traffic whose own tail is shorter than that measures the host.
  Report::print("query_p99_us", quantile(q.latency_us, 0.99), "us", sent);
  report.add("slo_met_ratio", median(q.window_met), "ratio", sent);
  report.add("capacity_qps", median(q.round_qps), "1/s", q.closed_ok);
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("  host speed: round time scales median %.4f (min %.4f, max "
              "%.4f); reference kernel median %.1f us over %zu samples, "
              "nominal %.1f us\n",
              median(q.round_scale), quantile(q.round_scale, 0.0),
              quantile(q.round_scale, 1.0), median(speed.samples()) * 1e6,
              speed.samples().size(), HostSpeed::kNominalSeconds * 1e6);
  std::printf("  as measured: query p50 %.2f us, p99 %.1f us, "
              "capacity %.0f /s; start lag p50 %.2f us, p99 %.2f us\n",
              quantile(q.raw_latency_us, 0.5),
              quantile(q.raw_latency_us, 0.99), median(q.raw_round_qps),
              quantile(pass->open.lag_us, 0.5),
              quantile(pass->open.lag_us, 0.99));
  std::printf("  latency limit %.0f us, met by %.4f of the run; %zu tail "
              "windows; %zu closed-loop rounds\n",
              mix.latency_limit_us,
              static_cast<double>(
                  q.met(mix.latency_limit_us, 0, q.latency_us.size())) /
                  static_cast<double>(sent),
              q.window_p90.size(), q.round_qps.size());
  print_list("p90 windows (us)", q.window_p90, " %.0f");
  print_list("closed-loop rounds (1/s)", q.round_qps, " %.0f");
  print_list("set-up passes (s)", setup_s, " %.3f");
  if (run.paper()) print_list("pipeline passes (s)", pipeline_s, " %.3f");
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--root") {
      opt.root = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int run_main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: hpcem_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--root <dir>]\n");
    return 2;
  }
  if (opt.workload != "paper-pipeline" && opt.workload != "query-cold" &&
      opt.workload != "query-hot") {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  Run run;
  run.opt = opt;
  for (const char* spec : kSpecs) run.specs.push_back(opt.root + "/" + spec);
  run.work = opt.root + "/.bench_build/work/" + opt.workload;
  const std::string mixes = opt.root + "/perfbench/mixes/";
  run.paper_mix = load_mix(mixes + "paper-pipeline.json");
  if (opt.workload != "paper-pipeline") {
    run.traffic_mix = load_mix(mixes + opt.workload + ".json");
  }

  std::printf("hpcem_perfbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  Report report;
  if (opt.trace) {
    per_layer(run, report);
  } else {
    end_to_end(run, report);
  }
  const std::size_t failed = run.failures.count;
  std::printf("  failed_ratio %.6g (%zu of %zu operations)\n",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::size_t>(run.attempted, 1)),
              failed, run.attempted);
  for (const std::string& m : run.failures.messages) {
    std::fprintf(stderr, "check failed: %s\n", m.c_str());
  }
  const bool correct = run.failures.count == 0;
  std::printf("%s\n", report.json(correct, std::max<std::size_t>(
                                               run.attempted, 1),
                                  failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
