#include "checks.hpp"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "colstore/hcaf.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxMessages = 8;

/// The paper's campaign means and the seed-robustness band around them.
struct Band {
  const char* scenario;
  double before_kw;  ///< whole-window mean when the scenario has no change
  double after_kw;
};
constexpr Band kBands[] = {
    {"figure1-baseline", 3220.0, 0.0},
    {"figure2-bios-change", 3220.0, 3010.0},
    {"figure3-frequency-change", 3010.0, 2530.0},
};
constexpr double kBandShare = 0.04;

bool in_band(double value, double target) {
  return std::abs(value - target) <= kBandShare * target;
}

/// Neumaier-compensated sum.
struct Sum {
  double sum = 0.0;
  double comp = 0.0;
  void add(double x) {
    const double t = sum + x;
    comp += std::abs(sum) >= std::abs(x) ? (sum - t) + x : (x - t) + sum;
    sum = t;
  }
  [[nodiscard]] double value() const { return sum + comp; }
};

double intensity_at(const Query& q, double t) {
  if (q.constant_curve) return q.constant;
  const auto& p = q.points;
  if (t <= p.front().first) return p.front().second;
  if (t >= p.back().first) return p.back().second;
  const auto hi = std::lower_bound(
      p.begin(), p.end(), t,
      [](const std::pair<double, double>& a, double v) { return a.first < v; });
  const auto lo = hi - 1;
  const double f = (t - lo->first) / (hi->first - lo->first);
  return lo->second + f * (hi->second - lo->second);
}

/// Number after `"key":` in a compact response, NaN when absent.
double member(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(response.c_str() + at + needle.size(), nullptr);
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({std::abs(a), std::abs(b), 1e-300});
}

}  // namespace

void Failures::add(std::string message) {
  ++count;
  if (messages.size() < kMaxMessages) messages.push_back(std::move(message));
}

std::size_t check_bands(const BuiltStore& built, Failures& failures) {
  for (const Band& b : kBands) {
    const Headline* h = nullptr;
    for (const Headline& x : built.headlines) {
      if (x.scenario == b.scenario) h = &x;
    }
    if (h == nullptr) {
      failures.add(std::string("band: no window means for ") + b.scenario);
      continue;
    }
    const bool ok = h->has_change ? in_band(h->mean_before_kw, b.before_kw) &&
                                        in_band(h->mean_after_kw, b.after_kw)
                                  : in_band(h->mean_kw, b.before_kw);
    if (!ok) {
      failures.add("band: " + h->scenario + " window means " +
                   std::to_string(h->mean_before_kw) + " -> " +
                   std::to_string(h->mean_after_kw) +
                   " kW outside +-4% of the paper");
    }
  }
  return std::size(kBands);
}

std::size_t check_round_trip(const BuiltStore& built, Failures& failures) {
  std::size_t seen = 0;
  for (const std::string& path : built.shard_paths) {
    for (const hpcem::RunArtifact& a :
         hpcem::colstore::read_artifacts_file(path)) {
      ++seen;
      bool matched = false;
      for (std::size_t i = 0; i < built.artifacts.size(); ++i) {
        if (built.artifacts[i].scenario == a.scenario) {
          matched = a.to_json_text() == built.json_texts[i];
        }
      }
      if (!matched) {
        failures.add("round trip: " + a.scenario + " from " + path +
                     " does not re-serialise to its JSON artifact");
      }
    }
  }
  if (seen != built.artifacts.size()) {
    failures.add("round trip: shards hold " + std::to_string(seen) + " of " +
                 std::to_string(built.artifacts.size()) + " scenarios");
  }
  // One check per artifact read back, plus the coverage check.
  return seen + 1;
}

Reference::Reference(const BuiltStore& built, const std::string& work_dir)
    : built_(built) {
  std::filesystem::create_directories(work_dir);
  for (std::size_t i = 0; i < built.artifacts.size(); ++i) {
    const std::string path =
        work_dir + "/" + built.artifacts[i].scenario + ".artifact.json";
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << built.json_texts[i];
    store_.load_file(path);
  }
  engine_ = std::make_unique<hpcem::serve::QueryEngine>(store_);
}

std::vector<char> Reference::check(const Generator& generator,
                                   const std::vector<Request>& requests,
                                   const std::vector<std::string>& responses,
                                   bool memoize, Failures& failures) {
  std::vector<char> bad(responses.size(), 0);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Request& r = requests[i];
    const std::string& got = responses[i];
    const Query& q = generator.queries()[r.query];
    auto reference = [&] {
      return engine_->handle_line(render(q, generator.shape(), Spelling{}));
    };
    std::string expected;
    if (memoize) {
      auto it = memo_.find(r.query);
      if (it == memo_.end()) it = memo_.emplace(r.query, reference()).first;
      expected = it->second;
    } else {
      expected = reference();
    }
    if (got.rfind("{\"ok\":true", 0) != 0 || got != expected) {
      failures.add("response " + std::to_string(i) + " differs from the "
                   "reference: " + got.substr(0, 160));
      bad[i] = 1;
      continue;
    }
    if (q.op != Op::kWhatIf) continue;

    // Linear recomputation from the artifact series.
    const std::string& scenario = generator.shape()[q.scenario].name;
    const hpcem::ChannelAggregate* ch = nullptr;
    for (const hpcem::RunArtifact& a : built_.artifacts) {
      if (a.scenario != scenario) continue;
      for (const hpcem::ChannelAggregate& c : a.channels) {
        if (c.name == q.channel) ch = &c;
      }
    }
    if (ch == nullptr) {
      failures.add("whatif: no series for " + scenario + "/" + q.channel);
      bad[i] = 1;
      continue;
    }
    const auto& s = ch->series;
    std::size_t lo = 0;
    std::size_t hi = s.size();
    if (q.windowed) {
      auto before_t = [](const hpcem::Sample& x, double t) {
        return x.time.sec() < t;
      };
      lo = static_cast<std::size_t>(
          std::lower_bound(s.begin(), s.end(), q.start, before_t) - s.begin());
      hi = static_cast<std::size_t>(
          std::lower_bound(s.begin(), s.end(), q.end, before_t) - s.begin());
    }
    Sum kwh;
    Sum grams;
    for (std::size_t k = lo; k + 1 < hi; ++k) {
      const double t0 = s[k].time.sec();
      const double t1 = s[k + 1].time.sec();
      const double e = 0.5 * (s[k].value + s[k + 1].value) * (t1 - t0) / 3600.0;
      kwh.add(e);
      grams.add(e * intensity_at(q, 0.5 * (t0 + t1)));
    }
    const double got_kwh = member(got, "energy_kwh");
    const double got_grams = member(got, "scope2_tonnes") * 1e6;
    if (!close(got_kwh, kwh.value()) || !close(got_grams, grams.value())) {
      failures.add("whatif " + std::to_string(i) + ": energy " +
                   std::to_string(got_kwh) + " kWh / scope-2 " +
                   std::to_string(got_grams) + " g vs recomputed " +
                   std::to_string(kwh.value()) + " / " +
                   std::to_string(grams.value()));
      bad[i] = 1;
    }
  }
  return bad;
}

}  // namespace perfbench
