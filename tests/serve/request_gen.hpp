// Seeded generator of valid query request lines, shared by the canonical
// key property test (test_query_engine.cpp) and the request-stream fuzzer
// (test_request_fuzz.cpp).
//
// Lines vary everything the canonical key must normalise away: member
// order, number spellings, \u-escaped and "\/" string spellings, ISO or
// epoch times, wire-level or spec-phrased curves.  Names may carry quotes,
// backslashes, control characters and UTF-8.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace hpcem::serve::request_gen {

/// What the generated requests may name.  Empty name lists draw random
/// (possibly hostile) strings instead.
struct RequestVocabulary {
  std::vector<std::string> scenarios;
  std::vector<std::string> channels;
  double t0 = 1638316800.0;  ///< 2021-12-01: curves and windows start here
  double span_s = 400.0 * 86400.0;
  std::size_t max_points = 600;  ///< longest curve (half-hourly at most)
};

class RequestGenerator {
 public:
  RequestGenerator(RequestVocabulary vocabulary, std::uint64_t seed)
      : vocab_(std::move(vocabulary)), rng_(seed) {}

  Rng& rng() { return rng_; }

  /// One valid request line of a random op.
  std::string line() {
    static constexpr const char* kOps[] = {"list",    "window_aggregate",
                                           "regimes", "compare",
                                           "whatif",  "stats",
                                           "trace"};
    return line(kOps[pick(7)]);
  }

  /// One valid request line of `op`.
  std::string line(const std::string& op) {
    std::vector<std::pair<std::string, std::string>> members;
    members.reserve(9);
    members.emplace_back("op", quote(op));
    if (rng_.bernoulli(0.5)) members.emplace_back("id", quote(text()));
    if (op == "window_aggregate" || op == "regimes" || op == "whatif") {
      members.emplace_back("scenario", quote(name(vocab_.scenarios)));
    }
    if (op == "window_aggregate" || op == "whatif") {
      members.emplace_back("channel", quote(name(vocab_.channels)));
    }
    if (op == "compare") {
      members.emplace_back("a", quote(name(vocab_.scenarios)));
      members.emplace_back("b", quote(name(vocab_.scenarios)));
    }
    if (op == "trace") {
      static constexpr const char* kIds[] = {"1", "7", "1e3",
                                             "9007199254740993",
                                             "18446744073709549568"};
      members.emplace_back("request", kIds[pick(5)]);
    }
    if (op == "window_aggregate" || op == "regimes" || op == "whatif") {
      window(members);
    }
    if (op == "regimes" || op == "whatif") curve(members);
    // Member order is free on the wire; the key fixes it.
    for (std::size_t i = members.size(); i > 1; --i) {
      std::swap(members[i - 1], members[pick(i)]);
    }
    std::string out = "{";
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += ',';
      out += quote(members[i].first) + ":" + members[i].second;
    }
    return out + "}";
  }

  /// A JSON spelling of `x` that parses back to exactly `x`.
  std::string number(double x) {
    char buf[40];
    switch (pick(4)) {
      case 0: std::snprintf(buf, sizeof(buf), "%.17g", x); return buf;
      case 1: std::snprintf(buf, sizeof(buf), "%.16e", x); return buf;
      default: return json_number(x);
    }
  }

  /// A random string, sometimes hostile: quotes, backslashes, control
  /// characters, DEL and two- and three-byte UTF-8.
  std::string text() {
    static constexpr const char* kPieces[] = {
        "a", "Z", "9", "-", "_", ".", " ", "/", "\"", "\\", "\n", "\t",
        "\x01", "\x1f", "\x7f", "\xc3\xa9", "\xe2\x82\xac", "{", "]", ":"};
    const std::size_t len = pick(12);
    std::string out;
    for (std::size_t i = 0; i < len; ++i) out += kPieces[pick(20)];
    return out;
  }

  /// `s` as a JSON string literal, with some characters spelled as
  /// \u escapes or "\/" (all decode back to `s`).
  std::string quote(const std::string& s) {
    if (rng_.bernoulli(0.7)) return json_quote(s);
    std::string out = "\"";
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (u < 0x80 && rng_.bernoulli(0.2)) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04X", u);
        out += buf;
      } else if (c == '/' && rng_.bernoulli(0.5)) {
        out += "\\/";
      } else {
        const std::string q = json_quote(std::string(1, c));
        out += q.substr(1, q.size() - 2);
      }
    }
    return out + "\"";
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  std::string name(const std::vector<std::string>& names) {
    if (names.empty() || rng_.bernoulli(0.05)) return text();
    return names[pick(names.size())];
  }

  /// A time on the minute grid (so every ISO spelling is exact), spelled
  /// as epoch seconds or one of the ISO forms.
  std::string time(double t) {
    if (rng_.bernoulli(0.5)) return number(t);
    const SimTime st(t);
    if (std::fmod(t, 86400.0) == 0.0 && rng_.bernoulli(0.5)) {
      return json_quote(iso_date(date_from_sim_time(st)));
    }
    std::string iso = iso_date_time(st);
    if (rng_.bernoulli(0.3)) iso += ":00";
    if (rng_.bernoulli(0.2)) iso[10] = 'T';
    return json_quote(iso);
  }

  double grid_time(double lo, double hi) {
    const double minutes = std::floor(rng_.uniform(lo, hi) / 60.0);
    return minutes * 60.0;
  }

  void window(std::vector<std::pair<std::string, std::string>>& members) {
    if (rng_.bernoulli(0.4)) return;
    const double a = grid_time(vocab_.t0, vocab_.t0 + vocab_.span_s);
    const double b = grid_time(a, vocab_.t0 + vocab_.span_s + 86400.0);
    if (rng_.bernoulli(0.8)) members.emplace_back("start", time(a));
    if (rng_.bernoulli(0.8)) members.emplace_back("end", time(b));
  }

  /// A non-negative g/kWh value, sometimes an edge-case number spelled
  /// literally (-0.0, the least subnormal, 1e21, past 2^53).
  std::string intensity_value() {
    static constexpr const char* kEdges[] = {
        "0", "-0.0", "5e-324", "0.1", "1e21", "1E+21", "9007199254740993"};
    if (rng_.bernoulli(0.15)) return kEdges[pick(7)];
    return number(rng_.uniform(0.0, 300.0));
  }

  std::string grid() {
    if (rng_.bernoulli(0.3)) {
      return "{" + quote("constant_g_per_kwh") + ":" +
             intensity_value() + "}";
    }
    // Half-hourly (the GB settlement period), hourly or irregular.
    const std::size_t n = 1 + pick(rng_.bernoulli(0.2) ? vocab_.max_points
                                                       : 24);
    const double step = rng_.bernoulli(0.5) ? 1800.0 : 3600.0;
    double t = grid_time(vocab_.t0 - 86400.0, vocab_.t0 + 86400.0);
    std::string out = "{" + quote("points") + ":[";
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out += ',';
      out += "[" + time(t) + "," + intensity_value() + "]";
      t += rng_.bernoulli(0.9) ? step : 60.0 * (1.0 + static_cast<double>(
                                                          pick(600)));
    }
    return out + "]}";
  }

  std::string scope3() {
    static constexpr double kTonnes[] = {1461.0, 0.1, 1e21, 1e-300};
    static constexpr double kYears[] = {4.0, 6.5, 0.25, 1e-3};
    return "{" + quote("total_tonnes") + ":" + number(kTonnes[pick(4)]) +
           "," + quote("lifetime_years") + ":" + number(kYears[pick(4)]) +
           "}";
  }

  void curve(std::vector<std::pair<std::string, std::string>>& members) {
    if (rng_.bernoulli(0.3)) {
      // Phrased in the scenario-spec grammar: resolves to the wire form.
      std::string spec = "{" + quote("grid") + ":" + grid();
      if (rng_.bernoulli(0.5)) spec += "," + quote("scope3") + ":" + scope3();
      members.emplace_back("spec", spec + "}");
      return;
    }
    members.emplace_back("intensity", grid());
    if (rng_.bernoulli(0.4)) members.emplace_back("scope3", scope3());
  }

  RequestVocabulary vocab_;
  Rng rng_;
};

}  // namespace hpcem::serve::request_gen
