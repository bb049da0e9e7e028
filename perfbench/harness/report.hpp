// Metric report: human-readable lines as metrics are added, and the one
// JSON result object the benchmark prints as its last line.
#pragma once

#include <charconv>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  /// Record a metric; `samples` (when non-zero) is printed with it.
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics_.push_back({name, value, unit});
    print(name, value, unit, samples);
  }

  /// Print a metric line that stays out of the JSON result: a figure the
  /// benchmark shows but BENCHMARK.json does not bound.
  static void print(const std::string& name, double value,
                    const std::string& unit, std::size_t samples = 0) {
    std::printf("  %-34s %14.6g %-6s", name.c_str(), value, unit.c_str());
    if (samples > 0) std::printf("  (n=%zu)", samples);
    std::printf("\n");
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json(bool correct, std::size_t attempted,
                                 std::size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ", ";
      char buf[64];
      const auto res = std::to_chars(buf, buf + sizeof(buf), metrics_[i].value);
      out += "\"" + metrics_[i].name + "\": {\"value\": " +
             std::string(buf, res.ptr) + ", \"unit\": \"" + metrics_[i].unit +
             "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
