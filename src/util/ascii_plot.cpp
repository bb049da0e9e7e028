#include "util/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace hpcem {

namespace {

std::string format_value(double v) {
  char buf[32];
  if (std::fabs(v) >= 1000.0) {
    std::snprintf(buf, sizeof buf, "%8.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%8.1f", v);
  }
  return buf;
}

}  // namespace

std::string ascii_plot(std::span<const double> ys,
                       const AsciiPlotOptions& options) {
  require(!ys.empty(), "ascii_plot: empty series");
  require(options.width >= 8 && options.height >= 4,
          "ascii_plot: plot area too small");

  const auto w = static_cast<std::size_t>(options.width);
  const auto h = static_cast<std::size_t>(options.height);

  // Bucket-average the series down to `w` columns.
  std::vector<double> cols(w);
  for (std::size_t c = 0; c < w; ++c) {
    const std::size_t lo = c * ys.size() / w;
    std::size_t hi = (c + 1) * ys.size() / w;
    hi = std::max(hi, lo + 1);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi && i < ys.size(); ++i) sum += ys[i];
    cols[c] = sum / static_cast<double>(std::min(hi, ys.size()) - lo);
  }

  double y_min = options.y_min.value_or(
      *std::min_element(cols.begin(), cols.end()));
  double y_max = options.y_max.value_or(
      *std::max_element(cols.begin(), cols.end()));
  for (double r : options.reference_lines) {
    y_min = std::min(y_min, r);
    y_max = std::max(y_max, r);
  }
  if (y_max <= y_min) y_max = y_min + 1.0;
  // Pad the auto range slightly so extremes are not glued to the border.
  const double pad = 0.05 * (y_max - y_min);
  if (!options.y_min) y_min -= pad;
  if (!options.y_max) y_max += pad;

  auto row_of = [&](double v) -> std::size_t {
    const double frac = (v - y_min) / (y_max - y_min);
    const double clamped = std::clamp(frac, 0.0, 1.0);
    return static_cast<std::size_t>(
        std::llround((1.0 - clamped) * static_cast<double>(h - 1)));
  };

  std::vector<std::string> grid(h, std::string(w, ' '));
  for (double r : options.reference_lines) {
    const std::size_t row = row_of(r);
    for (std::size_t c = 0; c < w; ++c) grid[row][c] = '-';
  }
  for (std::size_t c = 0; c < w; ++c) {
    grid[row_of(cols[c])][c] = '*';
  }

  std::ostringstream os;
  if (!options.title.empty()) os << options.title << '\n';
  if (!options.y_label.empty()) os << "  [" << options.y_label << "]\n";
  for (std::size_t r = 0; r < h; ++r) {
    // y-axis label on every 4th row and the extremes.
    const double v =
        y_max - (y_max - y_min) * static_cast<double>(r) /
                    static_cast<double>(h - 1);
    if (r % 4 == 0 || r == h - 1) {
      os << format_value(v) << " |";
    } else {
      os << std::string(8, ' ') << " |";
    }
    os << grid[r] << '\n';
  }
  os << std::string(9, ' ') << '+' << std::string(w, '-') << '\n';

  if (!options.x_ticks.empty()) {
    std::string axis(w + 10, ' ');
    const std::size_t n = options.x_ticks.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pos =
          10 + (n == 1 ? 0 : i * (w - 1) / (n - 1));
      const std::string& label = options.x_ticks[i];
      // Shift the final label left so it stays inside the row.
      std::size_t start = pos;
      if (start + label.size() > axis.size()) {
        start = axis.size() - label.size();
      }
      for (std::size_t j = 0; j < label.size(); ++j) {
        axis[start + j] = label[j];
      }
    }
    os << axis << '\n';
  }
  for (double r : options.reference_lines) {
    os << "  ---- reference: " << format_value(r) << '\n';
  }
  return os.str();
}

}  // namespace hpcem
