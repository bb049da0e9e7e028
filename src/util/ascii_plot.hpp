// ASCII time-series plotting for the figure-reproduction harnesses.
//
// The paper's Figures 1–3 are power-vs-time charts with a mean line; the
// bench binaries render the simulated equivalent as a character grid so the
// reproduction is inspectable in a terminal and in EXPERIMENTS.md.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace hpcem {

/// Configuration for an ASCII chart.
struct AsciiPlotOptions {
  int width = 96;    ///< plot-area columns
  int height = 20;   ///< plot-area rows
  std::string title;
  std::string y_label;
  /// Horizontal reference lines (e.g. the paper's orange mean line), drawn
  /// with '-' and annotated with their value.
  std::vector<double> reference_lines;
  /// Optional x tick labels, evenly spaced across the axis.
  std::vector<std::string> x_ticks;
  /// Explicit y-axis range; auto-scaled to the data when unset.
  std::optional<double> y_min;
  std::optional<double> y_max;
};

/// Render `ys` (uniformly spaced in x) as an ASCII chart.
/// Values are bucket-averaged down to `width` columns, so arbitrarily long
/// series render at fixed size.
[[nodiscard]] std::string ascii_plot(std::span<const double> ys,
                                     const AsciiPlotOptions& options);

}  // namespace hpcem
