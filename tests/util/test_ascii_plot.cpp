// Unit tests for the ASCII plot renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/ascii_plot.hpp"
#include "util/error.hpp"

namespace hpcem {
namespace {

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t nl = s.find('\n', pos);
    out.push_back(s.substr(pos, nl - pos));
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return out;
}

TEST(AsciiPlot, ContainsTitleAndMarks) {
  AsciiPlotOptions opts;
  opts.title = "Power timeline";
  opts.width = 40;
  opts.height = 8;
  const std::vector<double> ys = {1.0, 2.0, 3.0, 2.0, 1.0};
  const std::string s = ascii_plot(ys, opts);
  EXPECT_NE(s.find("Power timeline"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
}

TEST(AsciiPlot, ReferenceLineDrawnAndAnnotated) {
  AsciiPlotOptions opts;
  opts.width = 40;
  opts.height = 8;
  opts.reference_lines = {5.0};
  const std::vector<double> ys(100, 5.0);
  const std::string s = ascii_plot(ys, opts);
  EXPECT_NE(s.find("reference:"), std::string::npos);
  EXPECT_NE(s.find('-'), std::string::npos);
}

TEST(AsciiPlot, LongSeriesBucketsToWidth) {
  AsciiPlotOptions opts;
  opts.width = 32;
  opts.height = 8;
  std::vector<double> ys(10000);
  for (std::size_t i = 0; i < ys.size(); ++i) {
    ys[i] = static_cast<double>(i % 100);
  }
  const std::string s = ascii_plot(ys, opts);
  for (const auto& line : lines_of(s)) {
    EXPECT_LE(line.size(), 32u + 16u);
  }
}

TEST(AsciiPlot, StepSeriesPutsMarksAtTwoLevels) {
  AsciiPlotOptions opts;
  opts.width = 40;
  opts.height = 10;
  std::vector<double> ys(200, 3220.0);
  for (std::size_t i = 100; i < 200; ++i) ys[i] = 2530.0;
  const std::string s = ascii_plot(ys, opts);
  const auto ls = lines_of(s);
  // Marks must appear in at least two distinct rows (two power levels).
  int rows_with_marks = 0;
  for (const auto& line : ls) {
    if (line.find('*') != std::string::npos) ++rows_with_marks;
  }
  EXPECT_GE(rows_with_marks, 2);
}

TEST(AsciiPlot, XTicksRendered) {
  AsciiPlotOptions opts;
  opts.width = 60;
  opts.height = 6;
  opts.x_ticks = {"Dec 2021", "Apr 2022"};
  const std::vector<double> ys = {1.0, 2.0};
  const std::string s = ascii_plot(ys, opts);
  EXPECT_NE(s.find("Dec 2021"), std::string::npos);
  EXPECT_NE(s.find("Apr 2022"), std::string::npos);
}

TEST(AsciiPlot, ExplicitYRangeClampsMarks) {
  AsciiPlotOptions opts;
  opts.width = 20;
  opts.height = 6;
  opts.y_min = 0.0;
  opts.y_max = 1.0;
  const std::vector<double> ys = {-5.0, 0.5, 5.0};  // outliers clamp
  EXPECT_NO_THROW(ascii_plot(ys, opts));
}

TEST(AsciiPlot, InvalidInputsThrow) {
  AsciiPlotOptions opts;
  EXPECT_THROW(ascii_plot({}, opts), InvalidArgument);
  opts.width = 4;  // too small
  const std::vector<double> ys = {1.0};
  EXPECT_THROW(ascii_plot(ys, opts), InvalidArgument);
}

}  // namespace
}  // namespace hpcem
