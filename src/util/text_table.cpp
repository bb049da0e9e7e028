#include "util/text_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace hpcem {

TextTable::TextTable(std::vector<std::string> header,
                     std::vector<Align> aligns)
    : header_(std::move(header)), aligns_(std::move(aligns)) {
  require(!header_.empty(), "TextTable: header must be non-empty");
  if (aligns_.empty()) {
    aligns_.assign(header_.size(), Align::kLeft);
  }
  require(aligns_.size() == header_.size(),
          "TextTable: aligns must match header width");
}

void TextTable::add_row(std::vector<std::string> cells) {
  require(cells.size() == header_.size(),
          "TextTable::add_row: row width must match header");
  rows_.push_back(std::move(cells));
}

void TextTable::add_rule() { rows_.emplace_back(); }

std::string TextTable::str() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) {
    widths[i] = header_[i].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto emit_cells = [&](std::ostringstream& os,
                        const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::size_t pad = widths[i] - cells[i].size();
      os << ' ';
      if (aligns_[i] == Align::kRight) os << std::string(pad, ' ');
      os << cells[i];
      if (aligns_[i] == Align::kLeft) os << std::string(pad, ' ');
      os << " |";
    }
    os << '\n';
  };
  auto emit_rule = [&](std::ostringstream& os) {
    os << '|';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '|';
    os << '\n';
  };

  std::ostringstream os;
  emit_cells(os, header_);
  emit_rule(os);
  for (const auto& row : rows_) {
    if (row.empty()) {
      emit_rule(os);
    } else {
      emit_cells(os, row);
    }
  }
  return os.str();
}

std::string TextTable::num(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string TextTable::grouped(double v) {
  const bool neg = v < 0;
  auto n = static_cast<long long>(std::llround(std::fabs(v)));
  std::string digits = std::to_string(n);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string TextTable::pct(double fraction, int decimals) {
  return num(fraction * 100.0, decimals) + "%";
}

}  // namespace hpcem
