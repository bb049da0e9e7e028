// Fixed-width text table renderer for the reproduction harnesses.
//
// The bench binaries print paper-vs-simulated tables; this keeps the
// formatting in one place.  Markdown-ish pipe tables with right-aligned
// numeric columns.
#pragma once

#include <string>
#include <vector>

namespace hpcem {

/// Column alignment for TextTable.
enum class Align { kLeft, kRight };

/// Builds an aligned pipe table:
///
///   | Component | Idle (kW) |
///   |-----------|-----------|
///   | Nodes     |     1,350 |
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header,
                     std::vector<Align> aligns = {});

  void add_row(std::vector<std::string> cells);
  /// Insert a horizontal rule before the next row.
  void add_rule();

  [[nodiscard]] std::string str() const;

  /// Fixed-point formatting helper: 3.14159 -> "3.14" (decimals=2).
  static std::string num(double v, int decimals = 2);
  /// Thousands-separated integer rendering: 3220.4 -> "3,220".
  static std::string grouped(double v);
  /// Percentage rendering: 0.065 -> "6.5%".
  static std::string pct(double fraction, int decimals = 1);

 private:
  std::vector<std::string> header_;
  std::vector<Align> aligns_;
  // Each entry is either a row of cells or an empty vector meaning a rule.
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hpcem
