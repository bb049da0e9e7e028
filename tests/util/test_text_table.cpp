// Unit tests for the text-table renderer and number formatting.
#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/text_table.hpp"

namespace hpcem {
namespace {

TEST(TextTable, RendersAlignedPipes) {
  TextTable t({"Name", "kW"}, {Align::kLeft, Align::kRight});
  t.add_row({"nodes", "3000"});
  t.add_row({"switches", "200"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| Name     |   kW |"), std::string::npos);
  EXPECT_NE(s.find("| nodes    | 3000 |"), std::string::npos);
  EXPECT_NE(s.find("| switches |  200 |"), std::string::npos);
}

TEST(TextTable, DefaultAlignmentIsLeft) {
  TextTable t({"A"});
  t.add_row({"x"});
  EXPECT_NE(t.str().find("| x |"), std::string::npos);
}

TEST(TextTable, RuleInsertsSeparator) {
  TextTable t({"A"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string s = t.str();
  // Header rule + explicit rule.
  std::size_t rules = 0;
  for (std::size_t pos = s.find("|---"); pos != std::string::npos;
       pos = s.find("|---", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 2u);
}

TEST(TextTable, WidthMismatchThrows) {
  TextTable t({"A", "B"});
  EXPECT_THROW(t.add_row({"only"}), InvalidArgument);
}

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), InvalidArgument);
}

TEST(TextTable, AlignsVectorMustMatch) {
  EXPECT_THROW(TextTable({"A", "B"}, {Align::kLeft}), InvalidArgument);
}

TEST(TextTableNum, FixedDecimals) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(3.0, 0), "3");
  EXPECT_EQ(TextTable::num(-1.005, 1), "-1.0");
}

TEST(TextTableGrouped, ThousandsSeparators) {
  EXPECT_EQ(TextTable::grouped(3220.0), "3,220");
  EXPECT_EQ(TextTable::grouped(750080.0), "750,080");
  EXPECT_EQ(TextTable::grouped(999.0), "999");
  EXPECT_EQ(TextTable::grouped(1000000.0), "1,000,000");
  EXPECT_EQ(TextTable::grouped(-3220.0), "-3,220");
  EXPECT_EQ(TextTable::grouped(0.4), "0");
  EXPECT_EQ(TextTable::grouped(999.6), "1,000");
}

TEST(TextTablePct, Percentage) {
  EXPECT_EQ(TextTable::pct(0.065, 1), "6.5%");
  EXPECT_EQ(TextTable::pct(0.21, 0), "21%");
  EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
}

}  // namespace
}  // namespace hpcem
