#include <gtest/gtest.h>

#include <sstream>

#include "metrics/table.h"

namespace seed::metrics {
namespace {

TEST(Table, FormatsAlignedColumns) {
  Table t({"A", "Long header"});
  t.row({"x", "1"});
  t.row({"longer cell", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| A           | Long header |"), std::string::npos);
  EXPECT_NE(out.find("| longer cell | 2           |"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"A", "B", "C"});
  t.row({"only one"});
  std::ostringstream os;
  t.print(os);  // must not crash; missing cells render empty
  EXPECT_NE(os.str().find("only one"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Banner, PrintsTitle) {
  std::ostringstream os;
  print_banner(os, "Table 9");
  EXPECT_EQ(os.str(), "\n=== Table 9 ===\n");
}

}  // namespace
}  // namespace seed::metrics
