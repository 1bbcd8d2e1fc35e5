#include "ftmc/util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace {

using ftmc::util::Table;

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(3.14159, 4), "3.1416");
  EXPECT_EQ(Table::cell(std::size_t{7}), "7");
}

TEST(Table, PrintsTitleHeaderAndRows) {
  Table table("My Table");
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("My Table"), std::string::npos);
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
}

TEST(Table, AlignsColumns) {
  Table table;
  table.set_header({"x", "y"});
  table.add_row({"longer", "1"});
  std::ostringstream out;
  table.print(out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t width = 0;
  bool first = true;
  while (std::getline(lines, line)) {
    if (first) {
      width = line.size();
      first = false;
    } else {
      EXPECT_EQ(line.size(), width) << line;
    }
  }
}

TEST(Table, RaggedRowsArePadded) {
  Table table;
  table.set_header({"a", "b", "c"});
  table.add_row({"1"});
  std::ostringstream out;
  EXPECT_NO_THROW(table.print(out));
}

TEST(Table, RowCount) {
  Table table;
  EXPECT_EQ(table.row_count(), 0u);
  table.add_row({"x"});
  table.add_row({"y"});
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, EmptyTablePrintsNothing) {
  Table table;
  std::ostringstream out;
  table.print(out);
  EXPECT_TRUE(out.str().empty());
}

}  // namespace
