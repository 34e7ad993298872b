#include "util/table.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "scratch_dir.h"

namespace sttr {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"name", "v"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTableTest, CsvRendering) {
  TextTable t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddRow({"3", "4"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n3,4\n");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTableTest, WriteCsvRoundTrip) {
  TextTable t({"x"});
  t.AddRow({"hello"});
  const std::string path =
      testing_util::ScratchDir("sttr_table") + "/table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::getline(in, line);
  EXPECT_EQ(line, "hello");
  std::remove(path.c_str());
}

TEST(TextTableTest, WriteCsvBadPathFails) {
  TextTable t({"x"});
  EXPECT_FALSE(t.WriteCsv("/nonexistent-dir/zzz/file.csv").ok());
}

TEST(TextTableDeathTest, RowArityMismatchAborts) {
  TextTable t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "arity");
}

}  // namespace
}  // namespace sttr
