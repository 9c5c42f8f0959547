#include "io/ascii_chart.hpp"
#include "io/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace match::io {
namespace {

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table(std::vector<std::string>{}), std::invalid_argument);
}

TEST(Table, RejectsWrongCellCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-name", "23456"});
  std::stringstream ss;
  t.print(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|---"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_cols(), 2u);
}

TEST(Table, NumFormatsDoubles) {
  EXPECT_EQ(Table::num(4.7170001, 4), "4.717");
  EXPECT_EQ(Table::num(16585.0), "16585");
  EXPECT_EQ(Table::num(0.5, 2), "0.5");
  // Integer digits are never rounded away into scientific notation.
  EXPECT_EQ(Table::num(56351, 1), "56351");
  EXPECT_EQ(Table::num(1234567, 2), "1234567");
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"x,y", "he said \"hi\""});
  std::stringstream ss;
  t.write_csv(ss);
  EXPECT_EQ(ss.str(),
            "a,b\n"
            "1,2\n"
            "\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_escape("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(csv_escape("with\"quote"), "\"with\"\"quote\"");
}

TEST(AsciiChart, RejectsBadConstruction) {
  EXPECT_THROW(AsciiChart("t", {}), std::invalid_argument);
  AsciiChart chart("t", {"a", "b"});
  EXPECT_THROW(chart.add_series({"s", {1.0}, '*'}), std::invalid_argument);
  EXPECT_THROW(chart.set_height(2), std::invalid_argument);
}

TEST(AsciiChart, PrintsMarkersAndLegend) {
  AsciiChart chart("Demo chart", {"10", "20", "30"});
  chart.add_series({"GA", {100.0, 200.0, 300.0}, 'g'});
  chart.add_series({"MaTCH", {50.0, 60.0, 70.0}, 'm'});
  std::stringstream ss;
  chart.print(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("Demo chart"), std::string::npos);
  EXPECT_NE(out.find("'g' = GA"), std::string::npos);
  EXPECT_NE(out.find("'m' = MaTCH"), std::string::npos);
  EXPECT_NE(out.find('g'), std::string::npos);
  EXPECT_NE(out.find('m'), std::string::npos);
}

TEST(AsciiChart, LogScaleHandlesWideRanges) {
  AsciiChart chart("Log demo", {"a", "b"});
  chart.set_log_y(true);
  chart.add_series({"s", {10.0, 1e6}, '*'});
  std::stringstream ss;
  chart.print(ss);
  EXPECT_NE(ss.str().find("[log y]"), std::string::npos);
}

TEST(AsciiChart, FlatSeriesDoesNotCrash) {
  AsciiChart chart("Flat", {"a", "b", "c"});
  chart.add_series({"s", {5.0, 5.0, 5.0}, '*'});
  std::stringstream ss;
  chart.print(ss);
  EXPECT_FALSE(ss.str().empty());
}

TEST(AsciiChart, EmptyChartPrintsPlaceholder) {
  AsciiChart chart("Empty", {"x"});
  std::stringstream ss;
  chart.print(ss);
  EXPECT_NE(ss.str().find("no data"), std::string::npos);
}

}  // namespace
}  // namespace match::io
