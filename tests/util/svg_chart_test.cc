#include "util/svg_chart.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "scratch_dir.h"

namespace sttr {
namespace {

size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(SvgChartTest, EmptyChartIsValidSvg) {
  SvgLineChart chart("empty", "x", "y");
  const std::string svg = chart.Render();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("empty"), std::string::npos);
  EXPECT_EQ(chart.num_series(), 0u);
}

TEST(SvgChartTest, OnePolylinePerSeries) {
  SvgLineChart chart("t", "x", "y");
  chart.AddSeries("a", {0, 1, 2}, {0.1, 0.2, 0.3});
  chart.AddSeries("b", {0, 1, 2}, {0.3, 0.2, 0.1});
  const std::string svg = chart.Render();
  EXPECT_EQ(CountOccurrences(svg, "<polyline"), 2u);
  // One marker per data point.
  EXPECT_EQ(CountOccurrences(svg, "<circle"), 6u);
  // Legend entries.
  EXPECT_NE(svg.find(">a</text>"), std::string::npos);
  EXPECT_NE(svg.find(">b</text>"), std::string::npos);
}

TEST(SvgChartTest, EscapesXmlInLabels) {
  SvgLineChart chart("a < b & c", "x<y>", "q\"r");
  chart.AddSeries("s<1>", {0, 1}, {0, 1});
  const std::string svg = chart.Render();
  EXPECT_NE(svg.find("a &lt; b &amp; c"), std::string::npos);
  EXPECT_NE(svg.find("x&lt;y&gt;"), std::string::npos);
  EXPECT_NE(svg.find("q&quot;r"), std::string::npos);
  EXPECT_NE(svg.find("s&lt;1&gt;"), std::string::npos);
  EXPECT_EQ(svg.find("a < b"), std::string::npos);
}

TEST(SvgChartTest, FlatSeriesDoesNotDivideByZero) {
  SvgLineChart chart("flat", "x", "y");
  chart.AddSeries("constant", {1, 2, 3}, {0.5, 0.5, 0.5});
  const std::string svg = chart.Render();
  EXPECT_EQ(svg.find("nan"), std::string::npos);
  EXPECT_EQ(svg.find("inf"), std::string::npos);
}

TEST(SvgChartTest, SinglePointSeries) {
  SvgLineChart chart("point", "x", "y");
  chart.AddSeries("p", {0.5}, {0.25});
  const std::string svg = chart.Render();
  EXPECT_EQ(CountOccurrences(svg, "<circle"), 1u);
  EXPECT_EQ(svg.find("nan"), std::string::npos);
}

TEST(SvgChartTest, FixedYRangeUsed) {
  SvgLineChart chart("fixed", "x", "y");
  chart.SetYRange(0.0, 1.0);
  chart.AddSeries("s", {0, 1}, {0.4, 0.6});
  const std::string svg = chart.Render();
  // With a [0,1] range the tick labels include 0 and 1.
  EXPECT_NE(svg.find(">0</text>"), std::string::npos);
  EXPECT_NE(svg.find(">1</text>"), std::string::npos);
}

TEST(SvgChartTest, SizeAppearsInDocument) {
  SvgLineChart chart("size", "x", "y");
  chart.SetSize(800, 500);
  const std::string svg = chart.Render();
  EXPECT_NE(svg.find("width=\"800\""), std::string::npos);
  EXPECT_NE(svg.find("height=\"500\""), std::string::npos);
}

TEST(SvgChartTest, WriteToRoundTrip) {
  SvgLineChart chart("file", "x", "y");
  chart.AddSeries("s", {0, 1}, {0, 1});
  const std::string path =
      testing_util::ScratchDir("sttr_svg_chart") + "/chart_test.svg";
  ASSERT_TRUE(chart.WriteTo(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, chart.Render());
  std::remove(path.c_str());
}

TEST(SvgChartTest, WriteToBadPathFails) {
  SvgLineChart chart("bad", "x", "y");
  EXPECT_FALSE(chart.WriteTo("/nonexistent-zzz/chart.svg").ok());
}

TEST(SvgChartDeathTest, MismatchedSeriesAborts) {
  SvgLineChart chart("t", "x", "y");
  EXPECT_DEATH(chart.AddSeries("s", {0, 1}, {0}), "");
  EXPECT_DEATH(chart.AddSeries("s", {}, {}), "empty");
}

}  // namespace
}  // namespace sttr
