#include <gtest/gtest.h>

#include <sstream>

#include "stats/render.h"

namespace jasim {
namespace {

TEST(TextTableTest, AlignsColumnsAndFormats)
{
    TextTable table({"name", "value"});
    table.addRow({"cpi", TextTable::num(2.95, 2)});
    table.addRow({"util", TextTable::pct(89.5)});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("cpi"), std::string::npos);
    EXPECT_NE(out.find("2.95"), std::string::npos);
    EXPECT_NE(out.find("89.5%"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded)
{
    TextTable table({"a", "b", "c"});
    table.addRow({"only"});
    std::ostringstream os;
    table.print(os);
    EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(RenderChartTest, ProducesGridAndLegend)
{
    TimeSeries s("throughput");
    for (int i = 0; i < 100; ++i)
        s.append(static_cast<SimTime>(i), 10.0 + (i % 7));
    std::ostringstream os;
    renderChart(os, {s});
    const std::string out = os.str();
    EXPECT_NE(out.find("throughput"), std::string::npos);
    EXPECT_NE(out.find('*'), std::string::npos);
    EXPECT_NE(out.find('+'), out.find("throughput")); // legend glyph
}

TEST(RenderChartTest, EmptySeriesHandled)
{
    std::ostringstream os;
    renderChart(os, {TimeSeries("empty")});
    EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(RenderChartTest, MultipleSeriesDistinctGlyphs)
{
    TimeSeries a("a"), b("b");
    for (int i = 0; i < 50; ++i) {
        a.append(static_cast<SimTime>(i), 1.0);
        b.append(static_cast<SimTime>(i), 2.0);
    }
    std::ostringstream os;
    renderChart(os, {a, b});
    const std::string out = os.str();
    EXPECT_NE(out.find('*'), std::string::npos);
    EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(RenderBarChartTest, ZeroLineAndValues)
{
    std::ostringstream os;
    renderBarChart(os, {{"pos", 0.8}, {"neg", -0.5}});
    const std::string out = os.str();
    EXPECT_NE(out.find("pos"), std::string::npos);
    EXPECT_NE(out.find("+0.80"), std::string::npos);
    EXPECT_NE(out.find("-0.50"), std::string::npos);
    EXPECT_NE(out.find('|'), std::string::npos);
}

} // namespace
} // namespace jasim
