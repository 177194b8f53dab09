#include <gtest/gtest.h>

#include <cmath>

#include "stats/smoothing.h"

namespace jasim {
namespace {

TEST(BezierSmoothTest, EndpointsPreserved)
{
    const std::vector<double> in{1.0, 9.0, 3.0, 7.0, 5.0};
    const auto out = bezierSmooth(in, 50);
    EXPECT_NEAR(out.front(), 1.0, 1e-9);
    EXPECT_NEAR(out.back(), 5.0, 1e-9);
}

TEST(BezierSmoothTest, OutputWithinInputHull)
{
    const std::vector<double> in{2.0, 8.0, 4.0, 6.0, 3.0, 9.0};
    const auto out = bezierSmooth(in, 100);
    for (double v : out) {
        EXPECT_GE(v, 2.0 - 1e-9);
        EXPECT_LE(v, 9.0 + 1e-9);
    }
}

TEST(BezierSmoothTest, FlattensShortSpikes)
{
    // A short-lived spike (one GC window among many) should smooth to
    // a small bump, as the paper notes about its Figure 7.
    std::vector<double> in(60, 1.0);
    in[30] = 100.0;
    const auto out = bezierSmooth(in, 60);
    double peak = 0.0;
    for (double v : out)
        peak = std::max(peak, v);
    EXPECT_LT(peak, 25.0);
    EXPECT_GT(peak, 1.0);
}

TEST(BezierSmoothTest, LargeInputStaysFinite)
{
    std::vector<double> in(3000, 1.0);
    in[1500] = 5.0;
    const auto out = bezierSmooth(in, 100);
    for (double v : out)
        ASSERT_TRUE(std::isfinite(v));
}

TEST(BezierSmoothTest, TinyInputsPassThrough)
{
    const std::vector<double> two{1.0, 2.0};
    EXPECT_EQ(bezierSmooth(two, 10), two);
}

TEST(BezierSmoothTest, SeriesOverloadKeepsTimeRange)
{
    TimeSeries s("x");
    s.append(100, 1.0);
    s.append(200, 5.0);
    s.append(300, 2.0);
    s.append(400, 4.0);
    const TimeSeries out = bezierSmooth(s, 20);
    ASSERT_EQ(out.size(), 20u);
    EXPECT_EQ(out.time(0), 100u);
    EXPECT_EQ(out.time(19), 400u);
}

} // namespace
} // namespace jasim
