#include <gtest/gtest.h>

#include "stats/percentile.h"

namespace jasim {
namespace {

TEST(PercentileTest, NearestRankSemantics)
{
    PercentileTracker t;
    for (int i = 1; i <= 10; ++i)
        t.add(i);
    EXPECT_DOUBLE_EQ(t.percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(t.percentile(90), 9.0);
    EXPECT_DOUBLE_EQ(t.percentile(100), 10.0);
    EXPECT_DOUBLE_EQ(t.percentile(10), 1.0);
}

TEST(PercentileTest, EmptyReturnsZero)
{
    PercentileTracker t;
    EXPECT_DOUBLE_EQ(t.percentile(90), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_DOUBLE_EQ(t.max(), 0.0);
}

TEST(PercentileTest, AddAfterQueryResorts)
{
    PercentileTracker t;
    t.add(5.0);
    EXPECT_DOUBLE_EQ(t.percentile(50), 5.0);
    t.add(1.0);
    EXPECT_DOUBLE_EQ(t.percentile(50), 1.0);
}

TEST(PercentileTest, MeanAndMax)
{
    PercentileTracker t;
    t.add(1.0);
    t.add(2.0);
    t.add(6.0);
    EXPECT_DOUBLE_EQ(t.mean(), 3.0);
    EXPECT_DOUBLE_EQ(t.max(), 6.0);
}

} // namespace
} // namespace jasim
