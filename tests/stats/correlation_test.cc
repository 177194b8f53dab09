#include <gtest/gtest.h>

#include "sim/rng.h"
#include "stats/correlation.h"

namespace jasim {
namespace {

TEST(CorrelationTest, PerfectPositive)
{
    EXPECT_NEAR(pearson({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0, 1e-12);
}

TEST(CorrelationTest, PerfectNegative)
{
    EXPECT_NEAR(pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(CorrelationTest, DegenerateInputsReturnZero)
{
    EXPECT_DOUBLE_EQ(pearson({1.0}, {2.0}), 0.0);
    EXPECT_DOUBLE_EQ(pearson({5, 5, 5}, {1, 2, 3}), 0.0);
    EXPECT_DOUBLE_EQ(pearson(std::vector<double>{},
                             std::vector<double>{}),
                     0.0);
}

TEST(CorrelationTest, IndependentNearZero)
{
    Rng rng(3);
    std::vector<double> x, y;
    for (int i = 0; i < 20000; ++i) {
        x.push_back(rng.uniform());
        y.push_back(rng.uniform());
    }
    EXPECT_NEAR(pearson(x, y), 0.0, 0.02);
}

TEST(CorrelationTest, ScaleAndShiftInvariant)
{
    std::vector<double> x{1, 3, 2, 5, 4};
    std::vector<double> y{2, 6, 5, 9, 7};
    std::vector<double> y2;
    for (double v : y)
        y2.push_back(100.0 + 7.0 * v);
    EXPECT_NEAR(pearson(x, y), pearson(x, y2), 1e-12);
}

TEST(CorrelationTest, Symmetric)
{
    std::vector<double> x{1, 4, 2, 8, 5};
    std::vector<double> y{3, 1, 4, 1, 5};
    EXPECT_NEAR(pearson(x, y), pearson(y, x), 1e-12);
}

/** Property: r always lies in [-1, 1], for many random vectors. */
class CorrelationBoundsTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CorrelationBoundsTest, AlwaysWithinBounds)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<double> x, y;
    for (int i = 0; i < 100; ++i) {
        x.push_back(rng.uniform(-10, 10));
        y.push_back(rng.uniform(-10, 10) + 0.3 * x.back());
    }
    const double r = pearson(x, y);
    EXPECT_GE(r, -1.0);
    EXPECT_LE(r, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelationBoundsTest,
                         ::testing::Range(1, 21));

} // namespace
} // namespace jasim
