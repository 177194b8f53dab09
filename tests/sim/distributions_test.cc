#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sim/distributions.h"

namespace jasim {
namespace {

TEST(DistributionsTest, ExponentialMeanMatchesRate)
{
    Rng rng(1);
    const double rate = 4.0;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += drawExponential(rng, rate);
    EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(DistributionsTest, ExponentialNonNegative)
{
    Rng rng(2);
    for (int i = 0; i < 10000; ++i)
        ASSERT_GE(drawExponential(rng, 0.5), 0.0);
}

TEST(DistributionsTest, NormalMoments)
{
    Rng rng(6);
    const int n = 200000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = drawNormal(rng, 10.0, 2.0);
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.03);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.03);
}

TEST(DistributionsTest, LogNormalPositive)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_GT(drawLogNormal(rng, 0.0, 1.0), 0.0);
}

TEST(ZipfSamplerTest, RankZeroMostProbable)
{
    ZipfSampler zipf(100, 1.0);
    EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
    EXPECT_GT(zipf.pmf(1), zipf.pmf(50));
}

TEST(ZipfSamplerTest, PmfSumsToOne)
{
    ZipfSampler zipf(500, 0.8);
    double total = 0.0;
    for (std::size_t i = 0; i < zipf.size(); ++i)
        total += zipf.pmf(i);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, ShiftFlattensHead)
{
    ZipfSampler sharp(1000, 1.0, 0.0);
    ZipfSampler flat(1000, 1.0, 20.0);
    EXPECT_GT(sharp.pmf(0), flat.pmf(0));
}

TEST(ZipfSamplerTest, EmpiricalMatchesPmf)
{
    Rng rng(8);
    ZipfSampler zipf(50, 1.2);
    std::vector<int> counts(50, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf(rng)];
    EXPECT_NEAR(counts[0] / double(n), zipf.pmf(0), 0.01);
    EXPECT_NEAR(counts[5] / double(n), zipf.pmf(5), 0.01);
}

TEST(ZipfSamplerTest, SampleAtIsMonotone)
{
    ZipfSampler zipf(100, 1.0);
    EXPECT_EQ(zipf.sampleAt(0.0), 0u);
    EXPECT_LE(zipf.sampleAt(0.2), zipf.sampleAt(0.8));
    EXPECT_LT(zipf.sampleAt(0.999999), 100u);
}

/** What sampleAt returned before its guide table: a full binary search. */
std::size_t
binarySearchRank(const std::vector<double> &cdf, double u)
{
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return it == cdf.end() ? cdf.size() - 1
                           : static_cast<std::size_t>(it - cdf.begin());
}

TEST(ZipfSamplerTest, GuidedSampleAtMatchesBinarySearchBitForBit)
{
    for (const std::size_t n : {1u, 2u, 500u, 120000u}) {
        for (const double shift : {0.0, 20.0}) {
            SCOPED_TRACE("n " + std::to_string(n) + " shift " +
                         std::to_string(shift));
            const ZipfSampler zipf(n, n == 500 ? 1.0 : 0.5, shift);
            const std::vector<double> &cdf = zipf.cdf();
            ASSERT_EQ(cdf.size(), n);
            const auto check = [&](double u) {
                ASSERT_EQ(zipf.sampleAt(u), binarySearchRank(cdf, u))
                    << "u " << u;
            };
            // Every CDF value and its neighbours.
            for (const double c : cdf) {
                check(c);
                check(std::nextafter(c, 0.0));
                check(std::nextafter(c, 2.0));
            }
            // Every bucket edge b/n (one bucket per rank) and its
            // neighbours.
            for (std::size_t b = 0; b <= n; ++b) {
                const double edge =
                    static_cast<double>(b) / static_cast<double>(n);
                check(edge);
                check(std::nextafter(edge, 0.0));
                check(std::nextafter(edge, 2.0));
            }
            check(0.0);
            check(std::nextafter(1.0, 0.0));
            // Seeded draws, through operator() too.
            Rng draws(n + static_cast<std::size_t>(shift));
            Rng twin(n + static_cast<std::size_t>(shift));
            for (int i = 0; i < 1000000; ++i) {
                const double u = twin.uniform();
                ASSERT_EQ(zipf(draws), binarySearchRank(cdf, u));
            }
        }
    }
}

TEST(DiscreteSamplerTest, RespectsWeights)
{
    Rng rng(9);
    DiscreteSampler sampler({1.0, 0.0, 3.0});
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[sampler(rng)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / double(n), 0.25, 0.01);
    EXPECT_NEAR(counts[2] / double(n), 0.75, 0.01);
}

TEST(DiscreteSamplerTest, ProbabilityAccessor)
{
    DiscreteSampler sampler({2.0, 6.0});
    EXPECT_NEAR(sampler.probability(0), 0.25, 1e-12);
    EXPECT_NEAR(sampler.probability(1), 0.75, 1e-12);
}

/** Property sweep: zipf concentration increases with the exponent. */
class ZipfExponentTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfExponentTest, HeadShareGrowsWithExponent)
{
    const double s = GetParam();
    ZipfSampler a(1000, s);
    ZipfSampler b(1000, s + 0.3);
    double head_a = 0.0, head_b = 0.0;
    for (std::size_t i = 0; i < 10; ++i) {
        head_a += a.pmf(i);
        head_b += b.pmf(i);
    }
    EXPECT_LT(head_a, head_b);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2, 1.5));

} // namespace
} // namespace jasim
