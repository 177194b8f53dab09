/**
 * @file
 * Deterministic probability distributions used by the workload and
 * microarchitecture models.
 *
 * Standard-library distributions are implementation-defined; these
 * hand-rolled versions guarantee identical streams across platforms,
 * which the test suite relies on.
 */

#ifndef JASIM_SIM_DISTRIBUTIONS_H
#define JASIM_SIM_DISTRIBUTIONS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace jasim {

/** Exponential draw with the given rate (events per unit time). */
double drawExponential(Rng &rng, double rate);

/** Normal draw via Box-Muller (single value; no caching). */
double drawNormal(Rng &rng, double mean, double stddev);

/** Log-normal draw parameterized by the underlying normal. */
double drawLogNormal(Rng &rng, double mu, double sigma);

/**
 * Truncated, optionally shifted Zipf sampler over ranks 1..n.
 *
 * P(rank k) is proportional to 1 / (k + shift)^s. A positive shift
 * flattens the head of the distribution, which is how the jas2004
 * method profile achieves "hottest method < 1%" while a couple of
 * hundred methods still cover half the samples. Precomputes the CDF
 * and a guide table with one bucket per rank: bucket b holds the first
 * rank whose CDF reaches b/n, so a draw searches only the ranks its
 * bucket spans. A result that fails cdf[i-1] < u <= cdf[i] (possible
 * only where rounding puts u in a neighbouring bucket) falls back to
 * the full binary search, so every u returns exactly the rank a binary
 * search over the whole CDF would.
 */
class ZipfSampler
{
  public:
    /**
     * @param n number of ranks.
     * @param s exponent (>= 0).
     * @param shift head-flattening offset (>= 0).
     */
    ZipfSampler(std::size_t n, double s, double shift = 0.0);

    /** Draw a rank in [0, n). Rank 0 is the most probable. */
    std::size_t operator()(Rng &rng) const;

    /**
     * Deterministic inverse-CDF lookup for u in [0, 1); used to give
     * static program locations stable hotness-distributed choices.
     */
    std::size_t sampleAt(double u) const;

    /** Probability mass of a given rank. */
    double pmf(std::size_t rank) const;

    std::size_t size() const { return cdf_.size(); }

    /** The CDF over ranks; the last entry is exactly 1. */
    const std::vector<double> &cdf() const { return cdf_; }

  private:
    std::vector<double> cdf_;
    /** guide_[b]: first rank with cdf_[rank] >= b / n, for b in 0..n. */
    std::vector<std::uint32_t> guide_;
};

/**
 * Discrete sampler over arbitrary non-negative weights.
 *
 * Used for the transaction mix and execution-mix draws.
 */
class DiscreteSampler
{
  public:
    explicit DiscreteSampler(const std::vector<double> &weights);

    std::size_t operator()(Rng &rng) const;

    /** Normalized probability of an index. */
    double probability(std::size_t index) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace jasim

#endif // JASIM_SIM_DISTRIBUTIONS_H
