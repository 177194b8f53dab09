/**
 * @file
 * Percentile tracking for response-time SLAs.
 *
 * SPECjAppServer2004 passes a run only if 90% of web requests finish
 * under 2 s and 90% of RMI requests under 5 s; the driver module uses
 * this tracker to adjudicate runs.
 */

#ifndef JASIM_STATS_PERCENTILE_H
#define JASIM_STATS_PERCENTILE_H

#include <cstddef>
#include <vector>

namespace jasim {

/**
 * Exact percentile tracker over accumulated samples.
 *
 * Keeps all samples; fine for the sample counts a benchmark run
 * produces (O(10^5)). Percentile uses the nearest-rank method.
 */
class PercentileTracker
{
  public:
    void
    add(double sample)
    {
        samples_.push_back(sample);
        sorted_ = false;
    }

    std::size_t count() const { return samples_.size(); }

    /**
     * Nearest-rank percentile, p in (0, 100]. Returns 0 when empty.
     * Sorting is deferred and cached until the next add().
     */
    double percentile(double p) const;

    /**
     * Fraction of samples <= bound (SLA attainment for a latency
     * bound). Returns 1.0 when empty.
     */
    double fractionAtOrBelow(double bound) const;

    double mean() const;
    double max() const;

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;

    void ensureSorted() const;
};

} // namespace jasim

#endif // JASIM_STATS_PERCENTILE_H
