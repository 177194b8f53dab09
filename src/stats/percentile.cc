#include "stats/percentile.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace jasim {

void
PercentileTracker::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
PercentileTracker::percentile(double p) const
{
    assert(p > 0.0 && p <= 100.0);
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const double n = static_cast<double>(samples_.size());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0)
        rank = 1;
    return samples_[rank - 1];
}

double
PercentileTracker::fractionAtOrBelow(double bound) const
{
    if (samples_.empty())
        return 1.0;
    ensureSorted();
    const auto past = std::upper_bound(samples_.begin(),
                                       samples_.end(), bound);
    return static_cast<double>(past - samples_.begin()) /
        static_cast<double>(samples_.size());
}

double
PercentileTracker::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples_)
        sum += s;
    return sum / static_cast<double>(samples_.size());
}

double
PercentileTracker::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

} // namespace jasim
