#include "stats/correlation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace jasim {

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    assert(x.size() == y.size());
    const std::size_t n = x.size();
    if (n < 2)
        return 0.0;

    double mean_x = 0.0, mean_y = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        mean_x += x[i];
        mean_y += y[i];
    }
    mean_x /= static_cast<double>(n);
    mean_y /= static_cast<double>(n);

    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = x[i] - mean_x;
        const double dy = y[i] - mean_y;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    // Rounding can push |r| infinitesimally past 1; clamp.
    return std::clamp(sxy / std::sqrt(sxx * syy), -1.0, 1.0);
}

double
pearson(const TimeSeries &x, const TimeSeries &y)
{
    return pearson(x.values(), y.values());
}

} // namespace jasim
