#include "stats/smoothing.h"

#include <cassert>
#include <cmath>

namespace jasim {

namespace {

/** log(n choose k) via lgamma; stable for large n. */
double
logChoose(std::size_t n, std::size_t k)
{
    return std::lgamma(static_cast<double>(n + 1)) -
           std::lgamma(static_cast<double>(k + 1)) -
           std::lgamma(static_cast<double>(n - k + 1));
}

} // namespace

std::vector<double>
bezierSmooth(const std::vector<double> &values, std::size_t output_points)
{
    assert(output_points >= 2);
    if (values.size() < 3)
        return values;

    const std::size_t degree = values.size() - 1;
    std::vector<double> out(output_points);
    for (std::size_t p = 0; p < output_points; ++p) {
        const double t =
            static_cast<double>(p) / static_cast<double>(output_points - 1);
        if (t <= 0.0) {
            out[p] = values.front();
            continue;
        }
        if (t >= 1.0) {
            out[p] = values.back();
            continue;
        }
        const double log_t = std::log(t);
        const double log_1mt = std::log1p(-t);
        double acc = 0.0;
        for (std::size_t k = 0; k <= degree; ++k) {
            const double log_w = logChoose(degree, k) +
                static_cast<double>(k) * log_t +
                static_cast<double>(degree - k) * log_1mt;
            acc += values[k] * std::exp(log_w);
        }
        out[p] = acc;
    }
    return out;
}

TimeSeries
bezierSmooth(const TimeSeries &series, std::size_t output_points)
{
    TimeSeries out(series.name() + " (bezier)");
    if (series.empty())
        return out;
    const auto smoothed = bezierSmooth(series.values(), output_points);
    const SimTime t0 = series.time(0);
    const SimTime t1 = series.time(series.size() - 1);
    for (std::size_t p = 0; p < smoothed.size(); ++p) {
        const double frac = smoothed.size() == 1
            ? 0.0
            : static_cast<double>(p) /
              static_cast<double>(smoothed.size() - 1);
        out.append(t0 + static_cast<SimTime>(frac *
                                             static_cast<double>(t1 - t0)),
                   smoothed[p]);
    }
    return out;
}

} // namespace jasim
