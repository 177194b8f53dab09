/**
 * @file
 * Pearson correlation over sampled series.
 *
 * This is the statistical core of the paper's Section 4.3: CPI is
 * correlated against per-window hardware event rates with
 *
 *     r = sum((x - xbar)(y - ybar))
 *         / sqrt(sum((x - xbar)^2) * sum((y - ybar)^2))
 */

#ifndef JASIM_STATS_CORRELATION_H
#define JASIM_STATS_CORRELATION_H

#include <vector>

#include "stats/time_series.h"

namespace jasim {

/**
 * Pearson correlation coefficient of two equal-length vectors.
 *
 * Returns 0 when either input is degenerate (fewer than 2 samples or
 * zero variance), which mirrors how a flat counter trace would be
 * reported in practice.
 */
double pearson(const std::vector<double> &x, const std::vector<double> &y);

/** Pearson correlation of two series (values only; sizes must match). */
double pearson(const TimeSeries &x, const TimeSeries &y);

} // namespace jasim

#endif // JASIM_STATS_CORRELATION_H
