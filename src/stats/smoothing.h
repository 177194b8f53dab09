/**
 * @file
 * Series smoothing used when rendering figures.
 *
 * The paper's Figure 7 is explicitly Bezier-smoothed; we provide the
 * same (a global Bezier curve evaluated with De Casteljau over the
 * sample points, as gnuplot's `smooth bezier` does).
 */

#ifndef JASIM_STATS_SMOOTHING_H
#define JASIM_STATS_SMOOTHING_H

#include <cstddef>
#include <vector>

#include "stats/time_series.h"

namespace jasim {

/**
 * Bezier smoothing: treat samples as control points of one Bezier
 * curve and evaluate `output_points` points along it.
 *
 * For large n the Bernstein weights are computed in log space to stay
 * finite. This reproduces the visual character described in the paper:
 * sharp short-lived spikes (GC windows) are flattened into small bumps.
 */
std::vector<double> bezierSmooth(const std::vector<double> &values,
                                 std::size_t output_points);

/** Convenience: smooth a series, preserving approximate timestamps. */
TimeSeries bezierSmooth(const TimeSeries &series, std::size_t output_points);

} // namespace jasim

#endif // JASIM_STATS_SMOOTHING_H
