/**
 * @file
 * Text rendering of figures and tables.
 *
 * Bench binaries print paper-style artifacts: an ASCII line chart for
 * time-series figures and aligned tables for numeric results, so a
 * reader can compare shape against the paper directly in a terminal.
 */

#ifndef JASIM_STATS_RENDER_H
#define JASIM_STATS_RENDER_H

#include <ostream>
#include <string>
#include <vector>

#include "stats/time_series.h"

namespace jasim {

/** Options for chart rendering. */
struct ChartOptions
{
    std::size_t width = 72;   //!< columns for the plot area
    std::size_t height = 16;  //!< rows for the plot area
    bool zero_based = false;  //!< force y axis to start at 0
    std::string y_label;      //!< label printed above the chart
};

/**
 * Render one or more series onto a shared-axis ASCII chart.
 *
 * Each series is drawn with its own glyph ('*', '+', 'o', ...); a
 * legend maps glyphs to series names. Series are resampled onto the
 * chart width by bucket-averaging.
 */
void renderChart(std::ostream &os, const std::vector<TimeSeries> &series,
                 const ChartOptions &options = {});

/** A simple aligned table: header row + data rows of strings. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> row);

    /** Format a double with the given precision. */
    static std::string num(double value, int precision = 3);

    /** Format a percentage (value already in percent units). */
    static std::string pct(double value, int precision = 1);

    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Horizontal bar chart for correlation figures (values in [-1, 1]). */
void renderBarChart(std::ostream &os,
                    const std::vector<std::pair<std::string, double>> &bars,
                    double lo = -1.0, double hi = 1.0,
                    std::size_t width = 50);

} // namespace jasim

#endif // JASIM_STATS_RENDER_H
