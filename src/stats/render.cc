#include "stats/render.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace jasim {

namespace {

const char seriesGlyphs[] = {'*', '+', 'o', 'x', '#', '@', '%', '&'};

/** Resample a series to `width` buckets by averaging. */
std::vector<double>
resample(const TimeSeries &s, std::size_t width)
{
    std::vector<double> out(width, std::nan(""));
    if (s.empty())
        return out;
    for (std::size_t b = 0; b < width; ++b) {
        const std::size_t lo = b * s.size() / width;
        std::size_t hi = (b + 1) * s.size() / width;
        if (hi <= lo)
            hi = lo + 1;
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t i = lo; i < hi && i < s.size(); ++i) {
            sum += s.value(i);
            ++n;
        }
        if (n > 0)
            out[b] = sum / static_cast<double>(n);
    }
    return out;
}

} // namespace

void
renderChart(std::ostream &os, const std::vector<TimeSeries> &series,
            const ChartOptions &options)
{
    if (series.empty()) {
        os << "(no series)\n";
        return;
    }

    double lo = options.zero_based ? 0.0 :
        std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (const auto &s : series) {
        if (s.empty())
            continue;
        lo = std::min(lo, options.zero_based ? 0.0 : s.min());
        hi = std::max(hi, s.max());
    }
    if (!std::isfinite(lo) || !std::isfinite(hi)) {
        os << "(empty series)\n";
        return;
    }
    if (hi <= lo)
        hi = lo + 1.0;

    std::vector<std::vector<double>> sampled;
    sampled.reserve(series.size());
    for (const auto &s : series)
        sampled.push_back(resample(s, options.width));

    std::vector<std::string> grid(
        options.height, std::string(options.width, ' '));
    for (std::size_t k = 0; k < sampled.size(); ++k) {
        const char glyph = seriesGlyphs[k % sizeof(seriesGlyphs)];
        for (std::size_t col = 0; col < options.width; ++col) {
            const double v = sampled[k][col];
            if (std::isnan(v))
                continue;
            double frac = (v - lo) / (hi - lo);
            frac = std::clamp(frac, 0.0, 1.0);
            const std::size_t row = options.height - 1 -
                static_cast<std::size_t>(
                    frac * static_cast<double>(options.height - 1) + 0.5);
            grid[row][col] = glyph;
        }
    }

    if (!options.y_label.empty())
        os << options.y_label << "\n";
    std::ostringstream top, bottom;
    top << std::setprecision(4) << hi;
    bottom << std::setprecision(4) << lo;
    const std::size_t label_width =
        std::max(top.str().size(), bottom.str().size());

    for (std::size_t row = 0; row < options.height; ++row) {
        std::string label(label_width, ' ');
        if (row == 0)
            label = top.str() + std::string(
                label_width - top.str().size(), ' ');
        else if (row == options.height - 1)
            label = bottom.str() + std::string(
                label_width - bottom.str().size(), ' ');
        os << label << " |" << grid[row] << "\n";
    }
    os << std::string(label_width, ' ') << " +"
       << std::string(options.width, '-') << "\n";

    for (std::size_t k = 0; k < series.size(); ++k) {
        os << "    " << seriesGlyphs[k % sizeof(seriesGlyphs)] << " "
           << series[k].name() << "\n";
    }
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
TextTable::addRow(std::vector<std::string> row)
{
    row.resize(header_.size());
    rows_.push_back(std::move(row));
}

std::string
TextTable::num(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string
TextTable::pct(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value << "%";
    return os.str();
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << "  " << std::left << std::setw(
                static_cast<int>(widths[c])) << row[c];
        }
        os << "\n";
    };

    print_row(header_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        print_row(row);
}

void
renderBarChart(std::ostream &os,
               const std::vector<std::pair<std::string, double>> &bars,
               double lo, double hi, std::size_t width)
{
    std::size_t label_width = 0;
    for (const auto &[name, value] : bars)
        label_width = std::max(label_width, name.size());

    // Column of the zero line.
    const double span = hi - lo;
    const std::size_t zero_col = static_cast<std::size_t>(
        std::clamp((0.0 - lo) / span, 0.0, 1.0) *
        static_cast<double>(width - 1));

    for (const auto &[name, value] : bars) {
        std::string row(width, ' ');
        const std::size_t val_col = static_cast<std::size_t>(
            std::clamp((value - lo) / span, 0.0, 1.0) *
            static_cast<double>(width - 1));
        const auto [from, to] = std::minmax(zero_col, val_col);
        for (std::size_t c = from; c <= to; ++c)
            row[c] = '=';
        row[zero_col] = '|';
        std::ostringstream val;
        val << std::fixed << std::setprecision(2) << std::showpos << value;
        os << "  " << std::left
           << std::setw(static_cast<int>(label_width)) << name << " "
           << row << " " << val.str() << "\n";
    }
}

} // namespace jasim
