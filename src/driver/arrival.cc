#include "driver/arrival.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "sim/config.h"
#include "sim/distributions.h"

namespace jasim {

const char *
arrivalModeName(ArrivalMode mode)
{
    switch (mode) {
      case ArrivalMode::Fixed: return "fixed";
      case ArrivalMode::Mmpp: return "mmpp";
      case ArrivalMode::Curve: return "curve";
    }
    return "?";
}

ArrivalSpec
ArrivalSpec::parse(const std::string &raw)
{
    ArrivalSpec spec;
    const std::string whole = trim(raw);
    if (whole.empty() || whole == "fixed")
        return spec;

    const std::size_t colon = whole.find(':');
    const std::string head = trim(whole.substr(0, colon));
    const std::vector<SpecItem> items = splitSpec(
        "--arrival",
        colon == std::string::npos ? "" : whole.substr(colon + 1));

    if (head == "mmpp") {
        spec.mode = ArrivalMode::Mmpp;
        for (const SpecItem &item : items) {
            if (item.key == "base")
                spec.base_multiplier =
                    parseDouble(item.what, item.value, kAboveZero);
            else if (item.key == "burst")
                spec.burst_multiplier =
                    parseDouble(item.what, item.value, kAboveZero);
            else if (item.key == "on")
                spec.burst_mean_s =
                    parseDouble(item.what, item.value, kAboveZero, 1e9);
            else if (item.key == "off")
                spec.baseline_mean_s =
                    parseDouble(item.what, item.value, kAboveZero, 1e9);
            else
                throw specError("--arrival",
                                "unknown mmpp key \"" + item.key + "\"",
                                whole);
        }
        if (spec.burst_multiplier < spec.base_multiplier)
            throw specError("--arrival", "burst multiplier must be >= base",
                            whole);
        return spec;
    }

    if (head == "curve") {
        spec.mode = ArrivalMode::Curve;
        for (const SpecItem &item : items) {
            CurvePoint point;
            point.at = secs(parseDouble(item.what, item.key, 0.0, 1e9));
            point.multiplier = parseDouble(item.what, item.value, 0.0);
            if (!spec.points.empty() &&
                point.at <= spec.points.back().at)
                throw specError("--arrival",
                                "knot times must be strictly increasing",
                                whole);
            spec.points.push_back(point);
        }
        if (spec.points.size() < 2)
            throw specError("--arrival",
                            "curve needs at least two time=multiplier "
                            "knots",
                            whole);
        if (spec.maxMultiplier() <= 0.0)
            throw specError("--arrival",
                            "curve needs at least one multiplier > 0",
                            whole);
        return spec;
    }

    throw specError("--arrival", "unknown arrival mode \"" + head + "\"",
                    whole);
}

double
ArrivalSpec::maxMultiplier() const
{
    switch (mode) {
      case ArrivalMode::Fixed:
        return 1.0;
      case ArrivalMode::Mmpp:
        return std::max(base_multiplier, burst_multiplier);
      case ArrivalMode::Curve: {
        double best = 0.0;
        for (const CurvePoint &point : points)
            best = std::max(best, point.multiplier);
        return best;
      }
    }
    return 1.0;
}

std::string
ArrivalSpec::describe() const
{
    std::ostringstream out;
    out << arrivalModeName(mode);
    if (mode == ArrivalMode::Mmpp) {
        out << " base=" << base_multiplier
            << " burst=" << burst_multiplier
            << " on=" << burst_mean_s << "s off=" << baseline_mean_s
            << "s";
    } else if (mode == ArrivalMode::Curve) {
        out << " knots=" << points.size()
            << " peak=" << maxMultiplier();
    }
    return out.str();
}

RateModulator::RateModulator(const ArrivalSpec &spec,
                             std::uint64_t seed)
    : spec_(spec), rng_(seed), max_multiplier_(spec.maxMultiplier())
{
    assert(spec_.enabled());
    if (spec_.mode == ArrivalMode::Mmpp) {
        // The process starts in the baseline state; the first switch
        // time comes off the modulator's own stream.
        next_switch_ = secs(
            drawExponential(rng_, 1.0 / spec_.baseline_mean_s));
    }
}

double
RateModulator::multiplier(SimTime at)
{
    assert(at >= last_query_ && "modulator queries must be monotone");
    last_query_ = at;
    if (spec_.mode == ArrivalMode::Curve)
        return curveMultiplier(at);

    while (at >= next_switch_) {
        in_burst_ = !in_burst_;
        if (in_burst_)
            ++bursts_;
        const double mean_s = in_burst_ ? spec_.burst_mean_s
                                        : spec_.baseline_mean_s;
        next_switch_ +=
            std::max<SimTime>(1, secs(drawExponential(
                                     rng_, 1.0 / mean_s)));
    }
    return in_burst_ ? spec_.burst_multiplier
                     : spec_.base_multiplier;
}

double
RateModulator::curveMultiplier(SimTime at) const
{
    const std::vector<CurvePoint> &pts = spec_.points;
    if (at <= pts.front().at)
        return pts.front().multiplier;
    if (at >= pts.back().at)
        return pts.back().multiplier;
    // First knot strictly past `at`; interpolate from its predecessor.
    const auto after = std::upper_bound(
        pts.begin(), pts.end(), at,
        [](SimTime t, const CurvePoint &p) { return t < p.at; });
    const CurvePoint &hi = *after;
    const CurvePoint &lo = *(after - 1);
    const double span = static_cast<double>(hi.at - lo.at);
    const double frac = static_cast<double>(at - lo.at) / span;
    return lo.multiplier + (hi.multiplier - lo.multiplier) * frac;
}

} // namespace jasim
