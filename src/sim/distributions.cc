#include "sim/distributions.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace jasim {

double
drawExponential(Rng &rng, double rate)
{
    assert(rate > 0.0);
    // 1 - uniform() is in (0, 1], so the log is finite.
    return -std::log(1.0 - rng.uniform()) / rate;
}

double
drawNormal(Rng &rng, double mean, double stddev)
{
    const double u1 = 1.0 - rng.uniform();
    const double u2 = rng.uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.28318530717958648 * u2);
    return mean + stddev * z;
}

double
drawLogNormal(Rng &rng, double mu, double sigma)
{
    return std::exp(drawNormal(rng, mu, sigma));
}

ZipfSampler::ZipfSampler(std::size_t n, double s, double shift)
{
    assert(n > 0);
    assert(shift >= 0.0);
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t rank = 0; rank < n; ++rank) {
        total +=
            1.0 / std::pow(static_cast<double>(rank + 1) + shift, s);
        cdf_[rank] = total;
    }
    for (auto &c : cdf_)
        c /= total;
    cdf_.back() = 1.0;

    assert(n < std::numeric_limits<std::uint32_t>::max());
    guide_.resize(n + 1);
    std::size_t rank = 0;
    for (std::size_t b = 0; b <= n; ++b) {
        const double edge = static_cast<double>(b) / static_cast<double>(n);
        while (rank < n && cdf_[rank] < edge)
            ++rank;
        guide_[b] = static_cast<std::uint32_t>(rank);
    }
}

std::size_t
ZipfSampler::operator()(Rng &rng) const
{
    return sampleAt(rng.uniform());
}

std::size_t
ZipfSampler::sampleAt(double u) const
{
    const auto first = cdf_.begin();
    const double scaled = u * static_cast<double>(cdf_.size());
    if (scaled >= 0.0 && scaled < static_cast<double>(cdf_.size())) {
        const auto b = static_cast<std::size_t>(scaled);
        const auto it = std::lower_bound(first + guide_[b],
                                         first + guide_[b + 1], u);
        if ((it == first || *(it - 1) < u) &&
            (it == cdf_.end() || u <= *it))
            return it == cdf_.end() ? cdf_.size() - 1
                                    : static_cast<std::size_t>(it - first);
    }
    const auto it = std::lower_bound(first, cdf_.end(), u);
    if (it == cdf_.end())
        return cdf_.size() - 1;
    return static_cast<std::size_t>(it - first);
}

double
ZipfSampler::pmf(std::size_t rank) const
{
    assert(rank < cdf_.size());
    if (rank == 0)
        return cdf_[0];
    return cdf_[rank] - cdf_[rank - 1];
}

DiscreteSampler::DiscreteSampler(const std::vector<double> &weights)
{
    assert(!weights.empty());
    cdf_.resize(weights.size());
    double total = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        assert(weights[i] >= 0.0);
        total += weights[i];
        cdf_[i] = total;
    }
    assert(total > 0.0);
    for (auto &c : cdf_)
        c /= total;
    cdf_.back() = 1.0;
}

std::size_t
DiscreteSampler::operator()(Rng &rng) const
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
}

double
DiscreteSampler::probability(std::size_t index) const
{
    assert(index < cdf_.size());
    if (index == 0)
        return cdf_[0];
    return cdf_[index] - cdf_[index - 1];
}

} // namespace jasim
