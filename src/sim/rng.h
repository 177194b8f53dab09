/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic subsystem in jasim draws from its own Rng instance
 * seeded from a run-level master seed, so runs are reproducible and
 * subsystems are statistically independent. The generator is
 * xoshiro256** (Blackman & Vigna), seeded via splitmix64.
 */

#ifndef JASIM_SIM_RNG_H
#define JASIM_SIM_RNG_H

#include <array>
#include <bit>
#include <cstdint>

namespace jasim {

/** splitmix64 step; used for seeding and cheap hashing. */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies the essentials of UniformRandomBitGenerator so it can be
 * used with standard distributions if ever needed, though jasim's own
 * distributions (sim/distributions.h) are preferred for cross-platform
 * determinism. The per-draw members are defined inline: the synthetic
 * stream and the heap model draw several times per instruction or
 * cell, from other translation units.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Derive an independent child generator, e.g.\ per subsystem. */
    Rng fork(std::uint64_t stream_id);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit draw. */
    result_type
    operator()()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        // Multiply-shift bounded draw (Lemire); bias is negligible for
        // the n used in simulation and the method is branch-free.
        const unsigned __int128 m =
            static_cast<unsigned __int128>((*this)()) * n;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

  private:
    std::array<std::uint64_t, 4> s_;
};

} // namespace jasim

#endif // JASIM_SIM_RNG_H
