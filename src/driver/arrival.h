/**
 * @file
 * Open-loop arrival processes beyond fixed-rate Poisson.
 *
 * The paper's driver runs closed-loop at a fixed injection rate; real
 * web traffic is bursty and diurnal. This module adds two seeded,
 * fully deterministic rate-modulation modes the driver thins against:
 *
 *  - `mmpp:` a two-state Markov-modulated Poisson process: the rate
 *    multiplier flips between a baseline and a burst level, with
 *    exponentially distributed sojourns in each state drawn from the
 *    modulator's own forked RNG stream.
 *  - `curve:` a piecewise-linear multiplier curve (diurnal or
 *    recorded load shapes), interpolated between (time, multiplier)
 *    knots and clamped to the end values outside them.
 *
 * The driver samples candidate arrivals at rate x maxMultiplier() and
 * accepts each with probability m(t)/maxMultiplier() (Lewis-Shedler
 * thinning), so a single modulator shapes every traffic class
 * coherently — bursts hit Browse and CreateWorkOrder alike. The
 * default `fixed` mode builds no modulator and draws nothing extra,
 * keeping default runs byte-identical.
 */

#ifndef JASIM_DRIVER_ARRIVAL_H
#define JASIM_DRIVER_ARRIVAL_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace jasim {

/** Arrival-process family. */
enum class ArrivalMode : std::uint8_t
{
    Fixed, //!< legacy fixed-rate Poisson (no modulator)
    Mmpp,  //!< two-state Markov-modulated burst train
    Curve, //!< piecewise-linear rate curve
};

const char *arrivalModeName(ArrivalMode mode);

/** One knot of a `curve:` spec. */
struct CurvePoint
{
    SimTime at = 0;          //!< knot time
    double multiplier = 1.0; //!< rate multiplier at that time
};

/**
 * Parsed `--arrival` spec. Grammar (validated like `--faults`):
 *
 *   ""                                   fixed (the default)
 *   fixed                                fixed
 *   mmpp:burst=4[,base=1][,on=6][,off=18]
 *       base/burst = rate multipliers in the two states (> 0)
 *       on/off     = mean sojourn seconds in burst / baseline state
 *                    (> 0, at most 1e9)
 *   curve:0=1,300=4,600=1
 *       time_seconds=multiplier knots, strictly increasing times
 *       (0 to 1e9 s), multipliers >= 0
 *
 * Malformed or out-of-range specs throw std::invalid_argument naming
 * the offending token (sim/config.h reads them).
 */
struct ArrivalSpec
{
    ArrivalMode mode = ArrivalMode::Fixed;

    // mmpp
    double base_multiplier = 1.0;
    double burst_multiplier = 4.0;
    double burst_mean_s = 6.0;    //!< mean sojourn in the burst state
    double baseline_mean_s = 18.0; //!< mean sojourn in the baseline

    // curve
    std::vector<CurvePoint> points;

    static ArrivalSpec parse(const std::string &spec);

    bool enabled() const { return mode != ArrivalMode::Fixed; }

    /** Peak multiplier the thinning driver over-samples at. */
    double maxMultiplier() const;

    /** Human-readable one-liner for banners and logs. */
    std::string describe() const;
};

/**
 * The time-varying rate multiplier m(t) behind a non-fixed spec.
 *
 * MMPP state advances lazily: multiplier(at) extends the seeded
 * switch timeline up to `at`, so queries must be monotone
 * non-decreasing in time — which event-queue callers are by
 * construction. Curve mode is stateless interpolation.
 */
class RateModulator
{
  public:
    RateModulator(const ArrivalSpec &spec, std::uint64_t seed);

    /** m(at); monotone queries only (asserted). */
    double multiplier(SimTime at);

    double maxMultiplier() const { return max_multiplier_; }

    /** Burst-state entries so far (MMPP; 0 for curves). */
    std::uint64_t burstCount() const { return bursts_; }

    const ArrivalSpec &spec() const { return spec_; }

  private:
    ArrivalSpec spec_;
    Rng rng_;
    double max_multiplier_;
    bool in_burst_ = false;
    SimTime next_switch_ = 0;
    SimTime last_query_ = 0;
    std::uint64_t bursts_ = 0;

    double curveMultiplier(SimTime at) const;
};

} // namespace jasim

#endif // JASIM_DRIVER_ARRIVAL_H
