/**
 * @file
 * Flat hot-loop counters for the memory path.
 *
 * The per-instruction pipeline increments plain (DataSource x core)
 * arrays -- one add, no map lookups, no strings -- and the totals are
 * folded into a named CounterSet only at sample boundaries (the
 * experiment runner does this once per run). The DataSource counters
 * equal those of the plain walk the tests keep as a reference
 * (tests/mem/reference_memory.h), so they participate in the
 * equivalence digests; the fast-path telemetry (MRU hits,
 * snoop-filter skips) is deliberately *not* folded, since it counts
 * work avoided rather than an outcome.
 */

#ifndef JASIM_MEM_HOT_COUNTERS_H
#define JASIM_MEM_HOT_COUNTERS_H

#include <cstdint>
#include <vector>

#include "hpm/events.h"
#include "stats/counter.h"

namespace jasim {

/** Flat per-core memory-path counters (index = DataSource value). */
class MemHotCounters
{
  public:
    static constexpr std::size_t sourceCount = 8;

    explicit MemHotCounters(std::size_t cores)
        : cores_(cores), loads_(cores * sourceCount, 0),
          ifetches_(cores * sourceCount, 0), mru_data_hits_(cores, 0),
          mru_inst_hits_(cores, 0)
    {
    }

    std::size_t cores() const { return cores_; }

    void noteLoad(std::size_t core, std::size_t source)
    {
        ++loads_[core * sourceCount + source];
    }
    void noteIfetch(std::size_t core, std::size_t source)
    {
        ++ifetches_[core * sourceCount + source];
    }
    void noteMruData(std::size_t core) { ++mru_data_hits_[core]; }
    void noteMruInst(std::size_t core) { ++mru_inst_hits_[core]; }

    /** Total loads satisfied from a source, summed over cores. */
    std::uint64_t loadsFrom(std::size_t source) const
    {
        return sumOver(loads_, source);
    }
    /** Total instruction fetches satisfied from a source. */
    std::uint64_t ifetchFrom(std::size_t source) const
    {
        return sumOver(ifetches_, source);
    }

    /** MRU-filter short-circuits (fast-path telemetry, all cores). */
    std::uint64_t mruDataHits() const { return total(mru_data_hits_); }
    std::uint64_t mruInstHits() const { return total(mru_inst_hits_); }

    /**
     * Fold the DataSource totals into a CounterSet under canonical
     * names. Called at sample boundaries only; never from the hot
     * loop. Telemetry counters are excluded (see file comment).
     */
    void foldInto(CounterSet &set) const
    {
        for (std::size_t s = 0; s < sourceCount; ++s) {
            set.add(event::memLoadFromSrc[s], loadsFrom(s));
            set.add(event::memInstFromSrc[s], ifetchFrom(s));
        }
    }

  private:
    std::size_t cores_;
    std::vector<std::uint64_t> loads_;
    std::vector<std::uint64_t> ifetches_;
    std::vector<std::uint64_t> mru_data_hits_;
    std::vector<std::uint64_t> mru_inst_hits_;

    std::uint64_t
    sumOver(const std::vector<std::uint64_t> &flat,
            std::size_t source) const
    {
        std::uint64_t sum = 0;
        for (std::size_t core = 0; core < cores_; ++core)
            sum += flat[core * sourceCount + source];
        return sum;
    }
    static std::uint64_t
    total(const std::vector<std::uint64_t> &values)
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t v : values)
            sum += v;
        return sum;
    }
};

} // namespace jasim

#endif // JASIM_MEM_HOT_COUNTERS_H
