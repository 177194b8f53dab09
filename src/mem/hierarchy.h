/**
 * @file
 * The POWER4-like memory hierarchy of the study system.
 *
 * Topology (paper Section 4.2.3): four cores on two chips, one chip
 * per multi-chip module (MCM); each chip's two cores share an on-chip
 * L2 (the coherence point); each MCM carries one off-chip L3. Data can
 * therefore be sourced from:
 *
 *   L1, own L2, L2.5 (other L2 on the same MCM -- structurally absent
 *   in the study system, present in the model for larger topologies),
 *   L2.75 shared / L2.75 modified (L2 on another MCM, by MESI state),
 *   own-MCM L3, L3.5 (another MCM's L3), and memory.
 *
 * The L1D is write-through and does not allocate on store misses;
 * stores that miss write directly to the L2 (paper Section 4.2.3).
 */

#ifndef JASIM_MEM_HIERARCHY_H
#define JASIM_MEM_HIERARCHY_H

#include <cstddef>
#include <memory>
#include <vector>

#include "mem/cache.h"
#include "mem/coherence.h"
#include "mem/hot_counters.h"
#include "mem/prefetcher.h"
#include "sim/types.h"

namespace jasim {

/** Where a demand access was ultimately satisfied. */
enum class DataSource : std::uint8_t
{
    L1,
    L2,
    L2_5,
    L2_75Shared,
    L2_75Modified,
    L3,
    L3_5,
    Memory,
};

/** Printable name of a data source. */
const char *dataSourceName(DataSource source);

/** Structural and latency parameters of the hierarchy. */
struct HierarchyConfig
{
    std::size_t cores = 4;
    std::size_t cores_per_chip = 2;
    std::size_t chips_per_mcm = 1;

    CacheGeometry l1i{64 * 1024, 128, 1};
    CacheGeometry l1d{32 * 1024, 128, 2};
    CacheGeometry l2{1536 * 1024, 128, 12};
    CacheGeometry l3{32 * 1024 * 1024, 512, 8};

    Cycles lat_l1 = 1;
    Cycles lat_l2 = 12;
    Cycles lat_l2_5 = 80;
    Cycles lat_l2_75_shared = 180;
    Cycles lat_l2_75_modified = 280;
    Cycles lat_l3 = 100;
    Cycles lat_l3_5 = 260;
    Cycles lat_memory = 350;

    bool prefetch_enabled = true;

    /** Section 4.3 experiment: L2 prefers evicting data over
     *  instruction lines. */
    bool l2_instruction_friendly = false;

    std::size_t chips() const { return cores / cores_per_chip; }
    std::size_t mcms() const { return chips() / chips_per_mcm; }
};

/** Outcome of one demand access through the hierarchy. */
struct MemAccessOutcome
{
    bool l1_hit = false;
    DataSource source = DataSource::L1;
    Cycles latency = 0;
    bool stream_allocated = false;
    std::uint32_t l1_prefetches = 0;
    std::uint32_t l2_prefetches = 0;
};

/**
 * The full cache hierarchy; owns every cache and the coherence bus.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &config);

    const HierarchyConfig &config() const { return config_; }

    /** Demand data load by a core. */
    MemAccessOutcome load(std::size_t core, Addr addr)
    {
        // Inline MRU short-circuit: same line, cache contents
        // untouched since the memo was armed, so this is the same L1
        // hit the full walk would report (L1D is FIFO: a hit mutates
        // nothing). The full walk lives in hierarchy.cc.
        const SetAssocCache &l1d = *l1d_[core];
        if (mru_l1d_[core].matches(l1d.lineAddr(addr), l1d)) {
            hot_.noteMruData(core);
            hot_.noteLoad(core, 0); // DataSource::L1
            MemAccessOutcome outcome;
            outcome.l1_hit = true;
            outcome.latency = config_.lat_l1;
            // The prefetcher must still observe the access: its
            // stream state is not idempotent under repeats.
            if (config_.prefetch_enabled) {
                const PrefetchDecision decision =
                    prefetcher_[core]->observe(addr, false);
                if (!decision.isEmpty())
                    applyPrefetch(core, decision, outcome);
            }
            return outcome;
        }
        return loadSlow(core, addr);
    }

    /** Demand data store by a core (write-through, no L1 allocate). */
    MemAccessOutcome store(std::size_t core, Addr addr);

    /** Instruction fetch by a core. */
    MemAccessOutcome fetch(std::size_t core, Addr addr)
    {
        // Repeat fetch from the MRU line: skipping the walk also
        // skips an LRU stamp refresh, but the memoized line already
        // carries the newest stamp in its set (nothing else in this
        // private cache was touched since), so victim choices cannot
        // change.
        const SetAssocCache &l1i = *l1i_[core];
        if (mru_l1i_[core].matches(l1i.lineAddr(addr), l1i)) {
            hot_.noteMruInst(core);
            hot_.noteIfetch(core, 0); // DataSource::L1
            MemAccessOutcome outcome;
            outcome.l1_hit = true;
            outcome.latency = config_.lat_l1;
            return outcome;
        }
        return fetchSlow(core, addr);
    }

    /** Topology helpers. */
    std::size_t chipOf(std::size_t core) const
    {
        return core / config_.cores_per_chip;
    }
    std::size_t mcmOf(std::size_t chip) const
    {
        return chip / config_.chips_per_mcm;
    }

    /** Direct cache access for tests and invariants. */
    SetAssocCache &l1d(std::size_t core) { return *l1d_[core]; }
    SetAssocCache &l1i(std::size_t core) { return *l1i_[core]; }
    SetAssocCache &l2(std::size_t chip) { return *l2_[chip]; }
    SetAssocCache &l3(std::size_t mcm) { return *l3_[mcm]; }

    void flushAll();

    /** Flat hot-loop counters. */
    const MemHotCounters &hotCounters() const { return hot_; }

    /** Remote probes skipped by the coherence presence filter. */
    std::uint64_t snoopFilterSkips() const { return bus_->filterSkips(); }

  private:
    HierarchyConfig config_;
    std::vector<std::unique_ptr<SetAssocCache>> l1i_;
    std::vector<std::unique_ptr<SetAssocCache>> l1d_;
    std::vector<std::unique_ptr<SetAssocCache>> l2_;
    std::vector<std::unique_ptr<SetAssocCache>> l3_;
    std::vector<std::unique_ptr<StreamPrefetcher>> prefetcher_;
    std::unique_ptr<MesiBus> bus_;
    MemHotCounters hot_;

    /**
     * One MRU memo: the last line a cache answered a hit for, plus the
     * cache's epoch at that moment. A repeat access to the same line
     * while the epoch is unchanged is provably still a hit with the
     * same state, so the set walk (and, for LRU caches, the redundant
     * stamp refresh of an already-newest line) can be skipped without
     * changing any outcome, counter, or future replacement decision.
     */
    struct MruRef
    {
        Addr line = 0;
        std::uint64_t epoch = 0;
        bool valid = false;

        bool matches(Addr l, const SetAssocCache &cache) const
        {
            return valid && line == l && epoch == cache.epoch();
        }
        void arm(Addr l, const SetAssocCache &cache)
        {
            line = l;
            epoch = cache.epoch();
            valid = true;
        }
    };
    std::vector<MruRef> mru_l1d_;
    std::vector<MruRef> mru_l1i_;

    struct LineFetch
    {
        DataSource source;
        Cycles latency;
    };

    /** Fetch a line into `chip`'s L2 for reading; classifies source. */
    LineFetch fetchLineForRead(std::size_t chip, Addr addr,
                               LineKind kind = LineKind::Data);

    /** Acquire ownership of a line in `chip`'s L2 for a store. */
    LineFetch fetchLineForWrite(std::size_t chip, Addr addr);

    /** Probe all L3s starting with the requester's MCM. */
    LineFetch probeBeyondL2(std::size_t chip, Addr addr);

    /** Out-of-line halves of load()/fetch() (MRU memo missed). */
    MemAccessOutcome loadSlow(std::size_t core, Addr addr);
    MemAccessOutcome fetchSlow(std::size_t core, Addr addr);

    /** Install a line in a chip's L2 and maintain L1 inclusion. */
    void fillL2(std::size_t chip, Addr addr, MesiState state,
                LineKind kind = LineKind::Data);

    /** Back-invalidate a victim line from the chip's L1 caches. */
    void backInvalidate(std::size_t chip, Addr line_addr);

    /** Apply prefetch fills and account them into `outcome`. */
    void applyPrefetch(std::size_t core, const PrefetchDecision &decision,
                       MemAccessOutcome &outcome);
};

} // namespace jasim

#endif // JASIM_MEM_HIERARCHY_H
