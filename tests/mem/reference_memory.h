/**
 * @file
 * Reference memory hierarchy: the plain walk, for differential tests.
 *
 * This is the POWER4-like hierarchy of src/mem as it runs without any
 * of its accelerators: no MRU line memos in front of the L1s, no
 * presence filters in front of the snooped L2s and L3s, no repeat
 * memo in the prefetcher, and no epochs (nothing on this path reads
 * them). Every cache lookup walks the ways of its set.
 *
 * It owns its own cache, bus and prefetcher and shares only value
 * types with src/ (CacheGeometry, MesiState, LineKind, DataSource,
 * MemAccessOutcome, HierarchyConfig and MemHotCounters), so a change
 * to the layout or the search of src/mem/cache.* is checked against
 * code it does not touch. The differential tests in fastpath_test.cc
 * replay seeded access scripts through both and require every
 * outcome, every folded counter and every cache's occupancy to match.
 */

#ifndef JASIM_TESTS_MEM_REFERENCE_MEMORY_H
#define JASIM_TESTS_MEM_REFERENCE_MEMORY_H

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/hot_counters.h"
#include "sim/types.h"

namespace jasim::ref {

/**
 * Set-associative tag store with FIFO or LRU replacement. Stamps come
 * from a tick that advances on every lookup and fill; FIFO stamps a
 * line once, when it is installed, and LRU again on every hit.
 */
class Cache
{
  public:
    Cache(const CacheGeometry &geometry, bool lru);

    /** Non-filling lookup; no replacement state changes. */
    bool probe(Addr addr) const;

    /** Coherence state of the line holding addr (Invalid if absent). */
    MesiState state(Addr addr) const;

    /** Demand lookup without allocation: true on a hit (LRU stamps). */
    bool lookup(Addr addr);

    /**
     * Install a line in fill_state, or overwrite the state and kind of
     * a resident one (its stamp unchanged). Returns the line address
     * evicted to make room, if any.
     */
    std::optional<Addr> fill(Addr addr, MesiState fill_state,
                             LineKind kind = LineKind::Data);

    /** Evict data lines before instruction lines (Section 4.3). */
    void setInstructionFriendly(bool on) { inst_friendly_ = on; }

    /** Change a resident line's state; false if absent. */
    bool setState(Addr addr, MesiState new_state);

    /** Drop a line; true if it was present. */
    bool invalidate(Addr addr);

    void flush();

    std::uint64_t validLines() const;

    Addr lineAddr(Addr addr) const { return addr / line_bytes_ * line_bytes_; }

  private:
    struct Line
    {
        Addr tag = 0;
        MesiState state = MesiState::Invalid;
        LineKind kind = LineKind::Data;
        std::uint64_t stamp = 0;
    };

    std::uint64_t line_bytes_;
    std::uint64_t sets_;
    std::uint32_t ways_;
    bool lru_;
    bool inst_friendly_ = false;
    std::uint64_t tick_ = 0;
    std::vector<Line> lines_; //!< sets_ * ways_, row-major by set

    /** Index in lines_ of way 0 of addr's set. */
    std::size_t firstWay(Addr addr) const
    {
        return static_cast<std::size_t>(addr / line_bytes_ % sets_) * ways_;
    }
    Line *find(Addr addr);
    const Line *find(Addr addr) const
    {
        return const_cast<Cache *>(this)->find(addr);
    }
};

/** Where a snoop found its line, if anywhere. */
struct Snoop
{
    bool found = false;
    std::size_t supplier = 0;
    MesiState supplier_state = MesiState::Invalid;
};

/** Snoopy MESI bus that walks every remote L2. */
class Bus
{
  public:
    explicit Bus(std::vector<Cache *> l2s) : l2s_(std::move(l2s)) {}

    /**
     * Snoop for `requester`: a read drops remote M and E copies to S,
     * a read-for-ownership invalidates every remote copy.
     */
    Snoop snoop(std::size_t requester, Addr addr, bool for_ownership);

  private:
    std::vector<Cache *> l2s_;
};

/** What the reference prefetcher decided for one observed access. */
struct Prefetch
{
    bool stream_allocated = false;
    std::vector<Addr> l1_lines;
    std::vector<Addr> l2_lines;
};

/**
 * Sequential stream prefetcher: up to eight streams, allocated when a
 * miss lands next to one of the last sixteen misses; every observe
 * scans the streams.
 */
class Prefetcher
{
  public:
    explicit Prefetcher(std::uint32_t line_bytes,
                        std::size_t max_streams = 8,
                        std::size_t candidate_entries = 16);

    Prefetch observe(Addr addr, bool was_miss);

    std::size_t activeStreams() const { return streams_.size(); }

    void reset();

  private:
    struct Stream
    {
        Addr next_line;
        std::int64_t step;
        std::uint64_t last_use;
    };

    std::uint32_t line_bytes_;
    std::size_t max_streams_;
    std::size_t candidate_entries_;
    std::vector<Addr> candidates_;
    std::size_t candidate_head_ = 0;
    std::vector<Stream> streams_;
    std::uint64_t tick_ = 0;
};

/** The full hierarchy on the plain walk. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &config);

    MemAccessOutcome load(std::size_t core, Addr addr);
    MemAccessOutcome store(std::size_t core, Addr addr);
    MemAccessOutcome fetch(std::size_t core, Addr addr);

    void flushAll();

    const MemHotCounters &hotCounters() const { return hot_; }

    Cache &l1d(std::size_t core) { return *l1d_[core]; }
    Cache &l1i(std::size_t core) { return *l1i_[core]; }
    Cache &l2(std::size_t chip) { return *l2_[chip]; }
    Cache &l3(std::size_t mcm) { return *l3_[mcm]; }

  private:
    struct LineFetch
    {
        DataSource source;
        Cycles latency;
    };

    HierarchyConfig config_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l3_;
    std::vector<Prefetcher> prefetcher_;
    std::unique_ptr<Bus> bus_;
    MemHotCounters hot_;

    std::size_t chipOf(std::size_t core) const
    {
        return core / config_.cores_per_chip;
    }
    std::size_t mcmOf(std::size_t chip) const
    {
        return chip / config_.chips_per_mcm;
    }

    LineFetch fromRemoteL2(std::size_t chip, const Snoop &snoop) const;
    LineFetch fetchLineForRead(std::size_t chip, Addr addr, LineKind kind);
    LineFetch fetchLineForWrite(std::size_t chip, Addr addr);
    LineFetch probeBeyondL2(std::size_t chip, Addr addr);
    void fillL2(std::size_t chip, Addr addr, MesiState state,
                LineKind kind = LineKind::Data);
    void applyPrefetch(std::size_t core, const Prefetch &decision,
                       MemAccessOutcome &outcome);
};

} // namespace jasim::ref

#endif // JASIM_TESTS_MEM_REFERENCE_MEMORY_H
