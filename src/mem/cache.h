/**
 * @file
 * Generic set-associative cache model.
 *
 * One class serves every level of the hierarchy; POWER4-specific
 * behaviour (write-through no-store-allocate L1D, FIFO replacement,
 * MESI states at the L2 coherence point) is configured per instance
 * by mem/hierarchy.cc.
 *
 * Two facilities support the memory-path fast path (mem/hierarchy.cc):
 *
 *  - an epoch counter, bumped on every install, eviction, state change,
 *    invalidation and flush (never on a plain hit), so an MRU filter in
 *    front of the cache can prove "the line I answered for last time is
 *    untouched" with one comparison;
 *  - an optional counting presence filter (a per-bucket resident-line
 *    count over a hash of the tag) giving exact "definitely absent"
 *    answers, so coherence snoops can skip caches that provably hold
 *    nothing. Counts are maintained on install/evict/invalidate, so
 *    there are no false negatives and behaviour is bit-identical.
 */

#ifndef JASIM_MEM_CACHE_H
#define JASIM_MEM_CACHE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.h"

namespace jasim {

/** MESI coherence states. Lines in non-coherent caches stay Exclusive. */
enum class MesiState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

/** Replacement policies supported by SetAssocCache. */
enum class ReplacementPolicy : std::uint8_t { FIFO, LRU };

/** What a cached line holds (for instruction-aware replacement). */
enum class LineKind : std::uint8_t { Data, Instruction };

/** Static shape of a cache. */
struct CacheGeometry
{
    std::uint64_t size_bytes;
    std::uint32_t line_bytes;
    std::uint32_t ways;

    std::uint64_t sets() const
    {
        return size_bytes / (static_cast<std::uint64_t>(line_bytes) * ways);
    }
};

/** Result of a filling access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Address of the line evicted to make room, if any. */
    std::optional<Addr> victim;
    /** Coherence state the victim held (meaningful when victim set). */
    MesiState victim_state = MesiState::Invalid;
};

/**
 * A set-associative cache with pluggable replacement.
 *
 * The cache tracks tags and MESI states only (no data), which is all
 * the characterization study needs. Addresses are byte addresses; the
 * cache computes line/set internally.
 */
class SetAssocCache
{
  public:
    SetAssocCache(const CacheGeometry &geometry, ReplacementPolicy policy);

    const CacheGeometry &geometry() const { return geometry_; }

    /** Non-filling lookup. */
    bool probe(Addr addr) const;

    /** Coherence state of the line holding addr (Invalid if absent). */
    MesiState state(Addr addr) const;

    /**
     * Filling access: on a miss (when allocate is true), install the
     * line in fill_state, evicting per policy.
     *
     * On a hit the line's replacement metadata is updated (LRU only;
     * FIFO ignores hits by definition) and the state is left unchanged.
     */
    CacheAccessResult access(Addr addr, bool allocate,
                             MesiState fill_state = MesiState::Exclusive,
                             LineKind kind = LineKind::Data);

    /**
     * Install a line without a demand access (prefetch/inclusion fill).
     * Returns the victim if one was evicted.
     */
    CacheAccessResult fill(Addr addr, MesiState fill_state,
                           LineKind kind = LineKind::Data);

    /**
     * Prefer evicting data lines over instruction lines (the paper's
     * Section 4.3 suggestion for an instruction-friendly L2).
     */
    void setInstructionFriendly(bool on) { inst_friendly_ = on; }

    /** Upgrade/downgrade the state of a resident line; false if absent. */
    bool setState(Addr addr, MesiState new_state);

    /** Remove a line; returns true if it was present. */
    bool invalidate(Addr addr);

    /** Drop every line (e.g. between experiment phases). */
    void flush();

    /** Number of valid lines (for inclusion checks in tests). */
    std::uint64_t validLines() const;

    std::uint32_t lineBytes() const { return geometry_.line_bytes; }

    /** Line-aligned address for addr. */
    Addr lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(geometry_.line_bytes - 1);
    }

    /**
     * Contents-change epoch: advances whenever a line is installed,
     * evicted, invalidated, changes state, or the cache is flushed.
     * Plain hits (including LRU refreshes) leave it untouched, so
     * `epoch() == snapshot` proves a previously-hit line still hits
     * with the same state.
     */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Turn on the counting presence filter with `buckets` counters
     * (rounded up to a power of two). Must be called while the cache
     * is empty; intended for the snooped levels (L2/L3).
     */
    void enablePresenceFilter(std::size_t buckets);

    /**
     * Exact-negative membership summary: false means the line is
     * definitely absent; true means "maybe present, probe the ways".
     * Always true when the filter is disabled.
     */
    bool mayContain(Addr addr) const
    {
        return presence_.empty() ||
               presence_[presenceBucket(tagOf(addr))] != 0;
    }

  private:
    struct Line
    {
        Addr tag = 0;
        MesiState state = MesiState::Invalid;
        LineKind kind = LineKind::Data;
        std::uint64_t stamp = 0; //!< insertion (FIFO) or last-use (LRU)
    };

    CacheGeometry geometry_;
    ReplacementPolicy policy_;
    bool inst_friendly_ = false;
    std::uint64_t sets_;
    /** Cached shape: line_bytes == 1 << line_shift_, set index mask. */
    std::uint32_t line_shift_;
    std::uint64_t set_mask_;
    std::vector<Line> lines_; //!< sets_ * ways, row-major by set
    /**
     * Per-set last-hit way, probed first by findLine. Purely a search
     * accelerator: tags are unique within a set and the scan mutates
     * nothing, so probe order cannot change any outcome or stamp.
     */
    mutable std::vector<std::uint16_t> way_hint_;
    std::uint64_t tick_ = 0;
    std::uint64_t epoch_ = 0;
    std::vector<std::uint16_t> presence_;
    std::uint64_t presence_mask_ = 0;

    std::uint64_t setIndex(Addr addr) const
    {
        return (addr >> line_shift_) & set_mask_;
    }
    Addr tagOf(Addr addr) const { return addr >> line_shift_; }
    const Line *findLine(Addr addr) const;
    Line *findLine(Addr addr)
    {
        return const_cast<Line *>(
            static_cast<const SetAssocCache *>(this)->findLine(addr));
    }
    std::size_t victimWay(std::uint64_t set);

    std::size_t presenceBucket(Addr tag) const
    {
        return static_cast<std::size_t>(
            (tag * 0x9e3779b97f4a7c15ull >> 32) & presence_mask_);
    }
    void presenceAdd(Addr tag)
    {
        if (!presence_.empty())
            ++presence_[presenceBucket(tag)];
    }
    void presenceRemove(Addr tag)
    {
        if (!presence_.empty())
            --presence_[presenceBucket(tag)];
    }
    /** Shared install path for access(allocate) and fill(). */
    void installLine(Addr addr, MesiState fill_state, LineKind kind,
                     CacheAccessResult &result);
};

} // namespace jasim

#endif // JASIM_MEM_CACHE_H
