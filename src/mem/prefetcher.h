/**
 * @file
 * POWER4-style sequential stream prefetcher.
 *
 * POWER4 detects streams of sequential cache-line misses (ascending or
 * descending), keeps up to eight active streams per core, and on each
 * advance prefetches the next line toward L1 and a deeper line toward
 * L2. The paper's Figure 10 correlates "L1D Prefetches", "L2
 * Prefetches" and "D$ Prefetch Stream Alloc." with CPI, so the model
 * exposes exactly those events.
 */

#ifndef JASIM_MEM_PREFETCHER_H
#define JASIM_MEM_PREFETCHER_H

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace jasim {

/**
 * Tiny fixed-capacity line list. A decision carries at most one line
 * per level (see observe()), and decisions are created on every
 * demand load, so this must not heap-allocate like std::vector did.
 */
template <std::size_t Capacity>
class LineList
{
  public:
    void push_back(Addr line)
    {
        assert(size_ < Capacity);
        lines_[size_++] = line;
    }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Addr operator[](std::size_t i) const { return lines_[i]; }
    const Addr *begin() const { return lines_.data(); }
    const Addr *end() const { return lines_.data() + size_; }

  private:
    std::array<Addr, Capacity> lines_{};
    std::size_t size_ = 0;
};

/** What a prefetcher decided in response to one observed access. */
struct PrefetchDecision
{
    bool stream_allocated = false;
    /** Lines to preload near the core (counted as L1D prefetches). */
    LineList<2> l1_lines;
    /** Lines to preload into L2 (counted as L2 prefetches). */
    LineList<2> l2_lines;

    /** True when applying the decision would do nothing. */
    bool isEmpty() const
    {
        return !stream_allocated && l1_lines.empty() &&
               l2_lines.empty();
    }
};

/** Sequential stream detector and generator. */
class StreamPrefetcher
{
  public:
    /**
     * @param line_bytes cache line size the streams advance by.
     * @param max_streams concurrent streams (8 on POWER4).
     * @param candidate_entries recent-miss table used for detection.
     */
    StreamPrefetcher(std::uint32_t line_bytes, std::size_t max_streams = 8,
                     std::size_t candidate_entries = 16);

    /**
     * Observe a demand L1D access.
     *
     * @param addr the accessed byte address.
     * @param was_miss whether the access missed L1D.
     */
    PrefetchDecision observe(Addr addr, bool was_miss)
    {
        // Exact repeat short-circuit: a hit on the same line as the
        // immediately preceding observe is a provable no-op when that
        // observe advanced no stream -- the stream set is unchanged, so
        // the scan would miss again, and the skipped tick only renames
        // (never reorders) the LRU stamps. If the previous observe
        // *did* advance a stream, a second stream could still match
        // this line, so the full scan runs.
        const Addr line = lineOf(addr);
        if (!was_miss && line == last_line_ && !last_advanced_)
            return PrefetchDecision{};
        return observeSlow(line, was_miss);
    }

    /** Active stream count (for tests). */
    std::size_t activeStreams() const { return streams_.size(); }

    void reset();

  private:
    struct Stream
    {
        Addr next_line;    //!< next line the demand stream should touch
        std::int64_t step; //!< +line_bytes or -line_bytes
        std::uint64_t last_use;
    };

    PrefetchDecision observeSlow(Addr line, bool was_miss);

    std::uint32_t line_bytes_;
    std::size_t max_streams_;
    std::size_t candidate_entries_;
    std::vector<Addr> candidates_; //!< ring of recent miss line addrs
    std::size_t candidate_head_ = 0;
    std::vector<Stream> streams_;
    std::uint64_t tick_ = 0;

    Addr last_line_ = ~Addr{0};  //!< line of the previous observe
    bool last_advanced_ = false; //!< did it advance a stream?

    Addr lineOf(Addr addr) const
    {
        return addr & ~static_cast<Addr>(line_bytes_ - 1);
    }
};

} // namespace jasim

#endif // JASIM_MEM_PREFETCHER_H
