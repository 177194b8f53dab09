/**
 * @file
 * The Java heap: byte accounting and a coalescing free list.
 *
 * Models the flat (non-generational) mark-sweep-compact heap of the
 * studied JVM. Allocation takes the best-fit usable chunk; freeing
 * returns chunks and coalesces neighbours. Chunks smaller than the
 * dark-matter threshold are unusable for allocation -- this "dark
 * matter" is exactly the fragmentation the paper blames for the
 * slowly growing live-looking heap (~1 MB/min). Dark chunks are
 * resurrected when a neighbouring free makes them big enough, or
 * reclaimed wholesale by a compaction.
 *
 * Which chunk an allocation takes decides fragmentation and with it
 * every later collection, so the choice is part of the model:
 *
 *  - best fit takes the smallest usable chunk at least as large as
 *    the request;
 *  - among equal sizes it takes the chunk inserted first;
 *  - a chunk counts as inserted when a free or an allocation last
 *    created it, so the order of frees decides later ties.
 *
 * A sweep frees all of its blocks in one sorted pass (free(span))
 * and ends in exactly the state that freeing them one by one, in the
 * given order, would leave.
 */

#ifndef JASIM_JVM_HEAP_H
#define JASIM_JVM_HEAP_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "sim/types.h"

namespace jasim {

/** Heap sizing and fragmentation parameters. */
struct HeapConfig
{
    std::uint64_t size_bytes = 1024ull * 1024 * 1024;
    /** Free chunks below this size are dark matter. */
    std::uint32_t dark_threshold = 1024;
};

/**
 * Byte-granular heap with a coalescing, size-indexed free list.
 *
 * Offsets are heap-relative. allocate() and a single free() are
 * O(log chunks); a batch free of n blocks is O(n log n).
 */
class Heap
{
  public:
    /** One allocated block handed back by a batch free. */
    struct Block
    {
        std::uint64_t offset = 0;
        std::uint32_t bytes = 0;
        std::uint32_t order = 0; //!< set by free(): position in batch
    };

    /** @throws std::invalid_argument when config.size_bytes is 0. */
    explicit Heap(const HeapConfig &config);

    const HeapConfig &config() const { return config_; }

    /**
     * Allocate `bytes` (best fit among usable chunks). Returns the
     * offset, or nullopt when no usable chunk is large enough (the
     * GC trigger).
     */
    std::optional<std::uint64_t> allocate(std::uint64_t bytes);

    /**
     * Return a block (below 4 GiB) to the free list, coalescing
     * neighbours.
     */
    void free(std::uint64_t offset, std::uint64_t bytes);

    /**
     * Free every block of `blocks` with the same result as calling
     * free() on each in the given order. Sorts `blocks` by offset in
     * place and overwrites their `order`.
     */
    void free(std::span<Block> blocks);

    /** Bytes currently allocated to live + dead-but-unswept objects. */
    std::uint64_t usedBytes() const { return used_; }

    /** Total free bytes including dark matter. */
    std::uint64_t freeBytes() const { return free_; }

    /** Free bytes in chunks large enough to allocate from. */
    std::uint64_t usableBytes() const { return usable_; }

    /** Bytes trapped in chunks below the dark threshold. */
    std::uint64_t darkBytes() const { return free_ - usable_; }

    /** Number of free chunks (fragmentation measure). */
    std::size_t freeChunkCount() const { return chunks_.size(); }

    /**
     * Compact: slide live data to offset 0, leaving one free block.
     * The caller supplies total live bytes. Returns recovered dark
     * bytes.
     */
    std::uint64_t compact(std::uint64_t live_bytes);

    /** Invariant check for tests: indexes consistent, sums match. */
    bool accountingConsistent() const;

  private:
    /** A free chunk; `seq` orders chunks of equal size by insertion. */
    struct Chunk
    {
        std::uint64_t size;
        std::uint64_t seq;
    };

    using Chunks = std::map<std::uint64_t, Chunk>; //!< by offset

    /** A usable chunk in best-fit order: size, then insertion. */
    struct Fit
    {
        std::uint64_t size;
        std::uint64_t seq;
        Chunks::iterator chunk;

        bool operator<(const Fit &other) const
        {
            return size != other.size ? size < other.size
                                      : seq < other.seq;
        }
    };

    HeapConfig config_;
    Chunks chunks_;
    std::set<Fit> by_size_; //!< usable chunks only
    std::uint64_t next_seq_ = 0;
    std::uint64_t used_ = 0;
    std::uint64_t free_ = 0;
    std::uint64_t usable_ = 0;

    void insertChunk(Chunks::const_iterator hint, std::uint64_t offset,
                     std::uint64_t bytes, std::uint64_t seq);
    /** Add a chunk to the best-fit index when it is usable. */
    void indexChunk(Chunks::iterator chunk);
    Chunks::iterator eraseChunk(Chunks::iterator it);
};

} // namespace jasim

#endif // JASIM_JVM_HEAP_H
