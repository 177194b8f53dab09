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
 *
 * The indexes are built for the collector's traffic, where most
 * requests are carved from the front of one large chunk:
 *
 *  - free chunks are found by their end offset, which carving from
 *    the front leaves unchanged, so an allocation touches the offset
 *    map only when it uses a chunk up;
 *  - usable chunks of up to maxBinnedBytes sit in exact-size bins,
 *    each in insertion order, and a three-level bitmap finds the
 *    smallest non-empty bin that fits;
 *  - larger usable chunks sit in a set ordered by (size, insertion);
 *    the smallest one serves most requests, and carving it keeps it
 *    first, so it is re-keyed in place.
 */

#ifndef JASIM_JVM_HEAP_H
#define JASIM_JVM_HEAP_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

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
 * Offsets are heap-relative. allocate() of up to maxBinnedBytes is
 * O(1) unless it uses a chunk up or takes one out of the large set
 * (O(log chunks)); a batch free of n blocks is O(n) plus O(log
 * chunks) per free run.
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

    /**
     * Usable chunks up to this size are binned by exact size. It is
     * the largest cell the collector draws, so larger requests (and
     * the set search they take) occur only in tests.
     */
    static constexpr std::uint32_t maxBinnedBytes = 65536;

    /** @throws std::invalid_argument when config.size_bytes is 0. */
    explicit Heap(const HeapConfig &config);

    const HeapConfig &config() const { return config_; }

    /**
     * Allocate `bytes` (best fit among usable chunks). Returns the
     * offset, or nullopt when no usable chunk is large enough (the
     * GC trigger).
     * @throws std::invalid_argument when `bytes` is 0.
     */
    std::optional<std::uint64_t> allocate(std::uint64_t bytes);

    /**
     * Return a block (below 4 GiB) to the free list, coalescing
     * neighbours.
     * @throws std::invalid_argument, leaving the heap unchanged, when
     *         the block is empty, overlaps free space (a double free)
     *         or runs past the end of the heap.
     */
    void free(std::uint64_t offset, std::uint64_t bytes);

    /**
     * Free every block of `blocks` with the same result as calling
     * free() on each in the given order. Reorders `blocks` and
     * overwrites their `order`.
     * @throws std::invalid_argument as free() does; the blocks below
     *         the offending one are then free, the others are not.
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
    std::size_t freeChunkCount() const { return ends_.size(); }

    /**
     * The allocation credit: the sum, over the usable chunks above
     * maxBinnedBytes, of their size minus a floor of
     * max(maxBinnedBytes, dark_threshold). An allocation lowers it by
     * at most its size, because a remainder that leaves the large set,
     * binned or dark, is at most the floor. While it is positive, some
     * chunk fits any request of up to maxBinnedBytes. O(1).
     */
    std::uint64_t credit() const
    {
        const std::uint64_t floor = std::max<std::uint64_t>(
            maxBinnedBytes, config_.dark_threshold);
        return large_bytes_ - large_.size() * floor;
    }

    /**
     * Compact: slide live data to offset 0, leaving one free block.
     * The caller supplies total live bytes. Returns recovered dark
     * bytes.
     * @throws std::invalid_argument when live_bytes exceeds the heap.
     */
    std::uint64_t compact(std::uint64_t live_bytes);

    /** Invariant check for tests: indexes consistent, sums match. */
    bool accountingConsistent() const;

  private:
    static constexpr std::uint32_t none = 0xffff'ffff;
    static constexpr std::size_t binWords = maxBinnedBytes / 64 + 1;
    static constexpr std::size_t binWordGroups = binWords / 64 + 1;

    /**
     * A free chunk; `seq` orders chunks of equal size by insertion.
     * A binned chunk links to its bin neighbours (a circular list); a
     * released record links to the next released one.
     */
    struct Chunk
    {
        std::uint64_t offset;
        std::uint64_t size;
        std::uint64_t seq;
        std::uint32_t prev;
        std::uint32_t next;
    };

    /**
     * A large usable chunk in best-fit order: size, then insertion.
     * The key is mutable so that allocate() can re-key the first entry
     * where it stands when carving keeps it first.
     */
    struct Fit
    {
        mutable std::uint64_t size;
        mutable std::uint64_t seq;
        std::uint32_t chunk;

        bool operator<(const Fit &other) const
        {
            return size != other.size ? size < other.size
                                      : seq < other.seq;
        }
    };

    using Ends = std::map<std::uint64_t, std::uint32_t>;

    HeapConfig config_;
    std::vector<Chunk> chunks_; //!< records, indexed by number
    std::uint32_t released_ = none; //!< first reusable record
    Ends ends_;                 //!< free chunks by end offset
    std::vector<std::uint32_t> bins_; //!< first chunk of each size
    /** Bit b: bin b is non-empty. */
    std::array<std::uint64_t, binWords> bin_bits_{};
    /** Bit w: bin_bits_[w] is non-zero. */
    std::array<std::uint64_t, binWordGroups> word_bits_{};
    /** Bit g: word_bits_[g] is non-zero. */
    std::uint64_t group_bits_ = 0;
    std::set<Fit> large_; //!< usable chunks above maxBinnedBytes
    std::uint64_t large_bytes_ = 0; //!< their summed size
    std::uint64_t next_seq_ = 0;
    std::uint64_t used_ = 0;
    std::uint64_t free_ = 0;
    std::uint64_t usable_ = 0;

    std::uint32_t newRecord();
    void releaseRecord(std::uint32_t chunk);
    /** Add a chunk to the bins or the large set when it is usable. */
    void indexChunk(std::uint32_t chunk);
    void unindexChunk(std::uint32_t chunk);
    void pushBin(std::uint32_t chunk);
    void unlinkBin(std::uint32_t chunk);
    /** The smallest non-empty bin at or above `bytes`, or none. */
    std::uint32_t nextBin(std::uint64_t bytes) const;
    /** Free the sorted blocks, recording each run by its last block. */
    void freeRuns(std::span<const Block> sorted, std::uint64_t base_seq,
                  std::vector<std::uint32_t> &runs);
    [[noreturn]] void rejectBlock(const Block &block) const;
};

} // namespace jasim

#endif // JASIM_JVM_HEAP_H
