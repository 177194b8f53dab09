/**
 * @file
 * The map-based heap that jasim::Heap must match, kept for tests.
 *
 * This is the original free list: a `std::map` of free chunks by
 * offset plus a `std::multimap` of usable chunks by size, updated on
 * every allocate and every single free. It is slow but obviously
 * right, so the differential test drives it and jasim::Heap with the
 * same calls and requires identical answers. Best fit takes the
 * smallest usable chunk at least as large as the request; among
 * equal sizes it takes the one inserted first, because
 * `std::multimap` inserts equal keys at the end of their range.
 */

#ifndef JASIM_TESTS_JVM_REFERENCE_HEAP_H
#define JASIM_TESTS_JVM_REFERENCE_HEAP_H

#include <cstdint>
#include <map>
#include <optional>

#include "jvm/heap.h"

namespace jasim {

/** Byte-granular heap with a coalescing, size-indexed free list. */
class ReferenceHeap
{
  public:
    explicit ReferenceHeap(const HeapConfig &config);

    const HeapConfig &config() const { return config_; }

    /**
     * Allocate `bytes` (best fit among usable chunks). Returns the
     * offset, or nullopt when no usable chunk is large enough.
     */
    std::optional<std::uint64_t> allocate(std::uint64_t bytes);

    /** Return a block to the free list, coalescing neighbours. */
    void free(std::uint64_t offset, std::uint64_t bytes);

    std::uint64_t usedBytes() const { return used_; }
    std::uint64_t freeBytes() const { return free_; }
    std::uint64_t usableBytes() const { return usable_; }
    std::uint64_t darkBytes() const { return free_ - usable_; }
    std::size_t freeChunkCount() const { return chunks_.size(); }

    /**
     * Heap::credit() recomputed by a walk of every chunk: the usable
     * chunks above Heap::maxBinnedBytes, each less
     * max(Heap::maxBinnedBytes, dark_threshold).
     */
    std::uint64_t credit() const;

    /**
     * Compact: slide live data to offset 0, leaving one free block.
     * Returns recovered dark bytes.
     */
    std::uint64_t compact(std::uint64_t live_bytes);

    /** Invariant check: maps consistent, sums match. */
    bool accountingConsistent() const;

  private:
    HeapConfig config_;
    std::map<std::uint64_t, std::uint64_t> chunks_; //!< offset -> size
    std::multimap<std::uint64_t, std::uint64_t> by_size_; //!< usable only
    std::uint64_t used_ = 0;
    std::uint64_t free_ = 0;
    std::uint64_t usable_ = 0;

    void insertChunk(std::uint64_t offset, std::uint64_t bytes);
    void eraseChunk(std::map<std::uint64_t, std::uint64_t>::iterator it);
};

} // namespace jasim

#endif // JASIM_TESTS_JVM_REFERENCE_HEAP_H
