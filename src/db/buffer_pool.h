/**
 * @file
 * Page buffer pool with LRU replacement.
 *
 * Every page touch in the query engine goes through the pool; misses
 * are charged as disk reads (RAM disk or spinning disk) by the layer
 * above. The pool's hit rate is what decides whether the SUT can keep
 * I/O wait near zero -- the tuning prerequisite of the whole study.
 *
 * For crash recovery the pool also keeps an ARIES-style dirty-page
 * table: the first log record that dirtied each resident page
 * (its recoveryLSN). The minimum recoveryLSN over the table bounds
 * how far back redo must start, which is what lets fuzzy checkpoints
 * truncate the WAL. Healthy runs pass recovery LSN 0 and the table
 * stays empty -- zero behaviour change.
 *
 * The frames and their LRU links live in one array, found through a
 * flat page map (db/flat_map.h): a pin allocates nothing. Only the
 * dirty-page table, which checkpoint() and failoverTo() iterate, is
 * a std::unordered_map.
 */

#ifndef JASIM_DB_BUFFER_POOL_H
#define JASIM_DB_BUFFER_POOL_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "db/flat_map.h"

namespace jasim {

/** Identity of a page: table id + page number. */
struct PageKey
{
    std::uint32_t table = 0;
    std::uint32_t page = 0;

    bool operator==(const PageKey &other) const = default;
};

struct PageKeyHash
{
    std::size_t
    operator()(const PageKey &key) const
    {
        return (static_cast<std::size_t>(key.table) << 32) ^ key.page;
    }
};

/** Result of a pin. */
struct PinResult
{
    bool hit = false;
    /** A dirty page was evicted (costs a write-back). */
    bool writeback = false;
    /** A page was evicted to make room. */
    bool evicted = false;
    /** The evicted page (valid when `evicted`). */
    PageKey victim{};
};

/** LRU page cache (bookkeeping only; no page data is stored). */
class BufferPool
{
  public:
    using DirtyPageTable =
        std::unordered_map<PageKey, std::uint64_t, PageKeyHash>;

    explicit BufferPool(std::size_t capacity_pages);

    /**
     * Touch a page, faulting it in if absent. A non-zero
     * `recovery_lsn` on a dirtying pin enters the page into the
     * dirty-page table (first dirtier wins).
     */
    PinResult pin(PageKey key, bool mark_dirty = false,
                  std::uint64_t recovery_lsn = 0);

    /** Is a page resident (no LRU update)? */
    bool resident(PageKey key) const;

    std::size_t capacity() const { return capacity_; }
    std::size_t residentPages() const { return frames_.size(); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    double
    hitRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total == 0
            ? 0.0
            : static_cast<double>(hits_) / static_cast<double>(total);
    }

    /** Mark one page clean (checkpoint flushed it). */
    void markClean(PageKey key);

    /** Mark every resident page clean (recovery baseline). */
    void markAllClean();

    /** Resident pages dirtied since their last flush, by recoveryLSN. */
    const DirtyPageTable &dirtyPages() const { return dpt_; }

    /** Oldest recoveryLSN over the dirty-page table (0 when empty). */
    std::uint64_t minRecoveryLsn() const;

    /** Drop everything (cold-start experiments, crash). */
    void clear();

  private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    struct Frame
    {
        PageKey key;
        std::uint32_t prev = none; //!< toward the most recent
        std::uint32_t next = none; //!< toward the LRU victim
        bool dirty = false;
    };

    std::size_t capacity_;
    std::vector<Frame> frames_; //!< one per resident page
    std::uint32_t head_ = none; //!< most recently pinned
    std::uint32_t tail_ = none; //!< least recently pinned
    FlatMap<std::uint32_t> index_; //!< packed PageKey -> frame
    DirtyPageTable dpt_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;

    static std::uint64_t
    packed(PageKey key)
    {
        return (static_cast<std::uint64_t>(key.table) << 32) | key.page;
    }

    void unlink(std::uint32_t frame);
    void pushFront(std::uint32_t frame);
};

} // namespace jasim

#endif // JASIM_DB_BUFFER_POOL_H
