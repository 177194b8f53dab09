/**
 * @file
 * The node-based DB containers that jasim's flat ones must match,
 * kept for tests.
 *
 * These are the original `Table` (a vector of Rows per page),
 * `UniqueIndex` and `MultiIndex` (`std::unordered_map`s) and
 * `BufferPool` (a `std::list` in LRU order plus an
 * `std::unordered_map` of list iterators). They allocate per row and
 * per entry, but they are obviously right, so the differential tests
 * drive them and the engine's containers with the same calls and
 * require identical answers. They share the engine's value types
 * (Schema, Row, RowId, PageKey, PinResult).
 */

#ifndef JASIM_TESTS_DB_REFERENCE_DB_H
#define JASIM_TESTS_DB_REFERENCE_DB_H

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "db/buffer_pool.h"
#include "db/table.h"

namespace jasim::ref {

/** Heap-file table: pages of rows with tombstone deletion. */
class Table
{
  public:
    /** Full copy of one page (the stable-storage image). */
    struct PageImage
    {
        std::vector<Row> rows;
        std::vector<bool> live;
    };

    Table(Schema schema, std::uint16_t rows_per_page = 32);

    const Schema &schema() const { return schema_; }

    /** Append a row; returns its location. */
    RowId insert(Row row);

    /** Fetch a row (nullopt when the slot is a tombstone). */
    std::optional<Row> fetch(RowId id) const;

    /** Overwrite a row in place; false if the slot is dead/absent. */
    bool update(RowId id, Row row);

    /** Tombstone a row; false if already dead/absent. */
    bool erase(RowId id);

    /** Copy of one page's rows and liveness (empty when absent). */
    PageImage pageImage(std::uint32_t page) const;

    /**
     * Write a row at an exact location, reviving a tombstone or
     * growing pages/slots (dead placeholders) as needed.
     */
    void setRowAt(RowId id, Row row);

    /** Tombstone a slot; tolerant of dead/absent (returns false). */
    bool eraseAt(RowId id);

    /** Replace the whole heap with stable page images. */
    void restoreAll(const std::vector<PageImage> &images);

    std::uint32_t
    pageCount() const
    {
        return static_cast<std::uint32_t>(pages_.size());
    }

    std::uint16_t rowsPerPage() const { return rows_per_page_; }

    /** Live rows (excludes tombstones). */
    std::uint64_t rowCount() const { return live_rows_; }

    /**
     * Visit every live row in page order; the visitor receives
     * (RowId, const Row&) and returns false to stop early.
     */
    template <typename Visitor>
    void
    scan(Visitor &&visit) const
    {
        for (std::uint32_t p = 0; p < pages_.size(); ++p) {
            const auto &page = pages_[p];
            for (std::uint16_t s = 0; s < page.rows.size(); ++s) {
                if (!page.live[s])
                    continue;
                if (!visit(RowId{p, s}, page.rows[s]))
                    return;
            }
        }
    }

  private:
    struct Page
    {
        std::vector<Row> rows;
        std::vector<bool> live;
    };

    Schema schema_;
    std::uint16_t rows_per_page_;
    std::vector<Page> pages_;
    std::uint64_t live_rows_ = 0;
};

/** Unique integer-key -> RowId index. */
class UniqueIndex
{
  public:
    /** Insert; false when the key already exists. */
    bool insert(std::int64_t key, RowId id);

    std::optional<RowId> find(std::int64_t key) const;

    bool erase(std::int64_t key);

    std::size_t size() const { return map_.size(); }

  private:
    std::unordered_map<std::int64_t, RowId> map_;
};

/** Non-unique integer-key -> RowIds index. */
class MultiIndex
{
  public:
    void insert(std::int64_t key, RowId id);

    /** All rows with the key (empty vector when none). */
    std::vector<RowId> find(std::int64_t key) const;

    /** Remove one (key, id) pairing; false when absent. */
    bool erase(std::int64_t key, RowId id);

    std::size_t size() const { return entries_; }

  private:
    std::unordered_map<std::int64_t, std::vector<RowId>> map_;
    std::size_t entries_ = 0;
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
    std::size_t residentPages() const { return lru_.size(); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

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
    struct Frame
    {
        PageKey key;
        bool dirty = false;
    };

    std::size_t capacity_;
    std::list<Frame> lru_; //!< front = most recent
    std::unordered_map<PageKey, std::list<Frame>::iterator, PageKeyHash>
        index_;
    DirtyPageTable dpt_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace jasim::ref

#endif // JASIM_TESTS_DB_REFERENCE_DB_H
