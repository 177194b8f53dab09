#include "reference_db.h"

#include <algorithm>
#include <cassert>

namespace jasim::ref {

// ---- Table ----------------------------------------------------------

Table::Table(Schema schema, std::uint16_t rows_per_page)
    : schema_(std::move(schema)), rows_per_page_(rows_per_page)
{
    assert(rows_per_page_ > 0);
    assert(!schema_.columns.empty());
}

RowId
Table::insert(Row row)
{
    assert(row.size() == schema_.columns.size());
    if (pages_.empty() || pages_.back().rows.size() >= rows_per_page_)
        pages_.push_back(Page{});
    Page &page = pages_.back();
    page.rows.push_back(std::move(row));
    page.live.push_back(true);
    ++live_rows_;
    return RowId{static_cast<std::uint32_t>(pages_.size() - 1),
                 static_cast<std::uint16_t>(page.rows.size() - 1)};
}

std::optional<Row>
Table::fetch(RowId id) const
{
    if (id.page >= pages_.size())
        return std::nullopt;
    const Page &page = pages_[id.page];
    if (id.slot >= page.rows.size() || !page.live[id.slot])
        return std::nullopt;
    return page.rows[id.slot];
}

bool
Table::update(RowId id, Row row)
{
    assert(row.size() == schema_.columns.size());
    if (id.page >= pages_.size())
        return false;
    Page &page = pages_[id.page];
    if (id.slot >= page.rows.size() || !page.live[id.slot])
        return false;
    page.rows[id.slot] = std::move(row);
    return true;
}

bool
Table::erase(RowId id)
{
    if (id.page >= pages_.size())
        return false;
    Page &page = pages_[id.page];
    if (id.slot >= page.rows.size() || !page.live[id.slot])
        return false;
    page.live[id.slot] = false;
    --live_rows_;
    return true;
}

Table::PageImage
Table::pageImage(std::uint32_t page) const
{
    if (page >= pages_.size())
        return {};
    return PageImage{pages_[page].rows, pages_[page].live};
}

void
Table::setRowAt(RowId id, Row row)
{
    while (pages_.size() <= id.page)
        pages_.push_back(Page{});
    Page &page = pages_[id.page];
    while (page.rows.size() <= id.slot) {
        // Dead placeholder slots: never fetched (not live), and they
        // count toward page fullness exactly like tombstones do.
        page.rows.push_back(Row{});
        page.live.push_back(false);
    }
    if (!page.live[id.slot]) {
        page.live[id.slot] = true;
        ++live_rows_;
    }
    page.rows[id.slot] = std::move(row);
}

bool
Table::eraseAt(RowId id)
{
    return erase(id);
}

void
Table::restoreAll(const std::vector<PageImage> &images)
{
    pages_.clear();
    pages_.reserve(images.size());
    live_rows_ = 0;
    for (const PageImage &image : images) {
        assert(image.rows.size() == image.live.size());
        pages_.push_back(Page{image.rows, image.live});
        for (const bool live : image.live) {
            if (live)
                ++live_rows_;
        }
    }
}

// ---- UniqueIndex / MultiIndex --------------------------------------

bool
UniqueIndex::insert(std::int64_t key, RowId id)
{
    return map_.emplace(key, id).second;
}

std::optional<RowId>
UniqueIndex::find(std::int64_t key) const
{
    const auto it = map_.find(key);
    if (it == map_.end())
        return std::nullopt;
    return it->second;
}

bool
UniqueIndex::erase(std::int64_t key)
{
    return map_.erase(key) != 0;
}

void
MultiIndex::insert(std::int64_t key, RowId id)
{
    map_[key].push_back(id);
    ++entries_;
}

std::vector<RowId>
MultiIndex::find(std::int64_t key) const
{
    const auto it = map_.find(key);
    return it == map_.end() ? std::vector<RowId>{} : it->second;
}

bool
MultiIndex::erase(std::int64_t key, RowId id)
{
    const auto it = map_.find(key);
    if (it == map_.end())
        return false;
    auto &ids = it->second;
    const auto pos = std::find(ids.begin(), ids.end(), id);
    if (pos == ids.end())
        return false;
    ids.erase(pos);
    --entries_;
    if (ids.empty())
        map_.erase(it);
    return true;
}

// ---- BufferPool -----------------------------------------------------

BufferPool::BufferPool(std::size_t capacity_pages)
    : capacity_(capacity_pages)
{
    assert(capacity_pages > 0);
}

PinResult
BufferPool::pin(PageKey key, bool mark_dirty, std::uint64_t recovery_lsn)
{
    PinResult result;
    if (mark_dirty && recovery_lsn != 0) {
        // First dirtier wins: redo must start at the oldest change
        // that might not be on disk yet.
        dpt_.emplace(key, recovery_lsn);
    }
    const auto it = index_.find(key);
    if (it != index_.end()) {
        result.hit = true;
        ++hits_;
        it->second->dirty |= mark_dirty;
        lru_.splice(lru_.begin(), lru_, it->second);
        return result;
    }

    ++misses_;
    if (lru_.size() >= capacity_) {
        const Frame &victim = lru_.back();
        result.evicted = true;
        result.victim = victim.key;
        if (victim.dirty) {
            result.writeback = true;
            ++writebacks_;
        }
        dpt_.erase(victim.key);
        index_.erase(victim.key);
        lru_.pop_back();
    }
    lru_.push_front(Frame{key, mark_dirty});
    index_[key] = lru_.begin();
    return result;
}

bool
BufferPool::resident(PageKey key) const
{
    return index_.count(key) != 0;
}

void
BufferPool::markClean(PageKey key)
{
    const auto it = index_.find(key);
    if (it != index_.end())
        it->second->dirty = false;
    dpt_.erase(key);
}

void
BufferPool::markAllClean()
{
    for (Frame &frame : lru_)
        frame.dirty = false;
    dpt_.clear();
}

std::uint64_t
BufferPool::minRecoveryLsn() const
{
    std::uint64_t min_lsn = 0;
    for (const auto &[key, lsn] : dpt_) {
        (void)key;
        if (min_lsn == 0 || lsn < min_lsn)
            min_lsn = lsn;
    }
    return min_lsn;
}

void
BufferPool::clear()
{
    lru_.clear();
    index_.clear();
    dpt_.clear();
}

} // namespace jasim::ref
