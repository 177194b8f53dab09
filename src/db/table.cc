#include "db/table.h"

#include <algorithm>
#include <cassert>

namespace jasim {

std::optional<std::size_t>
Schema::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (columns[i].name == name)
            return i;
    }
    return std::nullopt;
}

Table::Table(Schema schema, std::uint16_t rows_per_page)
    : schema_(std::move(schema)), rows_per_page_(rows_per_page)
{
    assert(rows_per_page_ > 0);
    assert(!schema_.columns.empty());
    for (const Column &column : schema_.columns) {
        if (column.type == ColumnType::Integer) {
            place_.push_back(integers_.size());
            integers_.emplace_back();
        } else {
            place_.push_back(texts_.size());
            texts_.emplace_back();
        }
    }
}

void
Table::addPages(std::size_t count)
{
    const std::size_t slots = live_.size() + count * rows_per_page_;
    for (auto &values : integers_)
        values.resize(slots);
    for (auto &values : texts_)
        values.resize(slots);
    live_.resize(slots);
    fill_.resize(fill_.size() + count);
}

void
Table::readRow(std::size_t at, Row &row) const
{
    for (std::size_t c = 0; c < row.size(); ++c) {
        if (schema_.columns[c].type == ColumnType::Integer)
            row[c] = integers_[place_[c]][at];
        else
            row[c] = texts_[place_[c]][at];
    }
}

void
Table::writeRow(std::size_t at, const Row &row)
{
    assert(row.size() == schema_.columns.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
        if (schema_.columns[c].type == ColumnType::Integer)
            integers_[place_[c]][at] = std::get<std::int64_t>(row[c]);
        else
            texts_[place_[c]][at] = std::get<std::string>(row[c]);
    }
}

RowId
Table::insert(const Row &row)
{
    if (fill_.empty() || fill_.back() >= rows_per_page_)
        addPages(1);
    const RowId id{static_cast<std::uint32_t>(fill_.size() - 1),
                   fill_.back()++};
    live_[slotOf(id)] = 1;
    ++live_rows_;
    writeRow(slotOf(id), row);
    return id;
}

void
Table::reserve(std::uint64_t rows)
{
    // insert() fills the last page's free slots first, then adds pages.
    const std::uint64_t room =
        fill_.empty() ? 0 : rows_per_page_ - fill_.back();
    const std::uint64_t added = rows > room
        ? (rows - room + rows_per_page_ - 1) / rows_per_page_
        : 0;
    const std::size_t pages = fill_.size() + added;
    const std::size_t slots = pages * rows_per_page_;
    for (auto &values : integers_)
        values.reserve(slots);
    for (auto &values : texts_)
        values.reserve(slots);
    live_.reserve(slots);
    fill_.reserve(pages);
}

std::optional<Row>
Table::fetch(RowId id) const
{
    if (!isLive(id))
        return std::nullopt;
    Row row(schema_.columns.size());
    readRow(slotOf(id), row);
    return row;
}

bool
Table::update(RowId id, const Row &row)
{
    if (!isLive(id))
        return false;
    writeRow(slotOf(id), row);
    return true;
}

Table::PageImage
Table::pageImage(std::uint32_t page) const
{
    if (page >= fill_.size())
        return {};
    const std::size_t first = std::size_t{page} * rows_per_page_;
    const std::size_t last = first + fill_[page];
    PageImage image;
    image.live.assign(live_.begin() + first, live_.begin() + last);
    image.integers.reserve(integers_.size() * fill_[page]);
    for (const auto &values : integers_) {
        image.integers.insert(image.integers.end(), values.begin() + first,
                              values.begin() + last);
    }
    image.texts.reserve(texts_.size() * fill_[page]);
    for (const auto &values : texts_) {
        image.texts.insert(image.texts.end(), values.begin() + first,
                           values.begin() + last);
    }
    return image;
}

void
Table::setRowAt(RowId id, const Row &row)
{
    assert(id.slot < rows_per_page_);
    if (id.page >= fill_.size())
        addPages(id.page + 1 - fill_.size());
    // Slots up to this one become dead placeholders: never fetched
    // (not live), and they count toward page fullness exactly like
    // tombstones do.
    std::uint16_t &fill = fill_[id.page];
    fill = std::max<std::uint16_t>(fill, id.slot + 1);
    std::uint8_t &live = live_[slotOf(id)];
    if (!live) {
        live = 1;
        ++live_rows_;
    }
    writeRow(slotOf(id), row);
}

bool
Table::eraseAt(RowId id)
{
    if (!isLive(id))
        return false;
    live_[slotOf(id)] = 0;
    --live_rows_;
    return true;
}

void
Table::restoreAll(const std::vector<PageImage> &images)
{
    for (auto &values : integers_)
        values.clear();
    for (auto &values : texts_)
        values.clear();
    live_.clear();
    fill_.clear();
    live_rows_ = 0;
    addPages(images.size());
    for (std::size_t p = 0; p < images.size(); ++p) {
        const PageImage &image = images[p];
        const std::size_t slots = image.live.size();
        assert(slots <= rows_per_page_);
        assert(image.integers.size() == integers_.size() * slots);
        assert(image.texts.size() == texts_.size() * slots);
        const std::size_t first = p * rows_per_page_;
        fill_[p] = static_cast<std::uint16_t>(slots);
        for (std::size_t s = 0; s < slots; ++s) {
            live_[first + s] = image.live[s];
            live_rows_ += image.live[s];
        }
        for (std::size_t c = 0; c < integers_.size(); ++c) {
            std::copy_n(image.integers.begin() + c * slots, slots,
                        integers_[c].begin() + first);
        }
        for (std::size_t c = 0; c < texts_.size(); ++c) {
            std::copy_n(image.texts.begin() + c * slots, slots,
                        texts_[c].begin() + first);
        }
    }
}

} // namespace jasim
