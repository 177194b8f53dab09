/**
 * @file
 * Relational storage: schemas, rows, pages, tables.
 *
 * The DB2 stand-in stores rows in fixed-capacity pages so that access
 * costs are page-granular and flow through the buffer pool, which is
 * what couples the database to the memory/disk behaviour the paper
 * observes.
 */

#ifndef JASIM_DB_TABLE_H
#define JASIM_DB_TABLE_H

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace jasim {

/** Column value: integer or string. */
using Value = std::variant<std::int64_t, std::string>;

/** Column types. */
enum class ColumnType : std::uint8_t { Integer, Text };

/** One column definition. */
struct Column
{
    std::string name;
    ColumnType type;
};

/** Table schema: ordered columns; column 0 is the primary key. */
struct Schema
{
    std::string table_name;
    std::vector<Column> columns;

    std::optional<std::size_t> columnIndex(const std::string &name) const;
};

/** A row is one value per column. */
using Row = std::vector<Value>;

/** Location of a row: page number and slot within the page. */
struct RowId
{
    std::uint32_t page = 0;
    std::uint16_t slot = 0;

    bool operator==(const RowId &other) const = default;
};

/**
 * Heap-file table: pages of rows with tombstone deletion.
 *
 * Storage is typed: one array per Integer column and one per Text
 * column, each holding `rows_per_page` slots per page and grown a page
 * at a time, plus a live byte per slot and a fill count per page (the
 * slots in use: live rows, tombstones and dead placeholders). A stored
 * row is no heap block and no Value; fetch() and pageImage() build
 * what they return.
 *
 * Recovery support: pages can be snapshotted (`pageImage`) into a
 * stable store and put back wholesale (`restoreAll`), and individual
 * slots can be written or tombstoned at an exact RowId
 * (`setRowAt` / `eraseAt`) so WAL redo/undo replays land where the
 * original operations did.
 */
class Table
{
  public:
    /**
     * Copy of one page (the stable-storage image): a live byte per
     * slot in use, then each Integer column's values for those slots
     * in schema order, and each Text column's likewise.
     */
    struct PageImage
    {
        std::vector<std::uint8_t> live;
        std::vector<std::int64_t> integers;
        std::vector<std::string> texts;
    };

    Table(Schema schema, std::uint16_t rows_per_page = 32);

    const Schema &schema() const { return schema_; }

    /** Append a row; returns its location. */
    RowId insert(const Row &row);

    /**
     * Size the column arrays, liveness and page fills for `rows` more
     * appends, so that insert() reallocates nothing until they are in.
     */
    void reserve(std::uint64_t rows);

    /** Fetch a row (nullopt when the slot is a tombstone). */
    std::optional<Row> fetch(RowId id) const;

    /** Overwrite a row in place; false if the slot is dead/absent. */
    bool update(RowId id, const Row &row);

    /** An Integer column's value in a slot of a stored page. */
    std::int64_t
    integerAt(RowId id, std::size_t column) const
    {
        return integers_[place_[column]][slotOf(id)];
    }

    // ---- recovery (physical replay at exact locations) ----

    /** Copy of one page's rows and liveness (empty when absent). */
    PageImage pageImage(std::uint32_t page) const;

    /**
     * Write a row at an exact location, reviving a tombstone or
     * growing pages/slots (dead placeholders) as needed. The slot
     * must be below rowsPerPage().
     */
    void setRowAt(RowId id, const Row &row);

    /** Tombstone a slot; false if it is dead or absent. */
    bool eraseAt(RowId id);

    /** Replace the whole heap with stable page images. */
    void restoreAll(const std::vector<PageImage> &images);

    std::uint32_t
    pageCount() const
    {
        return static_cast<std::uint32_t>(fill_.size());
    }

    std::uint16_t rowsPerPage() const { return rows_per_page_; }

    /** Live rows (excludes tombstones). */
    std::uint64_t rowCount() const { return live_rows_; }

    /**
     * Visit every live row in page order; the visitor receives
     * (RowId, const Row&) and returns false to stop early. The Row is
     * one scratch row, refilled for each visit.
     */
    template <typename Visitor>
    void
    scan(Visitor &&visit) const
    {
        Row row(schema_.columns.size());
        forEachLive([&](RowId id) {
            readRow(slotOf(id), row);
            return visit(id, static_cast<const Row &>(row));
        });
    }

    /**
     * Visit every live row's RowId in page order; the visitor returns
     * false to stop early.
     */
    template <typename Visitor>
    void
    forEachLive(Visitor &&visit) const
    {
        for (std::uint32_t p = 0; p < fill_.size(); ++p) {
            const std::size_t base = std::size_t{p} * rows_per_page_;
            for (std::uint16_t s = 0; s < fill_[p]; ++s) {
                if (live_[base + s] && !visit(RowId{p, s}))
                    return;
            }
        }
    }

  private:
    Schema schema_;
    std::uint16_t rows_per_page_;
    /** Column c's array: integers_[place_[c]] or texts_[place_[c]]. */
    std::vector<std::size_t> place_;
    std::vector<std::vector<std::int64_t>> integers_;
    std::vector<std::vector<std::string>> texts_;
    std::vector<std::uint8_t> live_;   //!< per slot
    std::vector<std::uint16_t> fill_;  //!< per page: slots in use
    std::uint64_t live_rows_ = 0;

    std::size_t
    slotOf(RowId id) const
    {
        return std::size_t{id.page} * rows_per_page_ + id.slot;
    }

    /** Is the slot in use and live? */
    bool
    isLive(RowId id) const
    {
        return id.page < fill_.size() && id.slot < fill_[id.page] &&
            live_[slotOf(id)];
    }

    void addPages(std::size_t count);
    void readRow(std::size_t at, Row &row) const;
    void writeRow(std::size_t at, const Row &row);
};

} // namespace jasim

#endif // JASIM_DB_TABLE_H
