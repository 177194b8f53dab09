/**
 * @file
 * Differential tests: the DB's flat containers against the node-based
 * ones they replaced (tests/db/reference_db.h).
 *
 * Seeded scripts drive both versions in lockstep and compare every
 * return value after every call, and the observables too: for Table
 * the row and page counts after every call and a full scan every 25
 * calls (page images are compared as they are taken); for the indexes
 * their sizes; for BufferPool every PinResult field, the counters and
 * the dirty-page table (contents and iteration order) after every
 * call, and the residency of every page every 50 calls.
 */

#include <climits>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/buffer_pool.h"
#include "db/index.h"
#include "db/table.h"
#include "reference_db.h"
#include "sim/rng.h"

namespace jasim {
namespace {

// ---- Table ----------------------------------------------------------

Schema
mixedSchema()
{
    return Schema{"mixed",
                  {{"id", ColumnType::Integer},
                   {"name", ColumnType::Text},
                   {"region", ColumnType::Integer},
                   {"note", ColumnType::Text}}};
}

Schema
integerSchema()
{
    return Schema{"ints",
                  {{"id", ColumnType::Integer},
                   {"a", ColumnType::Integer},
                   {"b", ColumnType::Integer}}};
}

Row
randomRow(const Schema &schema, Rng &rng)
{
    Row row;
    for (const Column &column : schema.columns) {
        if (column.type == ColumnType::Integer) {
            row.emplace_back(static_cast<std::int64_t>(rng()) >>
                             rng.below(60));
        } else {
            // Mostly short names; now and then one past the SSO buffer.
            const std::size_t length =
                rng.chance(0.05) ? 20 + rng.below(40) : rng.below(16);
            row.emplace_back(std::string(length, static_cast<char>(
                                                     'a' + rng.below(26))));
        }
    }
    return row;
}

/** Both tables: the same counts and the same rows at the same ids. */
void
expectSameTable(const ref::Table &expected, const Table &actual)
{
    ASSERT_EQ(expected.rowCount(), actual.rowCount());
    ASSERT_EQ(expected.pageCount(), actual.pageCount());
    std::vector<std::pair<RowId, Row>> want;
    expected.scan([&](RowId id, const Row &row) {
        want.emplace_back(id, row);
        return true;
    });
    std::vector<std::pair<RowId, Row>> got;
    actual.scan([&](RowId id, const Row &row) {
        got.emplace_back(id, row);
        return true;
    });
    ASSERT_EQ(want, got);
}

/** Page images: the same slots, liveness and live rows. */
void
expectSameImage(const ref::Table::PageImage &expected,
                const Table::PageImage &actual, const Schema &schema)
{
    ASSERT_EQ(expected.live.size(), actual.live.size());
    const std::size_t slots = actual.live.size();
    std::size_t integers = 0;
    std::size_t texts = 0;
    for (const Column &column : schema.columns) {
        if (column.type == ColumnType::Integer)
            ++integers;
        else
            ++texts;
    }
    ASSERT_EQ(actual.integers.size(), integers * slots);
    ASSERT_EQ(actual.texts.size(), texts * slots);
    for (std::size_t s = 0; s < slots; ++s) {
        ASSERT_EQ(expected.live[s], actual.live[s] != 0);
        if (!expected.live[s])
            continue; // a dead slot's contents are never read
        std::size_t i = 0;
        std::size_t t = 0;
        for (std::size_t c = 0; c < schema.columns.size(); ++c) {
            const Value &want = expected.rows[s][c];
            if (schema.columns[c].type == ColumnType::Integer) {
                ASSERT_EQ(want, Value(actual.integers[i++ * slots + s]));
            } else {
                ASSERT_EQ(want, Value(actual.texts[t++ * slots + s]));
            }
        }
    }
}

RowId
randomRowId(const ref::Table &table, Rng &rng, std::uint32_t page_slack)
{
    const auto page = static_cast<std::uint32_t>(
        rng.below(table.pageCount() + page_slack));
    const auto slot =
        static_cast<std::uint16_t>(rng.below(table.rowsPerPage()));
    return RowId{page, slot};
}

void
runTableScript(const Schema &schema, std::uint16_t rows_per_page,
               std::uint64_t seed)
{
    SCOPED_TRACE("rows_per_page " + std::to_string(rows_per_page) +
                 " seed " + std::to_string(seed));
    Rng rng(seed);
    ref::Table expected(schema, rows_per_page);
    Table actual(schema, rows_per_page);
    std::vector<std::vector<ref::Table::PageImage>> want_snapshots;
    std::vector<std::vector<Table::PageImage>> got_snapshots;

    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t op = rng.below(100);
        if (op < 30) {
            const Row row = randomRow(schema, rng);
            ASSERT_EQ(expected.insert(row), actual.insert(row));
        } else if (op < 45) {
            const RowId id = randomRowId(expected, rng, 2);
            ASSERT_EQ(expected.fetch(id), actual.fetch(id));
        } else if (op < 58) {
            const RowId id = randomRowId(expected, rng, 2);
            const Row row = randomRow(schema, rng);
            ASSERT_EQ(expected.update(id, row), actual.update(id, row));
        } else if (op < 70) {
            const RowId id = randomRowId(expected, rng, 2);
            ASSERT_EQ(expected.erase(id), actual.eraseAt(id));
        } else if (op < 76) {
            const RowId id = randomRowId(expected, rng, 2);
            ASSERT_EQ(expected.eraseAt(id), actual.eraseAt(id));
        } else if (op < 86) {
            // Past the last page too: grows pages and placeholders.
            const RowId id = randomRowId(expected, rng, 4);
            const Row row = randomRow(schema, rng);
            expected.setRowAt(id, row);
            actual.setRowAt(id, row);
        } else if (op < 92) {
            // Page images, including pages past the end (empty).
            const std::uint32_t pages = expected.pageCount() +
                static_cast<std::uint32_t>(rng.below(3));
            std::vector<ref::Table::PageImage> want;
            std::vector<Table::PageImage> got;
            for (std::uint32_t p = 0; p < pages; ++p) {
                want.push_back(expected.pageImage(p));
                got.push_back(actual.pageImage(p));
                expectSameImage(want.back(), got.back(), schema);
            }
            if (want_snapshots.size() == 8) {
                want_snapshots.erase(want_snapshots.begin());
                got_snapshots.erase(got_snapshots.begin());
            }
            want_snapshots.push_back(std::move(want));
            got_snapshots.push_back(std::move(got));
        } else if (op < 95 && !want_snapshots.empty()) {
            const std::size_t pick = rng.below(want_snapshots.size());
            expected.restoreAll(want_snapshots[pick]);
            actual.restoreAll(got_snapshots[pick]);
        } else {
            // A scan that stops early.
            const std::uint64_t stop = rng.below(expected.rowCount() + 1);
            std::vector<std::pair<RowId, Row>> want;
            expected.scan([&](RowId id, const Row &row) {
                want.emplace_back(id, row);
                return want.size() < stop;
            });
            std::vector<std::pair<RowId, Row>> got;
            actual.scan([&](RowId id, const Row &row) {
                got.emplace_back(id, row);
                return got.size() < stop;
            });
            ASSERT_EQ(want, got);
        }
        ASSERT_EQ(expected.rowCount(), actual.rowCount());
        ASSERT_EQ(expected.pageCount(), actual.pageCount());
        if (step % 25 == 0)
            expectSameTable(expected, actual);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    expectSameTable(expected, actual);
}

TEST(TableDifferentialTest, SeededScriptsMatchReference)
{
    for (const std::uint16_t rows_per_page : {1, 3, 4, 32}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            runTableScript(mixedSchema(), rows_per_page, seed);
            runTableScript(integerSchema(), rows_per_page, seed + 100);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(TableDifferentialTest, IntegerAtReadsTheStoredColumn)
{
    Rng rng(9);
    const Schema schema = mixedSchema();
    Table table(schema, 4);
    for (int i = 0; i < 50; ++i) {
        const Row row = randomRow(schema, rng);
        const RowId id = table.insert(row);
        EXPECT_EQ(table.integerAt(id, 0), std::get<std::int64_t>(row[0]));
        EXPECT_EQ(table.integerAt(id, 2), std::get<std::int64_t>(row[2]));
    }
}

// ---- indexes --------------------------------------------------------

/** Keys from several families, so runs, strides and signs all occur. */
std::int64_t
randomKey(Rng &rng)
{
    switch (rng.below(6)) {
      case 0: return static_cast<std::int64_t>(rng.below(600));
      case 1: return -static_cast<std::int64_t>(rng.below(300)) - 1;
      case 2: return static_cast<std::int64_t>(rng.below(300)) * 4096;
      case 3: return 1000000 + static_cast<std::int64_t>(rng.below(200));
      case 4: {
          constexpr std::int64_t edges[] = {INT64_MIN, INT64_MIN + 1, -1,
                                            0, INT64_MAX - 1, INT64_MAX};
          return edges[rng.below(6)];
      }
      default: return static_cast<std::int64_t>(rng());
    }
}

RowId
randomId(Rng &rng)
{
    return RowId{static_cast<std::uint32_t>(rng.below(40)),
                 static_cast<std::uint16_t>(rng.below(4))};
}

TEST(IndexDifferentialTest, UniqueIndexMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        ref::UniqueIndex expected;
        UniqueIndex actual;
        std::vector<std::int64_t> seen;
        for (int step = 0; step < 20000; ++step) {
            const std::int64_t key = !seen.empty() && rng.chance(0.5)
                ? seen[rng.below(seen.size())]
                : randomKey(rng);
            const std::uint64_t op = rng.below(10);
            if (op < 5) {
                const RowId id = randomId(rng);
                ASSERT_EQ(expected.insert(key, id), actual.insert(key, id));
                seen.push_back(key);
            } else if (op < 8) {
                ASSERT_EQ(expected.find(key), actual.find(key));
            } else {
                ASSERT_EQ(expected.erase(key), actual.erase(key));
            }
            ASSERT_EQ(expected.size(), actual.size());
        }
        for (const std::int64_t key : seen)
            ASSERT_EQ(expected.find(key), actual.find(key));
    }
}

TEST(IndexDifferentialTest, UniqueIndexKeepsADenseRunAndACountingTail)
{
    // The populated shape: keys 0..N-1, then keys counting up, with
    // lookups and erases between.
    ref::UniqueIndex expected;
    UniqueIndex actual;
    for (std::int64_t key = 0; key < 50000; ++key) {
        const RowId id{static_cast<std::uint32_t>(key / 32),
                       static_cast<std::uint16_t>(key % 32)};
        ASSERT_EQ(expected.insert(key, id), actual.insert(key, id));
    }
    Rng rng(3);
    for (int step = 0; step < 20000; ++step) {
        const auto key = static_cast<std::int64_t>(rng.below(52000));
        switch (rng.below(3)) {
          case 0: ASSERT_EQ(expected.erase(key), actual.erase(key)); break;
          case 1:
            ASSERT_EQ(expected.insert(key, RowId{1, 1}),
                      actual.insert(key, RowId{1, 1}));
            break;
          default: ASSERT_EQ(expected.find(key), actual.find(key)); break;
        }
        ASSERT_EQ(expected.size(), actual.size());
    }
}

TEST(IndexDifferentialTest, MultiIndexMatchesReference)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        ref::MultiIndex expected;
        MultiIndex actual;
        std::vector<std::pair<std::int64_t, RowId>> seen;
        for (int step = 0; step < 20000; ++step) {
            const std::uint64_t op = rng.below(10);
            std::int64_t key = randomKey(rng);
            RowId id = randomId(rng);
            if (!seen.empty() && rng.chance(0.6)) {
                // Reuse a pairing: duplicate keys and duplicate ids.
                const auto &pick = seen[rng.below(seen.size())];
                key = pick.first;
                if (rng.chance(0.7))
                    id = pick.second;
            }
            if (op < 5) {
                expected.insert(key, id);
                actual.insert(key, id);
                seen.emplace_back(key, id);
            } else if (op < 7) {
                ASSERT_EQ(expected.find(key), actual.find(key));
                std::vector<RowId> visited;
                actual.forEach(key, [&](RowId r) { visited.push_back(r); });
                ASSERT_EQ(expected.find(key), visited);
            } else {
                ASSERT_EQ(expected.erase(key, id), actual.erase(key, id));
            }
            ASSERT_EQ(expected.size(), actual.size());
        }
        for (const auto &[key, id] : seen) {
            (void)id;
            ASSERT_EQ(expected.find(key), actual.find(key));
        }
    }
}

// ---- buffer pool ----------------------------------------------------

std::vector<std::pair<PageKey, std::uint64_t>>
dirtyInOrder(const BufferPool::DirtyPageTable &table)
{
    return {table.begin(), table.end()};
}

void
expectSamePool(const ref::BufferPool &expected, const BufferPool &actual)
{
    ASSERT_EQ(expected.hits(), actual.hits());
    ASSERT_EQ(expected.misses(), actual.misses());
    ASSERT_EQ(expected.writebacks(), actual.writebacks());
    ASSERT_EQ(expected.residentPages(), actual.residentPages());
    ASSERT_EQ(expected.minRecoveryLsn(), actual.minRecoveryLsn());
    // Same contents in the same iteration order: checkpoint() and
    // failoverTo() walk this table.
    ASSERT_EQ(dirtyInOrder(expected.dirtyPages()),
              dirtyInOrder(actual.dirtyPages()));
}

TEST(BufferPoolDifferentialTest, PinsMatchReferenceAtEveryCapacity)
{
    for (std::size_t capacity = 1; capacity <= 64; ++capacity) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        Rng rng(capacity);
        ref::BufferPool expected(capacity);
        BufferPool actual(capacity);
        const auto pages = static_cast<std::uint32_t>(2 * capacity + 2);
        const auto randomPage = [&] {
            return PageKey{static_cast<std::uint32_t>(rng.below(4)),
                           static_cast<std::uint32_t>(rng.below(pages))};
        };
        std::uint64_t lsn = 0;
        for (int step = 0; step < 1500; ++step) {
            const std::uint64_t op = rng.below(100);
            const PageKey key = randomPage();
            if (op < 80) {
                const bool dirty = rng.chance(0.4);
                const std::uint64_t recovery =
                    rng.chance(0.5) ? ++lsn : 0;
                const PinResult want = expected.pin(key, dirty, recovery);
                const PinResult got = actual.pin(key, dirty, recovery);
                ASSERT_EQ(want.hit, got.hit);
                ASSERT_EQ(want.writeback, got.writeback);
                ASSERT_EQ(want.evicted, got.evicted);
                if (want.evicted) {
                    ASSERT_EQ(want.victim, got.victim);
                }
            } else if (op < 90) {
                ASSERT_EQ(expected.resident(key), actual.resident(key));
            } else if (op < 97) {
                expected.markClean(key);
                actual.markClean(key);
            } else if (op < 99) {
                expected.markAllClean();
                actual.markAllClean();
            } else {
                expected.clear();
                actual.clear();
            }
            expectSamePool(expected, actual);
            if (step % 50 == 0) {
                for (std::uint32_t t = 0; t < 4; ++t) {
                    for (std::uint32_t p = 0; p < pages; ++p) {
                        ASSERT_EQ(expected.resident({t, p}),
                                  actual.resident({t, p}));
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace jasim
