/**
 * @file
 * Database::bulkLoad against the row-at-a-time path it stands for.
 *
 * Each case loads twin databases: one through bulkLoad, the other
 * through insert() in transactions of the same size, committed after
 * every batch-th row and after the last, as population did before the
 * bulk path. It then compares everything either engine shows: the
 * pool and WAL counters and the next TxnId; the cost of a script of
 * point selects and write transactions on a pool far smaller than the
 * data, which evicts and writes back, so it sees the LRU order and
 * the dirty bits; a scan, a point select of every key and of a missing
 * one, a secondary select of every key; and a checkpoint after
 * enableRecovery().
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "sim/rng.h"

namespace jasim {
namespace {

constexpr std::uint64_t kBatch = 1024;
constexpr std::int64_t kGroups = 13;
constexpr std::int64_t kMissingKey = 999;

/** Bulk row i: keys at a stride, texts inside and past 15 chars. */
void
fillRow(std::uint64_t i, Row &row)
{
    row[0] = std::int64_t(1000 + 3 * i);
    row[1] = (i % 3 == 0 ? "a-much-longer-name-" : "n-") + std::to_string(i);
    row[2] = std::int64_t(i % kGroups);
}

struct Case
{
    std::uint16_t rows_per_page = 7;
    std::uint64_t count = 0;
    std::uint64_t rows_before = 0;  //!< insert()ed and committed first
    bool secondary_first = false;   //!< index created before the load
};

struct Twin
{
    Database db;
    std::uint32_t table = 0;
    std::vector<std::int64_t> keys; //!< every key stored, in order

    explicit Twin(const Case &c) : db(DbConfig{8, c.rows_per_page})
    {
        table = db.createTable(Schema{"items",
                                      {{"id", ColumnType::Integer},
                                       {"name", ColumnType::Text},
                                       {"group", ColumnType::Integer}}});
        if (c.secondary_first)
            db.createSecondaryIndex(table, "group");
        if (c.rows_before > 0) {
            const TxnId txn = db.begin();
            for (std::uint64_t k = 0; k < c.rows_before; ++k) {
                const auto key = static_cast<std::int64_t>(k);
                db.insert(txn, table, Row{key, std::string("pre"),
                                          key % kGroups});
                keys.push_back(key);
            }
            db.commit(txn);
        }
        for (std::uint64_t i = 0; i < c.count; ++i)
            keys.push_back(static_cast<std::int64_t>(1000 + 3 * i));
    }

    void
    finishLoad()
    {
        db.createSecondaryIndex(table, "group");
    }
};

void
loadBulk(Twin &twin, std::uint64_t count)
{
    twin.db.bulkLoad(twin.table, count, kBatch, fillRow);
    twin.finishLoad();
}

void
loadByInserts(Twin &twin, std::uint64_t count)
{
    Database &db = twin.db;
    Row row(3);
    TxnId txn = db.begin();
    for (std::uint64_t i = 0; i < count; ++i) {
        fillRow(i, row);
        db.insert(txn, twin.table, row);
        if ((i + 1) % kBatch == 0) {
            db.commit(txn);
            txn = db.begin();
        }
    }
    db.commit(txn);
    twin.finishLoad();
}

void
expectSameCost(const DbCost &bulk, const DbCost &rows)
{
    EXPECT_EQ(bulk.pages_hit, rows.pages_hit);
    EXPECT_EQ(bulk.pages_read, rows.pages_read);
    EXPECT_EQ(bulk.writebacks, rows.writebacks);
    EXPECT_EQ(bulk.rows, rows.rows);
    EXPECT_EQ(bulk.log_bytes_forced, rows.log_bytes_forced);
    EXPECT_EQ(bulk.cpu_us, rows.cpu_us);
}

void
expectSameEngine(const Database &bulk, const Database &rows)
{
    const BufferPool &bp = bulk.bufferPool();
    const BufferPool &rp = rows.bufferPool();
    EXPECT_EQ(bp.hits(), rp.hits());
    EXPECT_EQ(bp.misses(), rp.misses());
    EXPECT_EQ(bp.writebacks(), rp.writebacks());
    EXPECT_EQ(bp.residentPages(), rp.residentPages());
    EXPECT_EQ(bp.dirtyPages(), rp.dirtyPages());
    const Wal &bw = bulk.wal();
    const Wal &rw = rows.wal();
    EXPECT_EQ(bw.appendedBytes(), rw.appendedBytes());
    EXPECT_EQ(bw.forcedBytes(), rw.forcedBytes());
    EXPECT_EQ(bw.recordCount(), rw.recordCount());
    EXPECT_EQ(bw.forceCount(), rw.forceCount());
    EXPECT_EQ(bw.issuedLsn(), rw.issuedLsn());
    EXPECT_EQ(bw.pendingRecords(), rw.pendingRecords());
}

/** Point selects of `n` keys drawn from `rng`, on both twins. */
void
selectSome(Twin &bulk, Twin &rows, Rng &rng, int n)
{
    if (bulk.keys.empty())
        return;
    for (int s = 0; s < n; ++s) {
        const std::int64_t key = bulk.keys[rng.below(bulk.keys.size())];
        DbCost bc, rc;
        EXPECT_EQ(bulk.db.pointSelect(bulk.table, key, bc),
                  rows.db.pointSelect(rows.table, key, rc));
        expectSameCost(bc, rc);
    }
}

/** One write transaction: 10 inserts and 10 updates, on both twins. */
void
writeSome(Twin &bulk, Twin &rows, Rng &rng, std::int64_t first_key)
{
    const TxnId bt = bulk.db.begin();
    const TxnId rt = rows.db.begin();
    EXPECT_EQ(bt, rt);
    for (std::int64_t k = first_key; k < first_key + 10; ++k) {
        const Row row{k, std::string("new"), k % kGroups};
        expectSameCost(bulk.db.insert(bt, bulk.table, row),
                       rows.db.insert(rt, rows.table, row));
        bulk.keys.push_back(k);
        rows.keys.push_back(k);
    }
    for (int u = 0; u < 10; ++u) {
        const std::int64_t key = bulk.keys[rng.below(bulk.keys.size())];
        const Row row{key, std::string("updated"), (key + 1) % kGroups};
        expectSameCost(bulk.db.updateByKey(bt, bulk.table, key, row),
                       rows.db.updateByKey(rt, rows.table, key, row));
    }
    expectSameCost(bulk.db.commit(bt), rows.db.commit(rt));
}

std::vector<std::pair<RowId, Row>>
scanAll(const Twin &twin)
{
    std::vector<std::pair<RowId, Row>> out;
    twin.db.table(twin.table).scan([&](RowId id, const Row &row) {
        out.emplace_back(id, row);
        return true;
    });
    return out;
}

void
checkTwins(const Case &c)
{
    SCOPED_TRACE("rows_per_page " + std::to_string(c.rows_per_page) +
                 ", count " + std::to_string(c.count) + ", rows before " +
                 std::to_string(c.rows_before) + ", secondary first " +
                 std::to_string(c.secondary_first));
    Twin bulk(c);
    Twin rows(c);
    loadBulk(bulk, c.count);
    loadByInserts(rows, c.count);
    expectSameEngine(bulk.db, rows.db);
    EXPECT_EQ(bulk.db.table(bulk.table).pageCount(),
              rows.db.table(rows.table).pageCount());
    EXPECT_EQ(bulk.db.table(bulk.table).rowCount(),
              c.rows_before + c.count);

    // A script on the 8-page pool: evictions of clean and dirty pages.
    Rng rng(c.count + c.rows_per_page);
    selectSome(bulk, rows, rng, 200);
    writeSome(bulk, rows, rng, 500000);
    selectSome(bulk, rows, rng, 200);
    writeSome(bulk, rows, rng, 600000);
    expectSameEngine(bulk.db, rows.db);

    EXPECT_EQ(scanAll(bulk), scanAll(rows));
    for (const std::int64_t key : bulk.keys) {
        DbCost bc, rc;
        const auto got = bulk.db.pointSelect(bulk.table, key, bc);
        ASSERT_TRUE(got.has_value()) << "key " << key;
        EXPECT_EQ(got, rows.db.pointSelect(rows.table, key, rc));
        expectSameCost(bc, rc);
    }
    DbCost bc, rc;
    EXPECT_FALSE(bulk.db.pointSelect(bulk.table, kMissingKey, bc));
    EXPECT_FALSE(rows.db.pointSelect(rows.table, kMissingKey, rc));
    expectSameCost(bc, rc);
    std::uint64_t indexed = 0;
    for (std::int64_t group = 0; group <= kGroups; ++group) {
        DbCost bs, rs;
        const auto got =
            bulk.db.selectBySecondary(bulk.table, "group", group, bs);
        EXPECT_EQ(got, rows.db.selectBySecondary(rows.table, "group",
                                                 group, rs));
        expectSameCost(bs, rs);
        indexed += got.size();
    }
    EXPECT_EQ(indexed, bulk.keys.size());
    expectSameEngine(bulk.db, rows.db);

    bulk.db.enableRecovery();
    rows.db.enableRecovery();
    writeSome(bulk, rows, rng, 700000);
    const CheckpointStats bs = bulk.db.checkpoint();
    const CheckpointStats rs = rows.db.checkpoint();
    EXPECT_EQ(bs.begin_lsn, rs.begin_lsn);
    EXPECT_EQ(bs.end_lsn, rs.end_lsn);
    EXPECT_EQ(bs.pages_flushed, rs.pages_flushed);
    EXPECT_EQ(bs.log_bytes_forced, rs.log_bytes_forced);
    EXPECT_EQ(bs.truncated_records, rs.truncated_records);
    expectSameEngine(bulk.db, rows.db);
}

TEST(BulkLoadTest, MatchesInsertsInBatchTransactions)
{
    // 7 and 33 rows a page do not divide the batch; 1,024 and 2,048
    // rows end in an empty transaction.
    for (const std::uint16_t rows_per_page : {7, 33}) {
        for (const std::uint64_t count : {0, 1000, 1024, 2048})
            checkTwins(Case{rows_per_page, count, 0, false});
    }
}

TEST(BulkLoadTest, AppendsAfterAPartialPage)
{
    checkTwins(Case{7, 1000, 5, false});
    checkTwins(Case{33, 2048, 40, false});
}

TEST(BulkLoadTest, MaintainsASecondaryIndexThatExistsBeforeTheLoad)
{
    checkTwins(Case{7, 1000, 0, true});
    checkTwins(Case{33, 1024, 5, true});
}

} // namespace
} // namespace jasim
