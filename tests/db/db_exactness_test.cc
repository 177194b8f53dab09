/**
 * @file
 * One pinned digest over everything the DB engine returns.
 *
 * The engine's outputs are DbCost records, rows and stats structs;
 * the simulation reads nothing else. This test drives a populated
 * jas2004 database through population on a pool far smaller than the
 * data (so pins evict and write back), 20,000 seeded transactions
 * with direct point and secondary queries and committed writes
 * between them, and then, with recovery armed, checkpoints, a torn
 * crash with recover() and a failoverTo(), each with an open loser.
 * Every DbCost field, every returned row and every stats field is
 * folded into one digest, pinned from the engine before its storage
 * was rebuilt and again, for this script, before its abort, erase and
 * scan paths were deleted. No pinned bench run evicts from the buffer
 * pool, so this is the only end-to-end pin on the eviction and
 * write-back path.
 */

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "db/database.h"
#include "sim/rng.h"
#include "was/application.h"

namespace jasim {
namespace {

class Digest
{
  public:
    void
    mix(std::uint64_t value)
    {
        hash_ = (hash_ ^ value) * 0x100000001b3ull;
        hash_ ^= hash_ >> 29;
    }

    void mixDouble(double value) { mix(std::bit_cast<std::uint64_t>(value)); }

    void
    mixCost(const DbCost &cost)
    {
        mix(cost.pages_hit);
        mix(cost.pages_read);
        mix(cost.writebacks);
        mix(cost.rows);
        mix(cost.log_bytes_forced);
        mixDouble(cost.cpu_us);
    }

    void
    mixRow(const Row &row)
    {
        mix(row.size());
        for (const Value &value : row) {
            if (const auto *integer = std::get_if<std::int64_t>(&value)) {
                mix(0);
                mix(static_cast<std::uint64_t>(*integer));
            } else {
                const std::string &text = std::get<std::string>(value);
                mix(1);
                mix(text.size());
                for (const char c : text)
                    mix(static_cast<unsigned char>(c));
            }
        }
    }

    void
    mixRow(const std::optional<Row> &row)
    {
        mix(row.has_value());
        if (row)
            mixRow(*row);
    }

    void
    mixRows(const std::vector<Row> &rows)
    {
        mix(rows.size());
        for (const Row &row : rows)
            mixRow(row);
    }

    void
    mixOutcome(const TxnDbOutcome &outcome)
    {
        mixCost(outcome.cost);
        mix(outcome.audit_token);
        mix(outcome.commit_lsn);
        mix(outcome.wal_issued_lsn);
    }

    void
    mixEngine(const Database &db)
    {
        const BufferPool &pool = db.bufferPool();
        mix(pool.hits());
        mix(pool.misses());
        mix(pool.writebacks());
        mix(pool.residentPages());
        mix(pool.dirtyPages().size());
        mix(pool.minRecoveryLsn());
        const Wal &wal = db.wal();
        mix(wal.appendedBytes());
        mix(wal.forcedBytes());
        mix(wal.recordCount());
        mix(wal.forceCount());
        mix(wal.retainedBytes());
        mix(wal.records().size());
        mix(wal.issuedLsn());
        mix(wal.durableLsn());
        mix(wal.truncatedUpTo());
        mix(db.lastCommitLsn());
    }

    /** Every live row of every table, in scan order. */
    void
    mixTables(const Database &db, std::uint32_t tables)
    {
        for (std::uint32_t t = 0; t < tables; ++t) {
            const Table &table = db.table(t);
            mix(table.rowCount());
            mix(table.pageCount());
            table.scan([&](RowId id, const Row &row) {
                mix(id.page);
                mix(id.slot);
                mixRow(row);
                return true;
            });
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Tables
{
    std::uint32_t customer, vehicle, inventory, orders, workorder;
};

Tables
tablesOf(const Database &db)
{
    return Tables{*db.tableId("customer"), *db.tableId("vehicle"),
                  *db.tableId("inventory"), *db.tableId("orders"),
                  *db.tableId("workorder")};
}

/** Point and secondary reads straight against the engine. */
void
directReads(Database &db, const Tables &t, Rng &rng, Digest &digest)
{
    DbCost cost;
    digest.mixRow(db.pointSelect(
        t.customer, static_cast<std::int64_t>(rng.below(31000)), cost));
    digest.mixRow(db.pointSelect(
        t.vehicle, static_cast<std::int64_t>(rng.below(61000)), cost));
    digest.mixRows(db.selectBySecondary(
        t.orders, "customer_id",
        static_cast<std::int64_t>(rng.below(30000)), cost));
    digest.mixRows(db.selectBySecondary(
        t.inventory, "vehicle_id",
        static_cast<std::int64_t>(rng.below(60000)), cost));
    digest.mixCost(cost);
}

/**
 * A write transaction straight against the engine: rename a customer,
 * insert a work order, commit.
 */
void
directWrite(Database &db, const Tables &t, Rng &rng, std::int64_t serial,
            Digest &digest)
{
    const TxnId txn = db.begin();
    const auto customer = static_cast<std::int64_t>(rng.below(30000));
    digest.mixCost(db.updateByKey(
        txn, t.customer, customer,
        Row{customer, std::string("renamed-") + std::to_string(serial),
            std::int64_t(serial % 16)}));
    digest.mixCost(db.insert(
        txn, t.workorder,
        Row{std::int64_t(1000000 + serial),
            static_cast<std::int64_t>(rng.below(30000)), std::int64_t(3),
            std::int64_t(0)}));
    digest.mixCost(db.commit(txn));
}

RequestType
drawType(Rng &rng)
{
    return static_cast<RequestType>(rng.below(requestTypeCount));
}

TEST(DbExactnessTest, EveryEngineOutputMatchesThePinnedDigest)
{
    // Population at IR 30: 171,000 rows on a 512-page pool.
    Jas2004Application app(DbConfig{512, 32}, 30.0, 0x5eedull);
    Database &db = app.database();
    const Tables t = tablesOf(db);
    Digest digest;
    digest.mixEngine(db);
    EXPECT_GT(db.bufferPool().writebacks(), 0u);

    Rng rng(0xdb5eedull);
    std::int64_t serial = 0;
    for (int i = 0; i < 20000; ++i) {
        digest.mixOutcome(app.runTransaction(drawType(rng)));
        if (i % 250 == 0)
            directReads(db, t, rng, digest);
        if (i % 1000 == 500)
            directWrite(db, t, rng, serial++, digest);
    }
    digest.mixEngine(db);

    // Recovery armed: checkpoints, a torn crash and a failover.
    app.enableAudit();
    db.enableRecovery();
    const std::uint32_t tables = 6;
    std::uint64_t watermark = 0;
    TxnId open = 0;
    // A transaction left open across the crash (a loser for recover())
    // and one open at the failover watermark (a loser for failoverTo()).
    const auto openWrite = [&](std::int64_t key) {
        open = db.begin();
        digest.mixCost(db.updateByKey(
            open, t.inventory, key,
            Row{key, std::int64_t(7), std::int64_t(70), std::int64_t(1)}));
        digest.mixCost(db.insert(
            open, t.workorder,
            Row{std::int64_t(2000000 + key), key, std::int64_t(1),
                std::int64_t(2)}));
    };
    for (int i = 0; i < 4000; ++i) {
        digest.mixOutcome(app.runTransaction(drawType(rng)));
        if (i % 50 == 0)
            db.confirmWalDurable(db.wal().issuedLsn());
        if (i % 400 == 399) {
            const CheckpointStats s = db.checkpoint();
            digest.mix(s.begin_lsn);
            digest.mix(s.end_lsn);
            digest.mix(s.pages_flushed);
            digest.mix(s.log_bytes_forced);
            digest.mix(s.truncated_records);
        }
        if (i % 300 == 150)
            directWrite(db, t, rng, serial++, digest);
        if (i == 2510 || i == 2990)
            openWrite(i);
        if (i == 3100)
            digest.mixCost(db.commit(open));
        if (i == 2520) {
            const CrashStats c = db.crash(true);
            digest.mix(c.wal_records_lost);
            digest.mix(c.torn_records);
            digest.mix(c.dirty_pages_discarded);
            const RecoveryStats r = db.recover();
            digest.mix(r.replay_bytes);
            digest.mix(r.redo_records);
            digest.mix(r.redo_applied);
            digest.mix(r.undo_records);
            digest.mix(r.loser_txns);
            digest.mix(r.winner_txns);
            digest.mix(r.pages_flushed);
            digest.mix(r.checkpoint_bytes);
            digest.mixEngine(db);
            digest.mixTables(db, tables);
        }
        if (i == 3000) {
            watermark = db.wal().durableLsn();
            db.setTruncationFloor(watermark);
        }
    }
    const FailoverStats f = db.failoverTo(watermark);
    digest.mix(f.watermark);
    digest.mix(f.reversed_records);
    digest.mix(f.discarded_records);
    digest.mix(f.loser_txns);
    digest.mix(f.undo_records);
    digest.mix(f.pages_flushed);
    digest.mix(f.replay_bytes);
    digest.mix(f.checkpoint_bytes);
    db.clearTruncationFloor();
    for (int i = 0; i < 500; ++i)
        digest.mixOutcome(app.runTransaction(drawType(rng)));
    directReads(db, t, rng, digest);
    digest.mixEngine(db);
    digest.mixTables(db, tables);

    EXPECT_EQ(digest.value(), 0x4d58fa873a6ae933ull)
        << std::hex << digest.value();
}

} // namespace
} // namespace jasim
