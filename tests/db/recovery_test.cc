#include <gtest/gtest.h>

#include "db/database.h"
#include "db/durability_audit.h"

namespace jasim {
namespace {

/** A small armed database: recovery on, 3-column orders table. */
class RecoveryTest : public ::testing::Test
{
  protected:
    RecoveryTest() : db_(DbConfig{64, 4})
    {
        table_ = db_.createTable(
            Schema{"orders",
                   {{"id", ColumnType::Integer},
                    {"customer_id", ColumnType::Integer},
                    {"status", ColumnType::Integer}}});
        db_.enableRecovery();
    }

    Row order(std::int64_t id, std::int64_t customer,
              std::int64_t status = 0)
    {
        return Row{id, customer, status};
    }

    void commitOrder(std::int64_t id, std::int64_t customer)
    {
        const TxnId txn = db_.begin();
        db_.insert(txn, table_, order(id, customer));
        db_.commit(txn);
    }

    std::optional<Row> find(std::int64_t key)
    {
        DbCost cost;
        return db_.pointSelect(table_, key, cost);
    }

    Database db_;
    std::uint32_t table_ = 0;
};

TEST_F(RecoveryTest, DurableCommitSurvivesCrash)
{
    commitOrder(1, 10);
    db_.confirmWalDurable(db_.wal().issuedLsn());
    db_.crash(false);
    EXPECT_TRUE(db_.crashed());
    const RecoveryStats stats = db_.recover();
    EXPECT_FALSE(db_.crashed());
    EXPECT_GE(stats.winner_txns, 1u);
    ASSERT_TRUE(find(1).has_value());
    EXPECT_EQ(std::get<std::int64_t>((*find(1))[1]), 10);
}

TEST_F(RecoveryTest, InFlightLoserIsUndone)
{
    // Txn A mutates but never commits; txn B's commit forces the log,
    // carrying A's records to stable storage. A is a loser.
    const TxnId loser = db_.begin();
    db_.insert(loser, table_, order(1, 10));
    commitOrder(2, 20);
    db_.confirmWalDurable(db_.wal().issuedLsn());
    db_.crash(false);
    const RecoveryStats stats = db_.recover();
    EXPECT_EQ(stats.loser_txns, 1u);
    EXPECT_GT(stats.undo_records, 0u);
    EXPECT_FALSE(find(1).has_value()); // undone
    EXPECT_TRUE(find(2).has_value());  // winner kept
}

TEST_F(RecoveryTest, TornWriteLosesUnconfirmedCommit)
{
    // Commit forced but its force I/O never completed: a torn write
    // tears off the tail, so the transaction must roll back cleanly.
    commitOrder(1, 10);
    const CrashStats crash = db_.crash(true);
    EXPECT_GT(crash.torn_records, 0u);
    db_.recover();
    EXPECT_FALSE(find(1).has_value());
}

TEST_F(RecoveryTest, CheckpointTruncatesAndPreservesEffects)
{
    for (std::int64_t id = 1; id <= 20; ++id)
        commitOrder(id, id * 10);
    db_.confirmWalDurable(db_.wal().issuedLsn());
    const std::uint64_t before = db_.wal().retainedBytes();
    const CheckpointStats ckpt = db_.checkpoint();
    EXPECT_GT(ckpt.pages_flushed, 0u);
    EXPECT_GT(ckpt.truncated_records, 0u);
    EXPECT_LT(db_.wal().retainedBytes(), before);
    EXPECT_GT(db_.wal().truncatedUpTo(), 0u);

    // Truncated effects now live in stable pages, not the WAL: a
    // crash right after the checkpoint must still keep every row.
    db_.crash(false);
    const RecoveryStats stats = db_.recover();
    EXPECT_EQ(stats.redo_applied, 0u); // pageLSN guard skips them all
    for (std::int64_t id = 1; id <= 20; ++id)
        EXPECT_TRUE(find(id).has_value()) << "row " << id;
}

TEST_F(RecoveryTest, RepeatedCrashRecoverIsIdempotent)
{
    commitOrder(1, 10);
    db_.confirmWalDurable(db_.wal().issuedLsn());
    for (int round = 0; round < 3; ++round) {
        db_.crash(false);
        db_.recover();
        db_.confirmWalDurable(db_.wal().issuedLsn());
    }
    // Exactly once: no duplicate redo materialized a second copy.
    std::size_t copies = 0;
    db_.table(table_).scan([&](RowId, const Row &row) {
        copies += std::get<std::int64_t>(row[0]) == 1;
        return true;
    });
    EXPECT_EQ(copies, 1u);
}

TEST_F(RecoveryTest, IndexesRebuiltAfterRecovery)
{
    db_.createSecondaryIndex(table_, "customer_id");
    commitOrder(1, 10);
    commitOrder(2, 10);
    db_.confirmWalDurable(db_.wal().issuedLsn());
    db_.crash(false);
    db_.recover();
    DbCost cost;
    EXPECT_EQ(db_.selectBySecondary(table_, "customer_id", 10, cost)
                  .size(),
              2u);
}

TEST(DurabilityAuditorTest, FlagsLostAckedCommit)
{
    Database db(DbConfig{64, 4});
    const std::uint32_t audit = db.createTable(
        Schema{"audit",
               {{"token", ColumnType::Integer},
                {"request_type", ColumnType::Integer}}});
    DurabilityAuditor auditor;
    // Token 1 was committed and acked, but the crash kept neither its
    // Commit record nor a truncated prefix covering it: data loss.
    auditor.noteCommitted(1, 5);
    auditor.noteAcked(1);
    auditor.noteCrash({}, 0);
    const AuditReport report = auditor.audit(db, audit);
    EXPECT_EQ(report.lost_acked, 1u);
    EXPECT_FALSE(report.pass());
}

TEST(DurabilityAuditorTest, FlagsResurrectedEffect)
{
    Database db(DbConfig{64, 4});
    const std::uint32_t audit = db.createTable(
        Schema{"audit",
               {{"token", ColumnType::Integer},
                {"request_type", ColumnType::Integer}}});
    // The table contains token 1 even though the crash wiped it.
    const TxnId txn = db.begin();
    db.insert(txn, audit, Row{std::int64_t{1}, std::int64_t{0}});
    db.commit(txn);
    DurabilityAuditor auditor;
    auditor.noteCommitted(1, 5);
    auditor.noteCrash({}, 0);
    const AuditReport report = auditor.audit(db, audit);
    EXPECT_EQ(report.resurrected, 1u);
    EXPECT_FALSE(report.pass());
}

TEST(DurabilityAuditorTest, PassesWhenHistoryIsConsistent)
{
    Database db(DbConfig{64, 4});
    const std::uint32_t audit = db.createTable(
        Schema{"audit",
               {{"token", ColumnType::Integer},
                {"request_type", ColumnType::Integer}}});
    const TxnId txn = db.begin();
    db.insert(txn, audit, Row{std::int64_t{1}, std::int64_t{0}});
    db.commit(txn);
    DurabilityAuditor auditor;
    auditor.noteCommitted(1, 5);
    auditor.noteAcked(1);
    // Commit LSN 5 is covered by the truncation watermark: durable.
    auditor.noteCrash({}, 7);
    const AuditReport report = auditor.audit(db, audit);
    EXPECT_TRUE(report.pass());
    EXPECT_EQ(report.surviving, 1u);
    EXPECT_EQ(report.acked_total, 1u);
}

} // namespace
} // namespace jasim
