#include <gtest/gtest.h>

#include "db/wal.h"

namespace jasim {
namespace {

TEST(WalTest, LsnsMonotonic)
{
    Wal wal;
    const auto a = wal.append(1, WalRecordType::Begin, 0);
    const auto b = wal.append(1, WalRecordType::Insert, 100);
    EXPECT_LT(a, b);
    EXPECT_EQ(wal.recordCount(), 2u);
}

TEST(WalTest, ForceReturnsPendingBytesOnce)
{
    Wal wal;
    wal.append(1, WalRecordType::Insert, 100);
    wal.append(1, WalRecordType::Commit, 0);
    const auto forced = wal.force();
    EXPECT_GT(forced, 100u); // payload + headers
    EXPECT_EQ(wal.force(), 0u); // nothing new
    EXPECT_EQ(wal.forceCount(), 1u);
}

TEST(WalTest, AppendAfterForceAccumulatesAgain)
{
    Wal wal;
    wal.append(1, WalRecordType::Insert, 50);
    wal.force();
    wal.append(2, WalRecordType::Insert, 70);
    EXPECT_GT(wal.force(), 70u);
    EXPECT_EQ(wal.forceCount(), 2u);
}

TEST(WalTest, ForcedRecordsDroppedFromMemory)
{
    Wal wal;
    wal.append(1, WalRecordType::Insert, 50);
    EXPECT_EQ(wal.pendingRecords(), 1u);
    wal.force();
    EXPECT_EQ(wal.pendingRecords(), 0u);
    EXPECT_EQ(wal.recordCount(), 1u); // lifetime count preserved
}

TEST(WalTest, WithoutRetentionNoRecordIsKept)
{
    // Without retention the log assigns LSNs and counts bytes, but
    // keeps no record, forced or not.
    Wal wal;
    wal.append(1, WalRecordType::Insert, 100);
    wal.append(1, WalRecordType::Commit, 0);
    EXPECT_TRUE(wal.records().empty());
    EXPECT_EQ(wal.retainedBytes(), 0u);
    EXPECT_EQ(wal.lastLsn(), 2u);
    EXPECT_EQ(wal.pendingRecords(), 2u);
    EXPECT_EQ(wal.force(), 148u); // payload + a 24-byte header each
    EXPECT_EQ(wal.pendingRecords(), 0u);
    EXPECT_EQ(wal.issuedLsn(), 2u);
    EXPECT_TRUE(wal.records().empty());
}

TEST(WalTest, BytesIncludeHeaders)
{
    Wal wal;
    wal.append(1, WalRecordType::Insert, 0);
    EXPECT_GT(wal.appendedBytes(), 0u);
}

TEST(WalTest, ForceOnEmptyLogIsFree)
{
    Wal wal;
    EXPECT_EQ(wal.force(), 0u);
    EXPECT_EQ(wal.forceCount(), 0u);
    wal.append(1, WalRecordType::Insert, 10);
    wal.force();
    // Nothing new appended: the second force must not count either.
    EXPECT_EQ(wal.force(), 0u);
    EXPECT_EQ(wal.forceCount(), 1u);
}

TEST(WalTest, RetentionKeepsRecordsAcrossForce)
{
    Wal wal;
    wal.setRetention(true);
    wal.appendLogical(1, WalRecordType::Insert, 40, 0, RowId{0, 0},
                      Row{std::int64_t{1}}, std::nullopt);
    wal.append(1, WalRecordType::Commit, 0);
    const auto forced = wal.force();
    EXPECT_GT(forced, 0u);
    EXPECT_EQ(wal.pendingRecords(), 0u);
    ASSERT_EQ(wal.records().size(), 2u); // survive for replay
    EXPECT_TRUE(wal.records()[0].redo.has_value());
    EXPECT_EQ(wal.issuedLsn(), wal.lastLsn());
    EXPECT_GT(wal.retainedBytes(), 0u);
}

TEST(WalTest, TruncatePastEndClampsAndKeepsLsnsStable)
{
    Wal wal;
    wal.setRetention(true);
    wal.append(1, WalRecordType::Insert, 10);
    wal.append(1, WalRecordType::Commit, 0);
    wal.force();
    const auto unforced = wal.append(2, WalRecordType::Insert, 10);
    wal.truncate(unforced + 100); // way past the end
    // Clamped to the forced prefix: the unforced record survives.
    ASSERT_EQ(wal.records().size(), 1u);
    EXPECT_EQ(wal.records()[0].lsn, unforced);
    EXPECT_EQ(wal.truncatedUpTo(), unforced - 1);
    // LSN assignment never moves backwards after a clamped truncate.
    EXPECT_EQ(wal.append(2, WalRecordType::Commit, 0), unforced + 1);
}

TEST(WalTest, ConfirmDurableClampsToIssued)
{
    Wal wal;
    wal.setRetention(true);
    wal.append(1, WalRecordType::Insert, 10);
    wal.confirmDurable(100); // nothing issued yet
    EXPECT_EQ(wal.durableLsn(), 0u);
    wal.force();
    wal.confirmDurable(100);
    EXPECT_EQ(wal.durableLsn(), wal.issuedLsn());
}

TEST(WalTest, PlainCrashDropsOnlyUnforcedTail)
{
    Wal wal;
    wal.setRetention(true);
    wal.append(1, WalRecordType::Insert, 10);
    wal.append(1, WalRecordType::Commit, 0);
    wal.force();
    wal.append(2, WalRecordType::Insert, 10); // never forced
    wal.append(2, WalRecordType::Insert, 10);
    const WalCrashLoss loss = wal.crashDiscard(false);
    EXPECT_EQ(loss.unforced_records, 2u);
    EXPECT_EQ(loss.torn_records, 0u);
    ASSERT_EQ(wal.records().size(), 2u);
    // Survivors are durable by definition.
    EXPECT_EQ(wal.durableLsn(), wal.records().back().lsn);
}

TEST(WalTest, TornCrashTearsTheInFlightWindow)
{
    Wal wal;
    wal.setRetention(true);
    for (int i = 0; i < 4; ++i)
        wal.append(1, WalRecordType::Insert, 10);
    wal.force(); // issued, but the force I/O never completed
    const WalCrashLoss loss = wal.crashDiscard(true);
    EXPECT_EQ(loss.unforced_records, 0u);
    EXPECT_EQ(loss.torn_records, 2u); // half the window torn off
    EXPECT_EQ(wal.records().size(), 2u);
}

TEST(WalTest, ProtectedRecordsCannotBeTorn)
{
    Wal wal;
    wal.setRetention(true);
    for (int i = 0; i < 4; ++i)
        wal.append(1, WalRecordType::Insert, 10);
    wal.force();
    // A stable page flush carried every effect: nothing can tear.
    wal.protect(wal.issuedLsn());
    const WalCrashLoss loss = wal.crashDiscard(true);
    EXPECT_EQ(loss.torn_records, 0u);
    EXPECT_EQ(wal.records().size(), 4u);
}

} // namespace
} // namespace jasim
