#include <gtest/gtest.h>

#include "db/database.h"

namespace jasim {
namespace {

class DatabaseTest : public ::testing::Test
{
  protected:
    DatabaseTest() : db_(DbConfig{64, 4})
    {
        table_ = db_.createTable(
            Schema{"orders",
                   {{"id", ColumnType::Integer},
                    {"customer_id", ColumnType::Integer},
                    {"status", ColumnType::Integer}}});
    }

    Row order(std::int64_t id, std::int64_t customer,
              std::int64_t status = 0)
    {
        return Row{id, customer, status};
    }

    Database db_;
    std::uint32_t table_ = 0;
};

TEST_F(DatabaseTest, InsertThenPointSelect)
{
    const TxnId txn = db_.begin();
    db_.insert(txn, table_, order(1, 10));
    db_.commit(txn);
    DbCost cost;
    const auto row = db_.pointSelect(table_, 1, cost);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(std::get<std::int64_t>((*row)[1]), 10);
    EXPECT_GT(cost.cpu_us, 0.0);
}

TEST_F(DatabaseTest, MissingKeyReturnsNullopt)
{
    DbCost cost;
    EXPECT_FALSE(db_.pointSelect(table_, 999, cost).has_value());
}

TEST_F(DatabaseTest, CommitForcesLog)
{
    const TxnId txn = db_.begin();
    db_.insert(txn, table_, order(1, 10));
    const DbCost cost = db_.commit(txn);
    EXPECT_GT(cost.log_bytes_forced, 0u);
    EXPECT_GT(db_.wal().forceCount(), 0u);
}

TEST_F(DatabaseTest, UpdateByKeyVisible)
{
    TxnId txn = db_.begin();
    db_.insert(txn, table_, order(1, 10, 0));
    db_.commit(txn);
    txn = db_.begin();
    db_.updateByKey(txn, table_, 1, order(1, 10, 5));
    db_.commit(txn);
    DbCost cost;
    EXPECT_EQ(std::get<std::int64_t>(
                  (*db_.pointSelect(table_, 1, cost))[2]),
              5);
}

TEST_F(DatabaseTest, SecondaryIndexSelect)
{
    db_.createSecondaryIndex(table_, "customer_id");
    const TxnId txn = db_.begin();
    db_.insert(txn, table_, order(1, 7));
    db_.insert(txn, table_, order(2, 7));
    db_.insert(txn, table_, order(3, 8));
    db_.commit(txn);
    DbCost cost;
    const auto rows = db_.selectBySecondary(table_, "customer_id", 7,
                                            cost);
    EXPECT_EQ(rows.size(), 2u);
    EXPECT_EQ(cost.rows, 2u);
}

TEST_F(DatabaseTest, SecondaryIndexCreatedTwiceIndexesEachRowOnce)
{
    const TxnId txn = db_.begin();
    db_.insert(txn, table_, order(1, 0));
    db_.insert(txn, table_, order(2, 0));
    db_.insert(txn, table_, order(3, 1));
    db_.insert(txn, table_, order(4, 2));
    db_.commit(txn);
    db_.createSecondaryIndex(table_, "customer_id");
    db_.createSecondaryIndex(table_, "customer_id");
    DbCost cost;
    EXPECT_EQ(db_.selectBySecondary(table_, "customer_id", 0, cost).size(),
              2u);
}

TEST_F(DatabaseTest, SecondaryIndexFollowsUpdates)
{
    db_.createSecondaryIndex(table_, "customer_id");
    TxnId txn = db_.begin();
    db_.insert(txn, table_, order(1, 7));
    db_.commit(txn);
    txn = db_.begin();
    db_.updateByKey(txn, table_, 1, order(1, 9));
    db_.commit(txn);
    DbCost cost;
    EXPECT_TRUE(
        db_.selectBySecondary(table_, "customer_id", 7, cost).empty());
    EXPECT_EQ(
        db_.selectBySecondary(table_, "customer_id", 9, cost).size(),
        1u);
}

TEST_F(DatabaseTest, BufferPoolHitsOnRepeatedAccess)
{
    const TxnId txn = db_.begin();
    db_.insert(txn, table_, order(1, 1));
    db_.commit(txn);
    DbCost first, second;
    db_.pointSelect(table_, 1, first);
    db_.pointSelect(table_, 1, second);
    EXPECT_EQ(second.pages_read, 0u);
    EXPECT_GT(second.pages_hit, 0u);
}

TEST_F(DatabaseTest, TableIdLookup)
{
    EXPECT_EQ(db_.tableId("orders"), 0u);
    EXPECT_FALSE(db_.tableId("missing").has_value());
}

TEST_F(DatabaseTest, CostsAccumulateAcrossOps)
{
    DbCost total;
    const TxnId txn = db_.begin();
    total.add(db_.insert(txn, table_, order(1, 1)));
    total.add(db_.insert(txn, table_, order(2, 2)));
    total.add(db_.commit(txn));
    EXPECT_EQ(total.rows, 2u);
    EXPECT_GT(total.cpu_us, 0.0);
    EXPECT_GT(total.log_bytes_forced, 0u);
}

} // namespace
} // namespace jasim
