#include <set>

#include <gtest/gtest.h>

#include "was/application.h"

namespace jasim {
namespace {

class ApplicationTest : public ::testing::Test
{
  protected:
    ApplicationTest() : app_(DbConfig{1024, 32}, 2.0, 7) {}

    Jas2004Application app_;
};

TEST_F(ApplicationTest, PopulationScalesWithIr)
{
    Jas2004Application small(DbConfig{1024, 32}, 1.0, 7);
    Jas2004Application large(DbConfig{1024, 32}, 4.0, 7);
    EXPECT_GT(large.rowsLoaded(), 2 * small.rowsLoaded());
}

TEST_F(ApplicationTest, SchemaTablesExist)
{
    for (const char *name :
         {"customer", "vehicle", "inventory", "orders", "workorder"})
        EXPECT_TRUE(app_.database().tableId(name).has_value()) << name;
}

TEST_F(ApplicationTest, BrowseIsReadOnly)
{
    const auto before = app_.database().wal().recordCount();
    const TxnDbOutcome outcome =
        app_.runTransaction(RequestType::Browse);
    EXPECT_GT(outcome.cost.rows, 0u);
    EXPECT_EQ(outcome.cost.log_bytes_forced, 0u);
    EXPECT_EQ(app_.database().wal().recordCount(), before);
}

TEST_F(ApplicationTest, PurchaseWritesAndForcesLog)
{
    const auto orders = *app_.database().tableId("orders");
    const auto before = app_.database().table(orders).rowCount();
    const TxnDbOutcome outcome =
        app_.runTransaction(RequestType::Purchase);
    EXPECT_GT(outcome.cost.log_bytes_forced, 0u);
    EXPECT_EQ(app_.database().table(orders).rowCount(), before + 1);
}

TEST_F(ApplicationTest, WorkOrderInsertsRow)
{
    const auto workorders = *app_.database().tableId("workorder");
    const auto before = app_.database().table(workorders).rowCount();
    app_.runTransaction(RequestType::CreateWorkOrder);
    EXPECT_EQ(app_.database().table(workorders).rowCount(),
              before + 1);
}

TEST_F(ApplicationTest, RepeatedPurchasesKeepUniqueOrderIds)
{
    for (int i = 0; i < 50; ++i)
        app_.runTransaction(RequestType::Purchase);
    const Table &orders =
        app_.database().table(*app_.database().tableId("orders"));
    std::set<std::int64_t> ids;
    orders.scan([&](RowId, const Row &row) {
        ids.insert(std::get<std::int64_t>(row[0]));
        return true;
    });
    EXPECT_EQ(ids.size(), orders.rowCount());
}

TEST_F(ApplicationTest, ProfilesMatchPaperStructure)
{
    const TxnProfile &browse = app_.profile(RequestType::Browse);
    const TxnProfile &purchase = app_.profile(RequestType::Purchase);
    const TxnProfile &workorder =
        app_.profile(RequestType::CreateWorkOrder);
    // Browse is the lightweight transaction; RMI work orders heaviest.
    EXPECT_LT(browse.was_jit_us, purchase.was_jit_us);
    EXPECT_LT(purchase.was_jit_us, workorder.was_jit_us);
    // RMI requests bypass the web container.
    EXPECT_DOUBLE_EQ(workorder.web_us, 0.0);
    EXPECT_GT(browse.web_us, 0.0);
    // Everything allocates hundreds of KB per transaction.
    for (const auto type :
         {RequestType::Browse, RequestType::Purchase,
          RequestType::Manage, RequestType::CreateWorkOrder})
        EXPECT_GE(app_.profile(type).alloc_bytes, 100u * 1024);
}

TEST_F(ApplicationTest, ManageTouchesOrders)
{
    app_.runTransaction(RequestType::Purchase); // ensure orders exist
    const TxnDbOutcome outcome =
        app_.runTransaction(RequestType::Manage);
    EXPECT_GT(outcome.cost.rows, 0u);
}

} // namespace
} // namespace jasim
