#include <gtest/gtest.h>

#include "db/table.h"

namespace jasim {
namespace {

Schema
customerSchema()
{
    return Schema{"customer",
                  {{"id", ColumnType::Integer},
                   {"name", ColumnType::Text}}};
}

TEST(TableTest, InsertAndFetch)
{
    Table table(customerSchema(), 4);
    const RowId id = table.insert({std::int64_t(1), std::string("a")});
    const auto row = table.fetch(id);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(std::get<std::int64_t>((*row)[0]), 1);
    EXPECT_EQ(std::get<std::string>((*row)[1]), "a");
}

TEST(TableTest, RowsPackIntoPages)
{
    Table table(customerSchema(), 4);
    for (std::int64_t i = 0; i < 10; ++i)
        table.insert({i, std::string("x")});
    EXPECT_EQ(table.pageCount(), 3u); // 4+4+2
    EXPECT_EQ(table.rowCount(), 10u);
}

TEST(TableTest, UpdateInPlace)
{
    Table table(customerSchema(), 4);
    const RowId id = table.insert({std::int64_t(1), std::string("a")});
    EXPECT_TRUE(table.update(id, {std::int64_t(1), std::string("b")}));
    EXPECT_EQ(std::get<std::string>((*table.fetch(id))[1]), "b");
}

TEST(TableTest, EraseTombstones)
{
    Table table(customerSchema(), 4);
    const RowId id = table.insert({std::int64_t(1), std::string("a")});
    EXPECT_TRUE(table.eraseAt(id));
    EXPECT_FALSE(table.fetch(id).has_value());
    EXPECT_FALSE(table.eraseAt(id));
    EXPECT_FALSE(table.update(id, {std::int64_t(1), std::string("b")}));
    EXPECT_EQ(table.rowCount(), 0u);
}

TEST(TableTest, InvalidRowIdSafe)
{
    Table table(customerSchema(), 4);
    EXPECT_FALSE(table.fetch(RowId{99, 0}).has_value());
    EXPECT_FALSE(table.eraseAt(RowId{0, 7}));
}

TEST(TableTest, ScanVisitsLiveRowsInOrder)
{
    Table table(customerSchema(), 4);
    std::vector<RowId> ids;
    for (std::int64_t i = 0; i < 9; ++i)
        ids.push_back(table.insert({i, std::string("x")}));
    table.eraseAt(ids[4]);
    std::vector<std::int64_t> seen;
    table.scan([&](RowId, const Row &row) {
        seen.push_back(std::get<std::int64_t>(row[0]));
        return true;
    });
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(seen.front(), 0);
    EXPECT_EQ(seen.back(), 8);
}

TEST(TableTest, ScanEarlyStop)
{
    Table table(customerSchema(), 4);
    for (std::int64_t i = 0; i < 9; ++i)
        table.insert({i, std::string("x")});
    int visits = 0;
    table.scan([&](RowId, const Row &) { return ++visits < 3; });
    EXPECT_EQ(visits, 3);
}

TEST(SchemaTest, ColumnIndexLookup)
{
    const Schema schema = customerSchema();
    EXPECT_EQ(schema.columnIndex("name"), 1u);
    EXPECT_FALSE(schema.columnIndex("missing").has_value());
}

} // namespace
} // namespace jasim
