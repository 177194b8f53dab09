/**
 * The cell table's iteration order against libstdc++'s.
 *
 * CellTable promises the iteration order of
 * `std::unordered_map<std::uint64_t, Cell>` under libstdc++, because
 * the collector's sweep order (and with it every simulated output)
 * was defined by that container. These tests drive both with the same
 * seeded steps -- fresh increasing ids as ObjectGraph::addCell makes
 * them, finds, sweeps that erase while iterating, full iterations --
 * and compare order, size and bucket count after every step. The
 * comparisons with the standard container compile only against
 * libstdc++; elsewhere the table is checked against itself.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "jvm/cell_table.h"
#include "sim/rng.h"

namespace jasim {
namespace {

using Order = std::vector<std::pair<CellId, std::uint64_t>>;

/** (id, heap_offset) of every cell, in iteration order. */
Order
orderOf(const CellTable &table)
{
    Order order;
    table.forEach([&order](CellId id, const Cell &cell) {
        order.emplace_back(id, cell.heap_offset);
    });
    return order;
}

#ifdef __GLIBCXX__
using StdMap = std::unordered_map<std::uint64_t, Cell>;

Order
orderOf(const StdMap &map)
{
    Order order;
    for (const auto &[id, cell] : map)
        order.emplace_back(id, cell.heap_offset);
    return order;
}
#endif

/** The table and (under libstdc++) the standard map, in lockstep. */
class Twin
{
  public:
    void
    insert(CellId id, std::uint64_t payload)
    {
        table_.insert(id).heap_offset = payload;
#ifdef __GLIBCXX__
        Cell cell;
        cell.heap_offset = payload;
        map_.emplace(id, cell);
#endif
    }

    /** Erase while iterating, keeping each cell with `survival`. */
    void
    sweep(Rng &rng, double survival)
    {
        std::vector<bool> dead;
        const std::size_t erased =
            table_.eraseIf([&](CellId, const Cell &) {
                dead.push_back(!rng.chance(survival));
                return dead.back();
            });
        std::size_t count = 0;
        for (const bool d : dead)
            count += d;
        EXPECT_EQ(erased, count);
#ifdef __GLIBCXX__
        std::size_t i = 0;
        for (auto it = map_.begin(); it != map_.end(); ++i) {
            if (dead[i])
                it = map_.erase(it);
            else
                ++it;
        }
#endif
    }

    ::testing::AssertionResult
    agrees() const
    {
        const Order order = orderOf(table_);
        if (order.size() != table_.size())
            return ::testing::AssertionFailure()
                << "size " << table_.size() << " but " << order.size()
                << " cells iterated";
#ifdef __GLIBCXX__
        if (table_.size() != map_.size() ||
            table_.bucketCount() != map_.bucket_count())
            return ::testing::AssertionFailure()
                << "size " << table_.size() << " vs " << map_.size()
                << ", buckets " << table_.bucketCount() << " vs "
                << map_.bucket_count();
        if (order != orderOf(map_))
            return ::testing::AssertionFailure()
                << "iteration order differs at size " << table_.size();
#endif
        return ::testing::AssertionSuccess();
    }

    CellTable &table() { return table_; }

  private:
    CellTable table_;
#ifdef __GLIBCXX__
    StdMap map_;
#endif
};

/**
 * Collector-like traffic from `first_id`: bursts of inserts with
 * finds of live and erased ids, then a sweep.
 */
void
runTraffic(CellId first_id, std::uint64_t seed, std::size_t target)
{
    Twin twin;
    Rng rng(seed);
    CellId next_id = first_id;
    std::vector<CellId> live;
    for (int round = 0; twin.table().size() < target; ++round) {
        const std::size_t burst = 1 + rng.below(3 * (live.size() + 40));
        for (std::size_t i = 0; i < burst; ++i) {
            const CellId id = next_id++;
            twin.insert(id, rng());
            live.push_back(id);
            ASSERT_TRUE(twin.agrees()) << "round " << round << " insert";
        }
        for (int i = 0; i < 20; ++i) {
            const CellId id = live[rng.below(live.size())];
            const Cell *cell = twin.table().find(id);
            ASSERT_NE(cell, nullptr) << "live id " << id;
            EXPECT_EQ(twin.table().find(next_id + rng.below(1000)), nullptr);
        }
        twin.sweep(rng, 0.3 + 0.6 * rng.uniform());
        ASSERT_TRUE(twin.agrees()) << "round " << round << " sweep";
        live.clear();
        twin.table().forEach(
            [&live](CellId id, const Cell &) { live.push_back(id); });
        for (int i = 0; i < 20 && !live.empty(); ++i)
            EXPECT_NE(twin.table().find(live[rng.below(live.size())]),
                      nullptr);
        if (live.empty())
            live.push_back(next_id - 1); // erased: find must miss
    }
}

TEST(CellTableTest, MatchesUnorderedMapThroughEightGrowths)
{
    // 5087 buckets: nine growths.
    runTraffic(1, 42, 2400);
}

TEST(CellTableTest, MatchesUnorderedMapAcrossTwoToThe32)
{
    // Ids cross 2^32, where the bucket index switches from the
    // multiply-high reduction to a division.
    constexpr CellId twoTo32 = CellId{1} << 32;
    runTraffic(twoTo32 - 1500, 7, 2400);
}

TEST(CellTableTest, MatchesUnorderedMapWithLargeIds)
{
    runTraffic(std::numeric_limits<CellId>::max() - 20000, 3, 1200);
}

TEST(CellTableTest, FindMissesOnEmptyAndErasedTables)
{
    CellTable table;
    EXPECT_EQ(table.find(1), nullptr);
    EXPECT_EQ(table.bucketCount(), 1u);
    table.insert(5).bytes = 64;
    ASSERT_NE(table.find(5), nullptr);
    EXPECT_EQ(table.find(5)->bytes, 64u);
    EXPECT_EQ(table.find(18), nullptr); // same bucket of 13
    EXPECT_EQ(table.eraseIf([](CellId, const Cell &) { return true; }),
              1u);
    EXPECT_EQ(table.find(5), nullptr);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.bucketCount(), 13u); // never shrinks
}

TEST(CellTableTest, BucketCountsFollowTheEmbeddedSequence)
{
    // The sequence jasim embeds must be the growth libstdc++ shows.
    CellTable table;
    std::vector<std::size_t> seen{table.bucketCount()};
    for (CellId id = 1; id <= 200000; ++id) {
        table.insert(id);
        if (table.bucketCount() != seen.back())
            seen.push_back(table.bucketCount());
    }
    ASSERT_LE(seen.size(), CellTable::bucketCounts.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], CellTable::bucketCounts[i]) << "growth " << i;
#ifdef __GLIBCXX__
    std::unordered_map<std::uint64_t, int> map;
    std::vector<std::size_t> std_seen{map.bucket_count()};
    for (CellId id = 1; id <= 200000; ++id) {
        map.emplace(id, 0);
        if (map.bucket_count() != std_seen.back())
            std_seen.push_back(map.bucket_count());
    }
    EXPECT_EQ(seen, std_seen);
#endif
}

TEST(CellTableTest, EmbeddedSequenceMatchesUnorderedMapGrowth)
{
#ifdef __GLIBCXX__
    // Every count to the last, without inserting 10^8 ids: ask
    // libstdc++'s rehash policy what an insert asks it, at each size.
    std::__detail::_Prime_rehash_policy policy;
    std::size_t buckets = 1;
    std::size_t size = 0;
    for (std::size_t i = 1; i < CellTable::bucketCounts.size(); ++i) {
        if (size > 0) {
            EXPECT_FALSE(policy._M_need_rehash(buckets, size - 1, 1).first)
                << "growth before " << buckets << " cells";
        }
        const auto [grows, next] = policy._M_need_rehash(buckets, size, 1);
        ASSERT_TRUE(grows) << "no growth at " << size << " cells";
        EXPECT_EQ(next, CellTable::bucketCounts[i]) << "growth " << i;
        buckets = next;
        size = next;
    }
#else
    GTEST_SKIP() << "needs libstdc++";
#endif
}

} // namespace
} // namespace jasim
