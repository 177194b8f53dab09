#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/lru_table.h"
#include "sim/rng.h"

namespace jasim {
namespace {

/** One set of the reference: a recency list plus what each way holds. */
struct ModelSet
{
    std::vector<std::uint64_t> recency; //!< resident keys, newest first
    std::vector<std::optional<std::uint64_t>> way;
    /** Where the table keeps each way's value, once a fill shows it. */
    std::vector<const std::uint64_t *> slot;
};

struct Shape
{
    std::size_t sets;
    std::size_t ways;
};

class LruTableDifferentialTest : public ::testing::TestWithParam<Shape>
{
};

// Seeded random accesses, finds and flushes over keys from about three
// times the table's capacity, replayed through LruTable and a per-set
// recency list: a hit moves its key to the front; a miss fills the
// first invalid way, else evicts the back. Every access must agree on
// hit or miss and on the way it lands in, so every evicted key is
// checked, and interleaved finds must leave the order alone. A set's
// ways are consecutive entries, so each way's value lies above the
// previous way's: that is what makes "the first invalid way" visible.
TEST_P(LruTableDifferentialTest, MatchesRecencyList)
{
    const auto [sets, ways] = GetParam();
    const std::size_t capacity = sets * ways;
    LruTable<std::uint64_t, std::uint64_t> table(capacity, ways);
    std::vector<ModelSet> model(sets);
    for (ModelSet &set : model) {
        set.way.resize(ways);
        set.slot.resize(ways, nullptr);
    }
    std::vector<std::uint64_t> payload(3 * capacity, 0);
    std::uint64_t epoch = table.epoch();
    std::uint64_t serial = 0;
    Rng rng(sets * 131 + ways);

    const std::size_t ops = 40 * capacity + 20000;
    for (std::size_t op = 0; op < ops; ++op) {
        if (rng.below(4 * capacity) == 0) {
            table.flush();
            ++epoch;
            for (ModelSet &set : model) {
                set.recency.clear();
                std::fill(set.way.begin(), set.way.end(), std::nullopt);
            }
            ASSERT_EQ(table.epoch(), epoch);
            continue;
        }
        const std::uint64_t key = rng.below(payload.size());
        ModelSet &set = model[key % sets];
        const auto way_of = [&set](const auto &k) {
            return static_cast<std::size_t>(
                std::find(set.way.begin(), set.way.end(), k) -
                set.way.begin());
        };
        const auto resident =
            std::find(set.recency.begin(), set.recency.end(), key);
        const bool hit = resident != set.recency.end();

        if (rng.chance(0.3)) {
            const std::uint64_t *found = table.find(key, key);
            if (hit) {
                ASSERT_EQ(found, set.slot[way_of(key)]) << "op " << op;
                ASSERT_EQ(*found, payload[key]);
            } else {
                ASSERT_EQ(found, nullptr) << "op " << op;
            }
            ASSERT_EQ(table.epoch(), epoch);
            continue;
        }

        auto [value, table_hit] = table.access(key, key);
        ASSERT_EQ(table_hit, hit) << "op " << op << " key " << key;
        if (hit) {
            ASSERT_EQ(&value, set.slot[way_of(key)]) << "op " << op;
            ASSERT_EQ(value, payload[key]);
            set.recency.erase(resident);
            set.recency.insert(set.recency.begin(), key);
            ASSERT_EQ(table.epoch(), epoch);
            continue;
        }

        ASSERT_EQ(value, 0u) << "op " << op << ": not value-initialised";
        std::size_t way = way_of(std::nullopt);
        std::optional<std::uint64_t> evicted;
        if (way == ways) {
            evicted = set.recency.back();
            set.recency.pop_back();
            way = way_of(*evicted);
        }
        if (set.slot[way] == nullptr) {
            if (way > 0) {
                ASSERT_GT(&value, set.slot[way - 1])
                    << "op " << op << ": not the first invalid way";
            }
            set.slot[way] = &value;
        }
        ASSERT_EQ(&value, set.slot[way]) << "op " << op << " way " << way;
        if (evicted) {
            ASSERT_EQ(table.find(*evicted, *evicted), nullptr)
                << "op " << op << ": key " << *evicted << " not evicted";
        }
        value = payload[key] = ++serial;
        set.way[way] = key;
        set.recency.insert(set.recency.begin(), key);
        ASSERT_EQ(table.epoch(), ++epoch) << "op " << op;
    }
}

// The SLB's shape (one set, a way count that is not a power of two),
// the ERAT's and the count cache's.
INSTANTIATE_TEST_SUITE_P(
    Shapes, LruTableDifferentialTest,
    ::testing::Values(Shape{1, 6}, Shape{32, 4}, Shape{512, 8}),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return std::to_string(info.param.sets) + "x" +
            std::to_string(info.param.ways);
    });

} // namespace
} // namespace jasim
