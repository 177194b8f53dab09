#include <gtest/gtest.h>

#include "mem/cache.h"

namespace jasim {
namespace {

CacheGeometry
smallGeometry()
{
    return CacheGeometry{1024, 64, 2}; // 8 sets x 2 ways
}

TEST(CacheTest, MissThenHit)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    EXPECT_FALSE(cache.access(0x1000, true).hit);
    EXPECT_TRUE(cache.access(0x1000, true).hit);
    EXPECT_TRUE(cache.access(0x1010, true).hit); // same line
}

TEST(CacheTest, NonAllocatingAccessDoesNotFill)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    EXPECT_FALSE(cache.access(0x2000, false).hit);
    EXPECT_FALSE(cache.probe(0x2000));
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    // Three lines mapping to the same set (stride = sets * line = 512).
    cache.access(0x0000, true);
    cache.access(0x0200, true);
    cache.access(0x0000, true); // refresh first line
    const auto result = cache.access(0x0400, true);
    ASSERT_TRUE(result.victim.has_value());
    EXPECT_EQ(*result.victim, 0x0200u);
    EXPECT_TRUE(cache.probe(0x0000));
}

TEST(CacheTest, FifoIgnoresHits)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::FIFO);
    cache.access(0x0000, true);
    cache.access(0x0200, true);
    cache.access(0x0000, true); // hit does not refresh under FIFO
    const auto result = cache.access(0x0400, true);
    ASSERT_TRUE(result.victim.has_value());
    EXPECT_EQ(*result.victim, 0x0000u); // oldest fill evicted
}

TEST(CacheTest, VictimCarriesState)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    cache.access(0x0000, true, MesiState::Modified);
    cache.access(0x0200, true);
    const auto result = cache.access(0x0400, true);
    ASSERT_TRUE(result.victim.has_value());
    EXPECT_EQ(result.victim_state, MesiState::Modified);
}

TEST(CacheTest, StateManipulation)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    cache.access(0x1000, true, MesiState::Exclusive);
    EXPECT_EQ(cache.state(0x1000), MesiState::Exclusive);
    EXPECT_TRUE(cache.setState(0x1000, MesiState::Shared));
    EXPECT_EQ(cache.state(0x1000), MesiState::Shared);
    EXPECT_FALSE(cache.setState(0x9999000, MesiState::Shared));
}

TEST(CacheTest, InvalidateRemovesLine)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    cache.access(0x1000, true);
    EXPECT_TRUE(cache.invalidate(0x1000));
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_FALSE(cache.invalidate(0x1000));
}

TEST(CacheTest, FillRefreshesExistingLine)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    cache.fill(0x1000, MesiState::Shared);
    const auto again = cache.fill(0x1000, MesiState::Modified);
    EXPECT_TRUE(again.hit);
    EXPECT_EQ(cache.state(0x1000), MesiState::Modified);
    EXPECT_EQ(cache.validLines(), 1u);
}

TEST(CacheTest, FlushEmptiesCache)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    for (Addr a = 0; a < 1024; a += 64)
        cache.access(a, true);
    EXPECT_GT(cache.validLines(), 0u);
    cache.flush();
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(CacheTest, CapacityNeverExceeded)
{
    for (const auto policy :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO}) {
        SetAssocCache cache(smallGeometry(), policy);
        for (Addr a = 0; a < 64 * 1024; a += 64)
            cache.access(a, true);
        EXPECT_LE(cache.validLines(), 16u); // 8 sets x 2 ways
    }
}

TEST(CacheTest, LineAddrMasksOffset)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    EXPECT_EQ(cache.lineAddr(0x1234), 0x1200u & ~Addr{63});
}

TEST(CacheTest, InstructionFriendlyProtectsInstructionLines)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    cache.setInstructionFriendly(true);
    // Fill a set with one instruction line and one data line.
    cache.fill(0x0000, MesiState::Exclusive, LineKind::Instruction);
    cache.fill(0x0200, MesiState::Exclusive, LineKind::Data);
    // Next conflicting fill must evict the data line, not the
    // instruction line, regardless of LRU order.
    const auto result =
        cache.fill(0x0400, MesiState::Exclusive, LineKind::Data);
    ASSERT_TRUE(result.victim.has_value());
    EXPECT_EQ(*result.victim, 0x0200u);
    EXPECT_TRUE(cache.probe(0x0000));
}

TEST(CacheTest, InstructionFriendlyFallsBackWhenAllInstruction)
{
    SetAssocCache cache(smallGeometry(), ReplacementPolicy::LRU);
    cache.setInstructionFriendly(true);
    cache.fill(0x0000, MesiState::Exclusive, LineKind::Instruction);
    cache.fill(0x0200, MesiState::Exclusive, LineKind::Instruction);
    const auto result =
        cache.fill(0x0400, MesiState::Exclusive, LineKind::Instruction);
    EXPECT_TRUE(result.victim.has_value()); // LRU among instructions
}

/** Property sweep over geometries: full-set fills evict exactly once
 *  per way overflow and hits never report victims. */
class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometrySweep, WorkingSetSmallerThanCacheAlwaysHits)
{
    const auto [ways, line] = GetParam();
    const CacheGeometry g{static_cast<std::uint64_t>(64 * ways * line),
                          static_cast<std::uint32_t>(line),
                          static_cast<std::uint32_t>(ways)};
    SetAssocCache cache(g, ReplacementPolicy::LRU);
    // Touch every line once, then everything must hit.
    for (Addr a = 0; a < g.size_bytes; a += g.line_bytes)
        cache.access(a, true);
    for (Addr a = 0; a < g.size_bytes; a += g.line_bytes)
        EXPECT_TRUE(cache.access(a, true).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(32, 64, 128)));

} // namespace
} // namespace jasim
