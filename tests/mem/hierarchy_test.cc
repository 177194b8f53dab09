#include <gtest/gtest.h>

#include "mem/hierarchy.h"

namespace jasim {
namespace {

HierarchyConfig
testConfig()
{
    HierarchyConfig config;
    config.prefetch_enabled = false; // deterministic unless testing it
    return config;
}

TEST(HierarchyTest, TopologyOfStudySystem)
{
    MemoryHierarchy mem(testConfig());
    EXPECT_EQ(mem.config().chips(), 2u);
    EXPECT_EQ(mem.config().mcms(), 2u);
    EXPECT_EQ(mem.chipOf(0), 0u);
    EXPECT_EQ(mem.chipOf(1), 0u);
    EXPECT_EQ(mem.chipOf(2), 1u);
    EXPECT_EQ(mem.chipOf(3), 1u);
}

TEST(HierarchyTest, ColdLoadComesFromMemory)
{
    MemoryHierarchy mem(testConfig());
    const auto outcome = mem.load(0, 0x100000);
    EXPECT_FALSE(outcome.l1_hit);
    EXPECT_EQ(outcome.source, DataSource::Memory);
}

TEST(HierarchyTest, RepeatLoadHitsL1)
{
    MemoryHierarchy mem(testConfig());
    mem.load(0, 0x100000);
    const auto outcome = mem.load(0, 0x100000);
    EXPECT_TRUE(outcome.l1_hit);
    EXPECT_EQ(outcome.source, DataSource::L1);
}

TEST(HierarchyTest, SiblingCoreHitsSharedL2)
{
    MemoryHierarchy mem(testConfig());
    mem.load(0, 0x200000);       // core 0 fills chip 0's L2
    const auto outcome = mem.load(1, 0x200000); // sibling core
    EXPECT_FALSE(outcome.l1_hit);
    EXPECT_EQ(outcome.source, DataSource::L2);
}

TEST(HierarchyTest, CrossMcmSharedTransfer)
{
    MemoryHierarchy mem(testConfig());
    mem.load(0, 0x300000);       // chip 0 holds the line Exclusive
    const auto outcome = mem.load(2, 0x300000); // other MCM
    EXPECT_EQ(outcome.source, DataSource::L2_75Shared);
}

TEST(HierarchyTest, CrossMcmModifiedTransfer)
{
    MemoryHierarchy mem(testConfig());
    mem.store(0, 0x400000);      // chip 0 holds the line Modified
    const auto outcome = mem.load(2, 0x400000);
    EXPECT_EQ(outcome.source, DataSource::L2_75Modified);
}

TEST(HierarchyTest, L3HitAfterL2Eviction)
{
    HierarchyConfig config = testConfig();
    config.l2 = CacheGeometry{16 * 1024, 128, 2}; // tiny L2
    MemoryHierarchy mem(config);
    mem.load(0, 0x0);
    // Blow the tiny L2 with conflicting lines.
    for (Addr a = 0x100000; a < 0x140000; a += 128)
        mem.load(0, a);
    mem.l1d(0).flush();
    const auto outcome = mem.load(0, 0x0);
    EXPECT_EQ(outcome.source, DataSource::L3);
}

TEST(HierarchyTest, StoreMissDoesNotAllocateL1)
{
    MemoryHierarchy mem(testConfig());
    const auto first = mem.store(0, 0x500000);
    EXPECT_FALSE(first.l1_hit);
    // Line is in L2 now, but still not in L1 (write-through no-alloc).
    const auto second = mem.store(0, 0x500000);
    EXPECT_FALSE(second.l1_hit);
    const auto load = mem.load(0, 0x500000);
    EXPECT_FALSE(load.l1_hit);
    EXPECT_EQ(load.source, DataSource::L2);
}

TEST(HierarchyTest, StoreHitAfterLoadFillsL1)
{
    MemoryHierarchy mem(testConfig());
    mem.load(0, 0x600000);
    EXPECT_TRUE(mem.store(0, 0x600000).l1_hit);
}

TEST(HierarchyTest, StoreGainsOwnership)
{
    MemoryHierarchy mem(testConfig());
    mem.load(0, 0x700000);
    mem.load(2, 0x700000); // both chips Shared
    mem.store(0, 0x700000);
    EXPECT_EQ(mem.l2(0).state(mem.l2(0).lineAddr(0x700000)),
              MesiState::Modified);
    EXPECT_EQ(mem.l2(1).state(mem.l2(1).lineAddr(0x700000)),
              MesiState::Invalid);
}

TEST(HierarchyTest, InstructionFetchPath)
{
    MemoryHierarchy mem(testConfig());
    const auto first = mem.fetch(0, 0x800000);
    EXPECT_FALSE(first.l1_hit);
    const auto second = mem.fetch(0, 0x800000);
    EXPECT_TRUE(second.l1_hit);
    // Instructions and data share the unified L2.
    const auto data = mem.load(0, 0x800000);
    EXPECT_EQ(data.source, DataSource::L2);
}

TEST(HierarchyTest, L1InclusionMaintainedOnL2Eviction)
{
    HierarchyConfig config = testConfig();
    config.l2 = CacheGeometry{16 * 1024, 128, 2};
    MemoryHierarchy mem(config);
    mem.load(0, 0x0);
    ASSERT_TRUE(mem.l1d(0).probe(0x0));
    // Evict 0x0 from L2 via conflicting fills.
    for (Addr a = 0x100000; a < 0x180000; a += 128)
        mem.load(1, a);
    // Inclusion: the L2 dropped the line, so the L1 must have too.
    ASSERT_FALSE(mem.l2(0).probe(0x0));
    EXPECT_FALSE(mem.l1d(0).probe(0x0));
}

TEST(HierarchyTest, PrefetchCoversSequentialStream)
{
    HierarchyConfig config = testConfig();
    config.prefetch_enabled = true;
    MemoryHierarchy mem(config);
    std::uint32_t prefetches = 0;
    std::uint64_t misses = 0;
    for (Addr a = 0x900000; a < 0x930000; a += 128) {
        const auto o = mem.load(0, a);
        prefetches += o.l1_prefetches;
        misses += o.l1_hit ? 0 : 1;
    }
    EXPECT_GT(prefetches, 100u);
    // Prefetch hides most line transitions after the ramp.
    EXPECT_LT(misses, 20u);
}

TEST(HierarchyTest, LatenciesOrdered)
{
    const HierarchyConfig config;
    EXPECT_LT(config.lat_l1, config.lat_l2);
    EXPECT_LT(config.lat_l2, config.lat_l3);
    EXPECT_LT(config.lat_l3, config.lat_l2_75_shared);
    EXPECT_LT(config.lat_l2_75_shared, config.lat_memory);
}

TEST(HierarchyTest, FlushAllEmptiesEverything)
{
    MemoryHierarchy mem(testConfig());
    mem.load(0, 0xA00000);
    mem.flushAll();
    EXPECT_EQ(mem.l1d(0).validLines(), 0u);
    EXPECT_EQ(mem.l2(0).validLines(), 0u);
    EXPECT_EQ(mem.l3(0).validLines(), 0u);
}

} // namespace
} // namespace jasim
