#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>

#include "jvm/gc.h"
#include "stats/digest.h"

namespace jasim {
namespace {

GcConfig
smallConfig()
{
    GcConfig config;
    config.heap.size_bytes = 64ull * 1024 * 1024;
    config.baseline_bytes = 8ull * 1024 * 1024;
    return config;
}

TEST(GcTest, BaselineAllocatedAtStartup)
{
    GarbageCollector gc(smallConfig(), 1);
    EXPECT_GE(gc.heap().usedBytes(), smallConfig().baseline_bytes);
    EXPECT_GT(gc.graph().cellCount(), 0u);
}

TEST(GcTest, AllocationFailsWhenHeapFull)
{
    GarbageCollector gc(smallConfig(), 2);
    SimTime now = 0;
    bool failed = false;
    for (int i = 0; i < 10000; ++i) {
        now += millis(1);
        if (!gc.allocate(64 * 1024, now)) {
            failed = true;
            break;
        }
    }
    EXPECT_TRUE(failed);
}

TEST(GcTest, CollectReclaimsDeadTransients)
{
    GarbageCollector gc(smallConfig(), 3);
    SimTime now = 0;
    while (gc.allocate(64 * 1024, now))
        now += millis(2);
    const auto used_before = gc.heap().usedBytes();
    const GcEvent event = gc.collect(now + secs(30));
    EXPECT_GT(event.freed_bytes, 0u);
    EXPECT_LT(gc.heap().usedBytes(), used_before);
    EXPECT_EQ(event.used_before, used_before);
    // Baseline survives: live never drops below the startup set.
    EXPECT_GE(event.live_bytes, smallConfig().baseline_bytes / 2);
    EXPECT_TRUE(gc.heap().accountingConsistent());
}

TEST(GcTest, MarkDominatesPause)
{
    GarbageCollector gc(smallConfig(), 4);
    SimTime now = 0;
    while (gc.allocate(64 * 1024, now))
        now += millis(2);
    const GcEvent event = gc.collect(now + secs(30));
    EXPECT_GT(event.mark_ms, event.sweep_ms);
    EXPECT_GT(event.pauseMs(), 0.0);
    EXPECT_FALSE(event.compacted); // low fragmentation early on
}

TEST(GcTest, AllocationSucceedsAfterCollect)
{
    GarbageCollector gc(smallConfig(), 5);
    SimTime now = 0;
    while (gc.allocate(64 * 1024, now))
        now += millis(2);
    gc.collect(now + secs(30));
    EXPECT_TRUE(gc.allocate(64 * 1024, now + secs(30)));
}

TEST(GcTest, SteadyStateCycle)
{
    // Allocate at a fixed rate and let GCs trigger naturally; the
    // interval between collections should be roughly constant and the
    // live set bounded (paper Figure 3's character).
    GcConfig config = smallConfig();
    GarbageCollector gc(config, 6);
    SimTime now = 0;
    std::vector<SimTime> gc_times;
    for (int step = 0; step < 40000 && gc_times.size() < 6; ++step) {
        now += millis(1);
        if (!gc.allocate(16 * 1024, now)) { // ~16 MB/s
            gc.collect(now);
            gc_times.push_back(now);
            ASSERT_TRUE(gc.allocate(16 * 1024, now));
        }
    }
    ASSERT_GE(gc_times.size(), 4u);
    std::vector<double> gaps;
    for (std::size_t i = 2; i < gc_times.size(); ++i)
        gaps.push_back(toSeconds(gc_times[i] - gc_times[i - 1]));
    const double first = gaps.front();
    for (const double g : gaps) {
        EXPECT_GT(g, first * 0.6);
        EXPECT_LT(g, first * 1.7);
    }
    // Live set bounded well below the heap.
    EXPECT_LT(gc.lastLiveBytes(), config.heap.size_bytes * 3 / 4);
    EXPECT_EQ(gc.log().events().size(), gc_times.size());
}

TEST(GcTest, CompactionTriggersOnHighFragmentation)
{
    GcConfig config = smallConfig();
    config.compact_dark_fraction = 0.0000001; // force compaction
    GarbageCollector gc(config, 7);
    SimTime now = 0;
    while (gc.allocate(64 * 1024, now))
        now += millis(2);
    // Dark matter needs at least one sliver; churn a little first.
    const GcEvent event = gc.collect(now + secs(30));
    if (event.dark_bytes == 0 && !event.compacted) {
        // Extremely clean heap; force another cycle.
        while (gc.allocate(32 * 1024, now + secs(31))) {
        }
        const GcEvent second = gc.collect(now + secs(60));
        EXPECT_TRUE(second.compacted || second.dark_bytes == 0);
    } else {
        EXPECT_TRUE(event.compacted);
        EXPECT_EQ(event.dark_bytes, 0u);
        EXPECT_GT(event.compact_ms, 0.0);
    }
    EXPECT_TRUE(gc.heap().accountingConsistent());
}

TEST(GcTest, HeapSmallerThanBaselineThrows)
{
    GcConfig config; // 120 MB startup baseline
    config.heap.size_bytes = 100ull << 20;
    try {
        GarbageCollector gc(config, 1);
        FAIL() << "a 100 MB heap took the 120 MB baseline";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("104857600"), std::string::npos) << what;
        EXPECT_NE(what.find("125829120"), std::string::npos) << what;
    }
    config.heap.size_bytes = 0;
    EXPECT_THROW(GarbageCollector(config, 1), std::invalid_argument);
    config.heap.size_bytes = 121ull << 20;
    EXPECT_NO_THROW(GarbageCollector(config, 1));
}

TEST(GcTest, ExactnessDigestIsPinned)
{
    // jbench's four per-transaction allocation sizes (browse,
    // purchase, manage, work order) at 30 per simulated second for
    // 120 s on a 320 MB heap, collecting whenever an allocation
    // fails. Which free chunk each cell takes -- best fit, the first
    // inserted among equal sizes, sweep frees in cell-map order --
    // decides the fragmentation every later number depends on. The
    // digest was taken from the map-based heap this one replaced;
    // freeing a sweep in offset order instead changes it.
    GcConfig config;
    config.heap.size_bytes = 320ull << 20;
    GarbageCollector gc(config, 1000);
    const std::uint64_t kib[] = {300, 550, 500, 700};
    Digest digest;
    for (int i = 0; i < 30 * 120; ++i) {
        const SimTime now = secs(static_cast<double>(i) / 30.0);
        const std::uint64_t bytes = kib[i % 4] << 10;
        bool ok = gc.allocate(bytes, now);
        digest.mix(ok);
        if (ok)
            continue;
        const GcEvent e = gc.collect(now);
        digest.mix(e.start);
        digest.mix(static_cast<std::uint64_t>(e.cause));
        digest.mix(std::bit_cast<std::uint64_t>(e.mark_ms));
        digest.mix(std::bit_cast<std::uint64_t>(e.sweep_ms));
        digest.mix(std::bit_cast<std::uint64_t>(e.compact_ms));
        digest.mix(e.compacted);
        digest.mix(e.used_before);
        digest.mix(e.used_after);
        digest.mix(e.live_bytes);
        digest.mix(e.dark_bytes);
        digest.mix(e.freed_bytes);
        digest.mix(e.live_cells);
        digest.mix(e.reclaimed_cells);
        digest.mix(gc.heap().freeChunkCount());
        digest.mix(gc.heap().darkBytes());
        ok = gc.allocate(bytes, now);
        ASSERT_TRUE(ok) << "allocation failed right after a collection";
        digest.mix(ok);
    }
    EXPECT_EQ(gc.log().events().size(), 10u);
    EXPECT_EQ(digest.value(), 0xdfe08e294f7ea777ull);
}

} // namespace
} // namespace jasim
