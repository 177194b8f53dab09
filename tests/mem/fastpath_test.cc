/**
 * @file
 * Exactness tests for the memory-path fast path.
 *
 * The MRU line memos, the presence-filtered snoops and L3 probes and
 * the prefetcher's repeat memo always run, so they are only allowed
 * to exist because they are provably invisible: every outcome, counter
 * and replacement decision must equal the plain walk kept in
 * reference_memory.h. These tests pin the mechanisms that proof rests
 * on -- epoch invalidation on every contents change and the presence
 * filter's exact negatives -- and replay seeded access scripts through
 * both hierarchies, comparing them op by op.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "mem/cache.h"
#include "mem/coherence.h"
#include "mem/hierarchy.h"
#include "mem/prefetcher.h"
#include "reference_memory.h"
#include "sim/rng.h"
#include "stats/counter.h"

namespace jasim {
namespace {

// ---------------------------------------------------------------------
// Epoch invalidation: every event that can change a future outcome
// must advance the epoch; plain hits must not.

TEST(CacheEpochTest, FillAdvancesEpoch)
{
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    const std::uint64_t before = cache.epoch();
    cache.fill(0x1000, MesiState::Exclusive);
    EXPECT_GT(cache.epoch(), before);
}

TEST(CacheEpochTest, HitLeavesEpochUntouched)
{
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    cache.fill(0x1000, MesiState::Exclusive);
    const std::uint64_t armed = cache.epoch();
    cache.access(0x1000, true);
    cache.access(0x1040, true); // same line, different offset
    EXPECT_EQ(cache.epoch(), armed);
}

TEST(CacheEpochTest, RedundantFillLeavesEpochUntouched)
{
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    cache.fill(0x1000, MesiState::Shared);
    const std::uint64_t armed = cache.epoch();
    cache.fill(0x1000, MesiState::Shared); // same state, same kind
    EXPECT_EQ(cache.epoch(), armed);
}

TEST(CacheEpochTest, EvictionAdvancesEpoch)
{
    // 2 ways, 128 B lines, 4096 B => 16 sets; three lines mapping to
    // set 0 force an eviction on the third fill.
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    cache.fill(0x0000, MesiState::Exclusive);
    cache.fill(0x0800, MesiState::Exclusive);
    const std::uint64_t armed = cache.epoch();
    const auto result = cache.fill(0x1000, MesiState::Exclusive);
    ASSERT_TRUE(result.victim.has_value());
    EXPECT_GT(cache.epoch(), armed);
}

TEST(CacheEpochTest, CoherenceDowngradeAdvancesEpoch)
{
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    cache.fill(0x1000, MesiState::Modified);
    const std::uint64_t armed = cache.epoch();
    cache.setState(0x1000, MesiState::Shared); // snoop downgrade
    EXPECT_GT(cache.epoch(), armed);
    // A no-op state write is not a contents change.
    const std::uint64_t again = cache.epoch();
    cache.setState(0x1000, MesiState::Shared);
    EXPECT_EQ(cache.epoch(), again);
}

TEST(CacheEpochTest, InvalidateAndFlushAdvanceEpoch)
{
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    cache.fill(0x1000, MesiState::Exclusive);
    std::uint64_t armed = cache.epoch();
    EXPECT_TRUE(cache.invalidate(0x1000));
    EXPECT_GT(cache.epoch(), armed);
    // Invalidating an absent line changes nothing.
    armed = cache.epoch();
    EXPECT_FALSE(cache.invalidate(0x1000));
    EXPECT_EQ(cache.epoch(), armed);
    cache.fill(0x2000, MesiState::Exclusive);
    armed = cache.epoch();
    cache.flush();
    EXPECT_GT(cache.epoch(), armed);
}

// ---------------------------------------------------------------------
// Presence filter: exact negatives, no false negatives ever.

TEST(PresenceFilterTest, EmptyCacheMayContainNothing)
{
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    cache.enablePresenceFilter(64);
    EXPECT_FALSE(cache.mayContain(0x1000));
    EXPECT_FALSE(cache.mayContain(0xdeadbe00));
}

TEST(PresenceFilterTest, DisabledFilterAlwaysSaysMaybe)
{
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    EXPECT_TRUE(cache.mayContain(0x1000));
}

TEST(PresenceFilterTest, NoFalseNegativesUnderChurn)
{
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    cache.enablePresenceFilter(16); // tiny: force bucket collisions
    // Fill far more lines than the cache holds so installs and
    // evictions churn the counters.
    std::vector<Addr> lines;
    for (Addr a = 0; a < 64; ++a)
        lines.push_back(a * 128);
    for (const Addr line : lines)
        cache.fill(line, MesiState::Exclusive);
    // Every line still resident must report "maybe present".
    for (const Addr line : lines) {
        if (cache.probe(line)) {
            EXPECT_TRUE(cache.mayContain(line)) << std::hex << line;
        }
    }
}

TEST(PresenceFilterTest, CountReturnsToZeroAfterInvalidate)
{
    SetAssocCache cache({4096, 128, 2}, ReplacementPolicy::LRU);
    cache.enablePresenceFilter(64);
    cache.fill(0x1000, MesiState::Exclusive);
    EXPECT_TRUE(cache.mayContain(0x1000));
    cache.invalidate(0x1000);
    EXPECT_FALSE(cache.mayContain(0x1000));
    cache.fill(0x1000, MesiState::Exclusive);
    cache.setState(0x1000, MesiState::Invalid); // coherence removal
    EXPECT_FALSE(cache.mayContain(0x1000));
    cache.fill(0x1000, MesiState::Exclusive);
    cache.flush();
    EXPECT_FALSE(cache.mayContain(0x1000));
}

// ---------------------------------------------------------------------
// Snoop filter at the bus: skips are counted, and a filtered snoop
// returns exactly what an unfiltered one would.

TEST(SnoopFilterTest, SkipsEmptyRemoteAndFindsResidentLine)
{
    SetAssocCache l2a({4096, 128, 2}, ReplacementPolicy::LRU);
    SetAssocCache l2b({4096, 128, 2}, ReplacementPolicy::LRU);
    l2a.enablePresenceFilter(64);
    l2b.enablePresenceFilter(64);
    MesiBus bus({&l2a, &l2b});

    // Remote (l2b) holds nothing: the walk is skipped outright.
    SnoopResult miss = bus.snoopRead(0, 0x1000);
    EXPECT_FALSE(miss.found);
    EXPECT_EQ(bus.filterSkips(), 1u);

    // Once the remote holds the line, the filter must let the snoop
    // through and the usual downgrade must happen.
    l2b.fill(0x1000, MesiState::Exclusive);
    SnoopResult hit = bus.snoopRead(0, 0x1000);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.supplier, 1u);
    EXPECT_EQ(bus.filterSkips(), 1u); // unchanged
    EXPECT_EQ(l2b.state(0x1000), MesiState::Shared);
}

// ---------------------------------------------------------------------
// Prefetcher repeat memo: every decision equals the reference
// prefetcher's, which scans its streams on every observe.

void
expectSameDecision(const PrefetchDecision &fast, const ref::Prefetch &plain,
                   std::size_t step)
{
    ASSERT_EQ(fast.stream_allocated, plain.stream_allocated) << "step " << step;
    ASSERT_EQ(fast.l1_lines.size(), plain.l1_lines.size()) << "step " << step;
    ASSERT_EQ(fast.l2_lines.size(), plain.l2_lines.size()) << "step " << step;
    for (std::size_t i = 0; i < plain.l1_lines.size(); ++i)
        ASSERT_EQ(fast.l1_lines[i], plain.l1_lines[i]) << "step " << step;
    for (std::size_t i = 0; i < plain.l2_lines.size(); ++i)
        ASSERT_EQ(fast.l2_lines[i], plain.l2_lines[i]) << "step " << step;
}

TEST(PrefetcherFastpathTest, RepeatMemoMatchesSlowDecisions)
{
    // A walk of advancing misses, each followed by same-line hits (the
    // memoized case).
    std::vector<std::pair<Addr, bool>> trace;
    for (Addr line = 0x1000; line < 0x3000; line += 128) {
        trace.push_back({line, true}); // advancing miss
        for (int r = 0; r < 4; ++r)
            trace.push_back({line + 16, false}); // same-line hits
    }
    // Then a seeded stream over 24 lines: repeated misses on one line
    // start a second stream with the same next line, which the memo
    // must not hide, and more than eight streams replace old ones.
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const Addr line = 0x8000 + rng.below(24) * 128;
        const auto repeats = 1 + rng.below(4);
        for (std::uint64_t r = 0; r < repeats; ++r)
            trace.push_back({line + rng.below(128), rng.below(3) == 0});
    }

    StreamPrefetcher memo(128);
    ref::Prefetcher plain(128);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &[addr, was_miss] = trace[i];
        ASSERT_NO_FATAL_FAILURE(expectSameDecision(
            memo.observe(addr, was_miss), plain.observe(addr, was_miss), i));
        ASSERT_EQ(memo.activeStreams(), plain.activeStreams()) << "step " << i;
    }
}

// ---------------------------------------------------------------------
// End-to-end: seeded scripts of loads, stores, fetches and flushes run
// through the hierarchy and through the reference's plain walk
// ("off"); every outcome, every folded counter and every cache's
// contents must match.

enum class OpKind : std::uint8_t { Load, Store, Fetch, Flush };

struct Op
{
    OpKind kind;
    std::size_t core;
    Addr addr;
};

struct Script
{
    std::string name;
    HierarchyConfig config;
    std::vector<Op> ops;
};

/** Caches small enough that evictions and back-invalidations abound. */
HierarchyConfig
tinyConfig()
{
    HierarchyConfig config;
    config.l1i = {2 * 1024, 128, 2};
    config.l1d = {2 * 1024, 128, 2};
    config.l2 = {8 * 1024, 128, 4};
    config.l3 = {32 * 1024, 512, 4};
    return config;
}

/**
 * `count` ops in bursts of up to `max_burst`: each burst is one core
 * on one 128-byte line drawn from the `span` bytes at `base`, each op
 * a random kind (`load_pct`% loads, `store_pct`% stores, the rest
 * fetches) at a random offset in that line.
 */
std::vector<Op>
burstOps(std::uint64_t seed, std::size_t cores, std::size_t count,
         Addr base, std::uint64_t span, unsigned load_pct,
         unsigned store_pct, unsigned max_burst)
{
    Rng rng(seed);
    std::vector<Op> ops;
    while (ops.size() < count) {
        const std::size_t core = rng.below(cores);
        const Addr line = (base + rng.below(span)) & ~Addr{127};
        const auto burst = 1 + rng.below(max_burst);
        for (std::uint64_t b = 0; b < burst; ++b) {
            const auto roll = rng.below(100);
            const OpKind kind = roll < load_pct ? OpKind::Load
                : roll < load_pct + store_pct  ? OpKind::Store
                                               : OpKind::Fetch;
            ops.push_back({kind, core, line + rng.below(128)});
        }
    }
    return ops;
}

/**
 * A stream shaped like the window simulator's (and micro_memwalk's):
 * each core in turn runs 64 instructions; every instruction fetches
 * sequentially with occasional jumps, about a third load in same-line
 * bursts over a hot set, a sequential walker, a cold slice and a
 * slice all cores share, and some store to the last loaded line.
 */
std::vector<Op>
sutOps(std::uint64_t seed, std::size_t cores, std::size_t insts)
{
    constexpr Addr code = 0x1000'0000;
    constexpr Addr heap = 0x4000'0000;
    constexpr std::uint64_t shared = 256 * 1024;
    constexpr std::uint64_t priv = 4 << 20;
    struct Cursor
    {
        Addr pc = code;
        Addr line = heap;
        std::uint64_t left = 0;
        std::uint64_t walk = 0;
    };
    std::vector<Cursor> cursors(cores);
    Rng rng(seed);
    std::vector<Op> ops;
    for (std::size_t i = 0; i < insts; ++i) {
        const std::size_t core = i / 64 % cores;
        Cursor &c = cursors[core];
        if (rng.below(100) < 3)
            c.pc = code + rng.below(1 << 21) / 64 * 64;
        ops.push_back({OpKind::Fetch, core, c.pc});
        c.pc += 4;
        if (rng.below(100) < 30) {
            if (c.left == 0) {
                const Addr own = heap + shared + core * priv;
                const auto pick = rng.below(100);
                if (pick < 5)
                    c.line = heap + rng.below(shared) / 128 * 128;
                else if (pick < 10)
                    c.line = own + rng.below(priv) / 128 * 128;
                else if (pick < 30) {
                    c.walk = (c.walk + 128) % (1 << 20);
                    c.line = own + c.walk;
                } else {
                    c.line = own + rng.below(32 * 1024) / 128 * 128;
                }
                c.left = 6 + rng.below(8);
            }
            ops.push_back({OpKind::Load, core, c.line + rng.below(128)});
            --c.left;
        }
        if (rng.below(100) < 8)
            ops.push_back({OpKind::Store, core, c.line + rng.below(128)});
    }
    return ops;
}

std::vector<Script>
scripts()
{
    std::vector<Script> all;
    const auto flushMidway = [](std::vector<Op> ops) {
        ops.insert(ops.begin() + ops.size() / 2, Op{OpKind::Flush, 0, 0});
        return ops;
    };

    // The study topology: four cores, two chips, two MCMs.
    all.push_back({"study, mixed, flushed midway", HierarchyConfig{},
                   flushMidway(burstOps(1, 4, 20000, 0, 1 << 20, 50, 20,
                                        3))});
    // Lines every core shares: reads downgrade M and E to S, stores
    // upgrade S to M and invalidate the other chip's copy.
    all.push_back({"study, shared lines", HierarchyConfig{},
                   burstOps(2, 4, 20000, 0x200000, 32 * 128, 45, 35, 4)});
    // Tiny caches: L2 victims back-invalidate the L1s, L3 victims send
    // lines back to memory, and other MCMs' L3s supply L3.5 hits.
    all.push_back({"study, tiny caches, flushed midway", tinyConfig(),
                   flushMidway(burstOps(3, 4, 30000, 0, 256 * 1024, 45, 20,
                                        4))});
    {
        HierarchyConfig config = tinyConfig();
        config.prefetch_enabled = false;
        all.push_back({"study, tiny caches, prefetch off", config,
                       burstOps(4, 4, 20000, 0, 256 * 1024, 50, 20, 4)});
    }
    {
        HierarchyConfig config = tinyConfig();
        config.l2_instruction_friendly = true;
        all.push_back({"study, tiny caches, instruction-friendly L2",
                       config,
                       burstOps(5, 4, 20000, 0, 128 * 1024, 30, 10, 4)});
    }
    // Eight cores, two chips per MCM: the sibling chip's L2 supplies
    // L2.5 hits.
    {
        HierarchyConfig config = tinyConfig();
        config.cores = 8;
        config.chips_per_mcm = 2;
        all.push_back({"eight cores, two chips per MCM", config,
                       burstOps(6, 8, 30000, 0, 64 * 1024, 45, 25, 4)});
    }
    all.push_back({"study, SUT-shaped, flushed midway", HierarchyConfig{},
                   flushMidway(sutOps(7, 4, 60000))});
    return all;
}

/** Run one op on either hierarchy. */
template <typename Memory>
MemAccessOutcome
apply(Memory &mem, const Op &op)
{
    switch (op.kind) {
      case OpKind::Load: return mem.load(op.core, op.addr);
      case OpKind::Store: return mem.store(op.core, op.addr);
      case OpKind::Fetch: return mem.fetch(op.core, op.addr);
      case OpKind::Flush: break;
    }
    mem.flushAll();
    return {};
}

/** Same residency and MESI state of `addr` at every level. */
void
expectSameLine(MemoryHierarchy &fast, ref::MemoryHierarchy &plain,
               const HierarchyConfig &config, Addr addr)
{
    for (std::size_t c = 0; c < config.cores; ++c) {
        ASSERT_EQ(fast.l1d(c).probe(addr), plain.l1d(c).probe(addr));
        ASSERT_EQ(fast.l1i(c).probe(addr), plain.l1i(c).probe(addr));
    }
    for (std::size_t chip = 0; chip < config.chips(); ++chip)
        ASSERT_EQ(fast.l2(chip).state(addr), plain.l2(chip).state(addr));
    for (std::size_t m = 0; m < config.mcms(); ++m)
        ASSERT_EQ(fast.l3(m).probe(addr), plain.l3(m).probe(addr));
}

TEST(HierarchyFastpathTest, OutcomesBitIdenticalOnVsOff)
{
    std::array<std::uint64_t, MemHotCounters::sourceCount> sources{};
    std::uint64_t memo_hits = 0;
    std::uint64_t filter_skips = 0;
    for (const Script &script : scripts()) {
        SCOPED_TRACE(script.name);
        MemoryHierarchy fast(script.config);
        ref::MemoryHierarchy plain(script.config);
        for (std::size_t i = 0; i < script.ops.size(); ++i) {
            const Op &op = script.ops[i];
            const MemAccessOutcome a = apply(fast, op);
            const MemAccessOutcome b = apply(plain, op);
            ASSERT_EQ(a.l1_hit, b.l1_hit) << "op " << i;
            ASSERT_EQ(a.source, b.source) << "op " << i;
            ASSERT_EQ(a.latency, b.latency) << "op " << i;
            ASSERT_EQ(a.stream_allocated, b.stream_allocated) << "op " << i;
            ASSERT_EQ(a.l1_prefetches, b.l1_prefetches) << "op " << i;
            ASSERT_EQ(a.l2_prefetches, b.l2_prefetches) << "op " << i;
            if (op.kind != OpKind::Flush)
                ++sources[static_cast<std::size_t>(a.source)];
        }

        CounterSet fa, pa;
        fast.hotCounters().foldInto(fa);
        plain.hotCounters().foldInto(pa);
        EXPECT_EQ(fa.snapshot(), pa.snapshot());
        const HierarchyConfig &config = script.config;
        for (std::size_t c = 0; c < config.cores; ++c) {
            EXPECT_EQ(fast.l1d(c).validLines(), plain.l1d(c).validLines());
            EXPECT_EQ(fast.l1i(c).validLines(), plain.l1i(c).validLines());
        }
        for (std::size_t chip = 0; chip < config.chips(); ++chip)
            EXPECT_EQ(fast.l2(chip).validLines(), plain.l2(chip).validLines());
        for (std::size_t m = 0; m < config.mcms(); ++m)
            EXPECT_EQ(fast.l3(m).validLines(), plain.l3(m).validLines());
        for (const Op &op : script.ops) {
            ASSERT_NO_FATAL_FAILURE(
                expectSameLine(fast, plain, config, op.addr))
                << std::hex << op.addr;
        }

        memo_hits += fast.hotCounters().mruDataHits() +
                     fast.hotCounters().mruInstHits();
        filter_skips += fast.snoopFilterSkips();
    }

    // The scripts reach every source and engage both accelerators;
    // otherwise this test proves nothing.
    for (std::size_t s = 0; s < sources.size(); ++s) {
        EXPECT_GT(sources[s], 0u)
            << dataSourceName(static_cast<DataSource>(s));
    }
    EXPECT_GT(memo_hits, 0u);
    EXPECT_GT(filter_skips, 0u);
}

TEST(HierarchyFastpathTest, FlushAllKillsMemos)
{
    MemoryHierarchy mem(HierarchyConfig{});
    mem.load(0, 0x1000);
    mem.load(0, 0x1000); // memo hit
    const std::uint64_t hits = mem.hotCounters().mruDataHits();
    EXPECT_GT(hits, 0u);
    mem.flushAll();
    // After a flush the next access must take the full walk (cold).
    const auto outcome = mem.load(0, 0x1000);
    EXPECT_FALSE(outcome.l1_hit);
    EXPECT_EQ(mem.hotCounters().mruDataHits(), hits);
}

} // namespace
} // namespace jasim
