/**
 * Differential test: jasim::Heap against the map-based ReferenceHeap.
 *
 * Both heaps receive the same seeded calls -- allocate, single free,
 * batch free (the reference frees the batch one block at a time, in
 * the given order) and compact. After every call they must agree on
 * the offset returned (or the failure), usedBytes, usableBytes,
 * darkBytes, freeChunkCount and the allocation credit, and no
 * allocate(c) may lower the credit by more than c. Request sizes come
 * from small sets so that chunks of equal size, and with them
 * tie-breaks, are common.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "jvm/heap.h"
#include "reference_heap.h"
#include "sim/rng.h"

namespace jasim {
namespace {

/** The heap under test and the reference, driven in lockstep. */
class Twin
{
  public:
    explicit Twin(const HeapConfig &config) : heap_(config), ref_(config)
    {
    }

    /** Calls that used a chunk up, and that placed 64 KiB. */
    struct Counts
    {
        std::size_t exact_fits = 0;
        std::size_t full_cells = 0;
    };

    std::optional<std::uint64_t> allocate(std::uint64_t bytes)
    {
        const std::uint64_t credit = heap_.credit();
        const std::size_t chunks = heap_.freeChunkCount();
        const auto got = heap_.allocate(bytes);
        const auto want = ref_.allocate(bytes);
        EXPECT_EQ(got, want) << "allocate(" << bytes << ")";
        // The bound the heap worker rests on.
        EXPECT_LE(heap_.credit(), credit) << "allocate(" << bytes << ")";
        EXPECT_LE(credit - std::min(credit, heap_.credit()), bytes)
            << "allocate(" << bytes << ") from credit " << credit;
        if (got) {
            counts_.exact_fits += heap_.freeChunkCount() < chunks;
            counts_.full_cells += bytes == Heap::maxBinnedBytes;
        }
        return got;
    }

    void free(std::uint64_t offset, std::uint64_t bytes)
    {
        heap_.free(offset, bytes);
        ref_.free(offset, bytes);
    }

    /** Frees `blocks` as one batch here, one by one in the reference. */
    void freeBatch(std::vector<Heap::Block> blocks)
    {
        for (const Heap::Block &block : blocks)
            ref_.free(block.offset, block.bytes);
        heap_.free(blocks);
    }

    void compact(std::uint64_t live_bytes)
    {
        EXPECT_EQ(heap_.compact(live_bytes), ref_.compact(live_bytes));
    }

    /** Every observable of the two heaps matches. */
    ::testing::AssertionResult agrees() const
    {
        if (heap_.usedBytes() != ref_.usedBytes() ||
            heap_.usableBytes() != ref_.usableBytes() ||
            heap_.darkBytes() != ref_.darkBytes() ||
            heap_.freeChunkCount() != ref_.freeChunkCount() ||
            heap_.credit() != ref_.credit()) {
            return ::testing::AssertionFailure()
                << "used " << heap_.usedBytes() << " vs "
                << ref_.usedBytes() << ", usable " << heap_.usableBytes()
                << " vs " << ref_.usableBytes() << ", dark "
                << heap_.darkBytes() << " vs " << ref_.darkBytes()
                << ", chunks " << heap_.freeChunkCount() << " vs "
                << ref_.freeChunkCount() << ", credit " << heap_.credit()
                << " vs " << ref_.credit();
        }
        if (!heap_.accountingConsistent())
            return ::testing::AssertionFailure() << "heap inconsistent";
        return ::testing::AssertionSuccess();
    }

    const Heap &heap() const { return heap_; }
    const Counts &counts() const { return counts_; }

  private:
    Heap heap_;
    ReferenceHeap ref_;
    Counts counts_;
};

/** One collector-like run: fill, sweep a batch, sometimes compact. */
struct Script
{
    std::uint64_t seed;
    std::uint64_t heap_bytes;
    std::uint32_t dark_threshold;
    std::vector<std::uint64_t> sizes;
    int cycles;
};

/** Runs `script`, adding its Twin's counts to `total`. */
void
runScript(const Script &script, Twin::Counts &total)
{
    HeapConfig config;
    config.size_bytes = script.heap_bytes;
    config.dark_threshold = script.dark_threshold;
    Twin twin(config);
    Rng rng(script.seed);
    std::vector<Heap::Block> live;

    auto freeOne = [&] {
        const std::size_t pick = rng.below(live.size());
        twin.free(live[pick].offset, live[pick].bytes);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    };

    for (int cycle = 0; cycle < script.cycles; ++cycle) {
        // Mutator: allocate until the heap refuses, with a few single
        // frees mixed in.
        for (int step = 0;; ++step) {
            if (!live.empty() && rng.chance(0.08)) {
                freeOne();
            } else {
                const std::uint64_t bytes =
                    script.sizes[rng.below(script.sizes.size())];
                const auto offset = twin.allocate(bytes);
                if (!offset)
                    break;
                live.push_back({*offset, static_cast<std::uint32_t>(bytes),
                                0});
            }
            ASSERT_TRUE(twin.agrees())
                << "seed " << script.seed << " cycle " << cycle
                << " step " << step;
        }

        // Collector: free a random share of the live blocks as one
        // batch, in shuffled (not offset) order.
        std::vector<Heap::Block> dead;
        std::vector<Heap::Block> kept;
        const double share = 0.5 + 0.45 * rng.uniform();
        for (const Heap::Block &block : live)
            (rng.chance(share) ? dead : kept).push_back(block);
        for (std::size_t i = dead.size(); i > 1; --i)
            std::swap(dead[i - 1], dead[rng.below(i)]);
        twin.freeBatch(dead);
        live = std::move(kept);
        ASSERT_TRUE(twin.agrees())
            << "seed " << script.seed << " cycle " << cycle << " sweep";

        if (cycle % 5 == 4) {
            std::uint64_t cursor = 0;
            for (Heap::Block &block : live) {
                block.offset = cursor;
                cursor += block.bytes;
            }
            twin.compact(cursor);
            ASSERT_TRUE(twin.agrees())
                << "seed " << script.seed << " cycle " << cycle
                << " compact";
        }
    }
    total.exact_fits += twin.counts().exact_fits;
    total.full_cells += twin.counts().full_cells;
}

TEST(HeapDifferentialTest, SweepCyclesMatchReference)
{
    // Usable chunks up to Heap::maxBinnedBytes sit in bins, larger
    // ones in a set: scripts 7 to 11 request both sides of that
    // ceiling, 8, 9 and 11 with a dark threshold above it (no bins,
    // and a credit floor above the ceiling). Every size of scripts 10
    // and 11 divides their heap, so requests often use a chunk up.
    constexpr std::uint64_t ceiling = Heap::maxBinnedBytes;
    const std::vector<Script> scripts{
        {1, 1ull << 20, 1024, {512, 1024, 1536, 3072}, 25},
        {2, 1ull << 20, 1024, {700, 2048, 2048, 4096}, 25},
        {3, (3ull << 20) + 100, 512, {256, 512, 768, 1024, 6000}, 15},
        {4, 256ull << 10, 4096, {1024, 2048, 4096, 8192}, 40},
        {5, 64ull << 10, 1, {64, 128, 192}, 40},
        {6, 2ull << 20, 1024, {300, 550, 500, 700}, 20},
        {7, 4ull << 20, 1024,
         {2048, ceiling - 1, ceiling, ceiling + 1, 90000, 200000}, 15},
        {8, 4ull << 20, 100000, {4096, 70000, 120000}, 15},
        {9, (6ull << 20) + 7, ceiling + 2, {64, 3000, ceiling, 131072},
         12},
        {10, 1ull << 20, 1024, {ceiling / 4, ceiling / 2, ceiling}, 20},
        {11, 48 * ceiling, 3 * ceiling / 2,
         {ceiling / 2, ceiling, 3 * ceiling / 2}, 15},
    };
    Twin::Counts total;
    for (const Script &script : scripts) {
        runScript(script, total);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(total.exact_fits, 100u);
    EXPECT_GT(total.full_cells, 100u);
}

TEST(HeapDifferentialTest, LargeChunkCarvedAcrossTheCeiling)
{
    // A chunk just above the ceiling, isolated by live guards, is the
    // smallest large chunk: a small request carves it into a bin, and
    // further requests take from it there.
    HeapConfig config;
    config.size_bytes = 1ull << 20;
    Twin twin(config);
    const std::uint64_t hole = Heap::maxBinnedBytes + 1500;
    const auto offset = twin.allocate(hole);
    ASSERT_TRUE(offset);
    ASSERT_TRUE(twin.allocate(64)); // guard
    twin.free(*offset, hole);
    ASSERT_TRUE(twin.agrees());
    for (const std::uint64_t bytes : {1000, 1000, 65000, 1000, 70000}) {
        twin.allocate(bytes);
        ASSERT_TRUE(twin.agrees()) << "after allocate(" << bytes << ")";
    }
}

TEST(HeapDifferentialTest, EqualSizeRunsJoinTheirBinInFreeOrder)
{
    // Sixteen 3000-byte holes between live guards, each two blocks
    // (1000 + 2000), freed in one shuffled batch: every hole becomes
    // a run of the same size whose insertion rank (its last-freed
    // block) is out of offset order. 3000-byte requests must then take
    // the runs in that rank order, as one-by-one frees would.
    HeapConfig config;
    config.size_bytes = 1ull << 20;
    Twin twin(config);
    std::vector<Heap::Block> batch;
    for (int i = 0; i < 16; ++i) {
        const auto a = twin.allocate(1000);
        const auto b = twin.allocate(2000);
        ASSERT_TRUE(a && b && twin.allocate(64)); // guard
        batch.push_back({*a, 1000, 0});
        batch.push_back({*b, 2000, 0});
    }
    Rng rng(5);
    for (std::size_t i = batch.size(); i > 1; --i)
        std::swap(batch[i - 1], batch[rng.below(i)]);
    twin.freeBatch(batch);
    ASSERT_TRUE(twin.agrees());
    for (int i = 0; i < 20; ++i) {
        twin.allocate(3000);
        ASSERT_TRUE(twin.agrees()) << "allocation " << i;
    }
}

TEST(HeapDifferentialTest, RandomizedChurnMatchesReference)
{
    // Single allocates and frees only, with sizes spread over 64..4063
    // bytes: the long-standing churn input.
    HeapConfig config;
    config.size_bytes = 1024 * 1024;
    Twin twin(config);
    Rng rng(11);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
    for (int i = 0; i < 20000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            const std::uint64_t bytes = 64 + rng.below(4000);
            const auto offset = twin.allocate(bytes);
            if (offset)
                live.emplace_back(*offset, bytes);
        } else {
            const std::size_t pick = rng.below(live.size());
            twin.free(live[pick].first, live[pick].second);
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        }
        ASSERT_TRUE(twin.agrees()) << "iter " << i;
    }
}

TEST(HeapDifferentialTest, BatchFreeEqualsFreeingOneByOne)
{
    // Twenty equal 2 KiB holes, each isolated by a live guard block,
    // freed in a scrambled order: later 2 KiB requests must take the
    // holes in exactly that order, as single frees would.
    HeapConfig config;
    config.size_bytes = 1ull << 20;
    Heap batched(config);
    Heap single(config);
    std::vector<Heap::Block> holes;
    for (int i = 0; i < 20; ++i) {
        const auto hole = batched.allocate(2048);
        ASSERT_EQ(hole, single.allocate(2048));
        ASSERT_EQ(batched.allocate(64), single.allocate(64)); // guard
        holes.push_back({*hole, 2048, 0});
    }
    std::vector<std::size_t> order(holes.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(77);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);

    std::vector<Heap::Block> batch;
    for (const std::size_t i : order) {
        batch.push_back(holes[i]);
        single.free(holes[i].offset, holes[i].bytes);
    }
    batched.free(batch);
    EXPECT_EQ(batched.freeChunkCount(), single.freeChunkCount());
    EXPECT_EQ(batched.usableBytes(), single.usableBytes());
    for (const std::size_t i : order) {
        const auto offset = batched.allocate(2048);
        EXPECT_EQ(offset, single.allocate(2048));
        EXPECT_EQ(offset, holes[i].offset);
    }
    EXPECT_TRUE(batched.accountingConsistent());
}

TEST(HeapDifferentialTest, BatchCoalescesRunsThroughFreeChunks)
{
    // Blocks A B C D E in a row; C is already free, so freeing A, B,
    // D and E in one batch must leave one chunk covering all five
    // plus the tail, exactly as single frees would.
    HeapConfig config;
    config.size_bytes = 64 * 1024;
    Twin twin(config);
    std::vector<Heap::Block> blocks;
    for (int i = 0; i < 5; ++i)
        blocks.push_back({*twin.allocate(1000), 1000, 0});
    twin.free(blocks[2].offset, blocks[2].bytes);
    ASSERT_TRUE(twin.agrees());
    twin.freeBatch({blocks[4], blocks[0], blocks[3], blocks[1]});
    ASSERT_TRUE(twin.agrees());
    EXPECT_EQ(twin.heap().freeChunkCount(), 1u);
    EXPECT_EQ(twin.heap().usedBytes(), 0u);
}

} // namespace
} // namespace jasim
