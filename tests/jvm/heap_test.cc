#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "jvm/heap.h"

namespace jasim {
namespace {

HeapConfig
smallHeap()
{
    HeapConfig config;
    config.size_bytes = 1024 * 1024;
    return config;
}

TEST(HeapTest, AllocateAndAccounting)
{
    Heap heap(smallHeap());
    const auto offset = heap.allocate(4096);
    ASSERT_TRUE(offset.has_value());
    EXPECT_EQ(heap.usedBytes(), 4096u);
    EXPECT_EQ(heap.freeBytes(), 1024u * 1024 - 4096);
    EXPECT_TRUE(heap.accountingConsistent());
}

TEST(HeapTest, ExhaustionReturnsNullopt)
{
    Heap heap(smallHeap());
    EXPECT_TRUE(heap.allocate(1024 * 1024).has_value());
    EXPECT_FALSE(heap.allocate(1).has_value());
}

TEST(HeapTest, FreeCoalescesNeighbours)
{
    Heap heap(smallHeap());
    const auto a = *heap.allocate(4096);
    const auto b = *heap.allocate(4096);
    const auto c = *heap.allocate(4096);
    heap.free(a, 4096);
    heap.free(c, 4096);
    heap.free(b, 4096); // merges all three + trailing space
    EXPECT_EQ(heap.freeChunkCount(), 1u);
    EXPECT_EQ(heap.freeBytes(), 1024u * 1024);
    EXPECT_TRUE(heap.accountingConsistent());
}

TEST(HeapTest, SmallRemaindersBecomeDarkMatter)
{
    HeapConfig config = smallHeap();
    config.dark_threshold = 1024;
    Heap heap(config);
    // Carve the heap so a 512-byte sliver remains between two blocks.
    const auto a = *heap.allocate(4096);
    (void)a;
    const auto sliver = *heap.allocate(512);
    const auto b = *heap.allocate(4096);
    (void)b;
    heap.free(sliver, 512);
    EXPECT_EQ(heap.darkBytes(), 512u);
    // Dark chunks cannot satisfy allocations, even tiny ones.
    // (Allocate until only dark is left.)
    while (heap.allocate(64 * 1024).has_value()) {
    }
    while (heap.allocate(512).has_value()) {
    }
    EXPECT_GE(heap.darkBytes(), 512u);
    EXPECT_TRUE(heap.accountingConsistent());
}

TEST(HeapTest, NeighbourFreeResurrectsDarkMatter)
{
    HeapConfig config = smallHeap();
    config.dark_threshold = 1024;
    Heap heap(config);
    const auto a = *heap.allocate(4096);
    const auto sliver = *heap.allocate(512);
    const auto guard = *heap.allocate(4096); // isolates the sliver
    (void)guard;
    heap.free(sliver, 512);
    EXPECT_EQ(heap.darkBytes(), 512u);
    heap.free(a, 4096); // coalesces with the sliver -> usable again
    EXPECT_EQ(heap.darkBytes(), 0u);
}

TEST(HeapTest, CompactRecoversDarkMatter)
{
    HeapConfig config = smallHeap();
    config.dark_threshold = 1024;
    Heap heap(config);
    std::vector<std::uint64_t> offsets;
    for (int i = 0; i < 100; ++i)
        offsets.push_back(*heap.allocate(700));
    // Free every other block: 700 < threshold, all dark.
    std::uint64_t live = 0;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        if (i % 2 == 0)
            heap.free(offsets[i], 700);
        else
            live += 700;
    }
    EXPECT_GT(heap.darkBytes(), 0u);
    const auto recovered = heap.compact(live);
    EXPECT_GT(recovered, 0u);
    EXPECT_EQ(heap.darkBytes(), 0u);
    EXPECT_EQ(heap.usedBytes(), live);
    EXPECT_TRUE(heap.accountingConsistent());
}

TEST(HeapTest, BestFitPrefersTightChunk)
{
    Heap heap(smallHeap());
    const auto a = *heap.allocate(8192);
    const auto b = *heap.allocate(65536);
    const auto c = *heap.allocate(2048);
    (void)c;
    heap.free(a, 8192);  // 8 KB hole
    heap.free(b, 65536); // 64 KB hole
    // A 6 KB request should take the 8 KB hole, not the 64 KB one.
    const auto d = *heap.allocate(6 * 1024);
    EXPECT_EQ(d, a);
}

/** What `fn` throws as std::invalid_argument, or "" if nothing. */
template <typename Fn>
std::string
rejection(Fn &&fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &error) {
        return error.what();
    }
    return "";
}

TEST(HeapTest, ZeroByteAllocationThrows)
{
    Heap heap(smallHeap());
    const auto a = *heap.allocate(1000);
    EXPECT_NE(rejection([&] { heap.allocate(0); }).find("0 bytes"),
              std::string::npos);
    // The refused call took nothing and re-ranked nothing.
    EXPECT_EQ(heap.allocate(500), a + 1000);
    EXPECT_EQ(heap.usedBytes(), 1500u);
    EXPECT_TRUE(heap.accountingConsistent());
}

TEST(HeapTest, ZeroByteFreeThrows)
{
    Heap heap(smallHeap());
    *heap.allocate(1000);
    const auto b = *heap.allocate(1000);
    *heap.allocate(1000);
    const std::string why = rejection([&] { heap.free(b, 0); });
    EXPECT_NE(why.find("offset " + std::to_string(b) + " of 0 bytes"),
              std::string::npos)
        << why;
    EXPECT_EQ(heap.freeChunkCount(), 1u);
    EXPECT_EQ(heap.usedBytes(), 3000u);
    EXPECT_TRUE(heap.accountingConsistent());
}

TEST(HeapTest, DoubleFreeThrows)
{
    Heap heap(smallHeap());
    const auto a = *heap.allocate(1000);
    const auto b = *heap.allocate(1000);
    heap.free(a, 1000);
    const std::string why = rejection([&] { heap.free(a, 1000); });
    EXPECT_NE(why.find("offset " + std::to_string(a) + " of 1000 bytes"),
              std::string::npos)
        << why;
    // Reaching from a live block into a free chunk is a double free
    // too, and so is running past the end of the heap.
    EXPECT_NE(rejection([&] { heap.free(b, 2000); }), "");
    EXPECT_NE(rejection([&] { heap.free(a + 500, 1000); }), "");
    EXPECT_NE(rejection([&] { heap.free(1024 * 1024 - 10, 20); }), "");
    EXPECT_EQ(heap.usedBytes(), 1000u);
    EXPECT_EQ(heap.freeChunkCount(), 2u);
    EXPECT_TRUE(heap.accountingConsistent());
}

TEST(HeapTest, BatchWithARepeatedBlockThrows)
{
    // The blocks below the offending one are freed, and the heap stays
    // consistent.
    Heap heap(smallHeap());
    const auto a = *heap.allocate(1000);
    *heap.allocate(1000);
    const auto c = *heap.allocate(1000);
    *heap.allocate(1000);
    std::vector<Heap::Block> batch{{c, 1000, 0}, {a, 1000, 0}, {c, 1000, 0}};
    EXPECT_NE(rejection([&] { heap.free(batch); }), "");
    EXPECT_EQ(heap.usedBytes(), 2000u);
    EXPECT_EQ(heap.freeChunkCount(), 3u);
    EXPECT_TRUE(heap.accountingConsistent());
}

} // namespace
} // namespace jasim
