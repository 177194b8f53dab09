#include <gtest/gtest.h>

#include "jvm/object_graph.h"

namespace jasim {
namespace {

TEST(ObjectGraphTest, RootedCellsAreLive)
{
    ObjectGraph graph(1);
    graph.addCell(0, 100, secs(10), 0.0);
    graph.addCell(100, 200, secs(10), 0.0);
    const MarkResult mark = graph.mark(0);
    EXPECT_EQ(mark.live_cells, 2u);
    EXPECT_EQ(mark.live_bytes, 300u);
}

TEST(ObjectGraphTest, ExpiredRootsDie)
{
    ObjectGraph graph(2);
    graph.addCell(0, 100, secs(1), 0.0);
    graph.addCell(100, 200, secs(10), 0.0);
    const MarkResult mark = graph.mark(secs(5));
    EXPECT_EQ(mark.live_cells, 1u);
    EXPECT_EQ(mark.live_bytes, 200u);
}

TEST(ObjectGraphTest, SweepReclaimsExactlyUnmarked)
{
    ObjectGraph graph(3);
    graph.addCell(0, 100, secs(1), 0.0);
    graph.addCell(100, 200, secs(10), 0.0);
    graph.mark(secs(5));
    std::uint64_t reclaimed_bytes = 0;
    const auto reclaimed = graph.sweep(
        [&](std::uint64_t, std::uint64_t bytes) {
            reclaimed_bytes += bytes;
        });
    EXPECT_EQ(reclaimed, 1u);
    EXPECT_EQ(reclaimed_bytes, 100u);
    EXPECT_EQ(graph.cellCount(), 1u);
}

TEST(ObjectGraphTest, EdgesKeepUnrootedCellsAlive)
{
    ObjectGraph graph(4);
    // Force an edge from the first cell to the second by using an
    // edge probability of 1 and a single recent cell.
    graph.addCell(0, 100, secs(100), 0.0);   // long-lived holder
    graph.addCell(100, 50, secs(1), 1.0);    // referenced by holder
    // The second cell's root expires.
    const MarkResult mark = graph.mark(secs(5));
    EXPECT_EQ(mark.live_cells, 2u); // edge keeps it reachable
    EXPECT_GE(mark.visited_edges, 1u);
}

TEST(ObjectGraphTest, MarkClearsAfterSweep)
{
    ObjectGraph graph(5);
    graph.addCell(0, 100, secs(100), 0.0);
    graph.mark(0);
    graph.sweep([](std::uint64_t, std::uint64_t) {});
    // Survivors must be re-markable (marks cleared).
    const MarkResult again = graph.mark(0);
    EXPECT_EQ(again.live_cells, 1u);
}

TEST(ObjectGraphTest, TotalBytesTracksCells)
{
    ObjectGraph graph(6);
    graph.addCell(0, 128, secs(1), 0.0);
    graph.addCell(128, 256, secs(1), 0.0);
    EXPECT_EQ(graph.totalBytes(), 384u);
}

TEST(ObjectGraphTest, ChainedReachability)
{
    // Build a chain: each new cell referenced by the previous one.
    ObjectGraph graph(7);
    graph.addCell(0, 8, secs(100), 0.0); // the only rooted cell
    for (int i = 1; i < 50; ++i)
        graph.addCell(static_cast<std::uint64_t>(i) * 8, 8, secs(1),
                      1.0);
    const MarkResult mark = graph.mark(secs(5));
    // Everything still reachable through the edge chain from the root
    // (edge fanout caps may trim the tail, but far more than 1 lives).
    EXPECT_GT(mark.live_cells, 10u);
}

} // namespace
} // namespace jasim
