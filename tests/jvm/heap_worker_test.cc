/**
 * The heap worker against inline allocation.
 *
 * One scripted sequence of allocate and collect calls runs on a
 * collector without a worker and on one with a worker. Every return
 * value, every collection and the final heap must match. The script
 * makes both kinds of call: about half fit the credit and are queued,
 * and the rest, once a collection has left the free space in chunks of
 * 64 KiB or less, wait for the worker and run inline.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "jvm/gc.h"
#include "jvm/heap_worker.h"
#include "sim/rng.h"

namespace jasim {
namespace {

GcConfig
heapOf(std::uint64_t mb)
{
    GcConfig config;
    config.heap.size_bytes = mb << 20;
    config.baseline_bytes = 4ull << 20;
    return config;
}

/** What a replay returned and logged, and the heap it left. */
struct Replay
{
    std::vector<bool> returns;
    std::vector<GcEvent> events;
    std::uint64_t used = 0, usable = 0, dark = 0, credit = 0;
    std::size_t chunks = 0, cells = 0;
};

/**
 * The mutator loop of SystemUnderTest stage 4, scripted: allocate, and
 * on failure collect and allocate again. Every 397th call first runs
 * an explicit collection, and every 250th asks for more than the heap
 * holds, so it fails right after a collection too.
 */
Replay
replay(HeapWorker *worker, std::uint64_t seed)
{
    const GcConfig config = heapOf(64);
    GarbageCollector gc(config, seed, worker);
    Rng script(seed ^ 0x5c21ull);
    Replay out;
    SimTime now = 0;
    for (int call = 0; call < 1500; ++call) {
        now += millis(static_cast<double>(script.below(30)));
        if (call % 397 == 396)
            out.events.push_back(gc.collect(now, GcCause::Explicit));
        const std::uint64_t bytes = call % 250 == 249
            ? config.heap.size_bytes
            : 1 + script.below(script.chance(0.05) ? 4u << 20 : 200u << 10);
        bool ok = gc.allocate(bytes, now);
        out.returns.push_back(ok);
        if (!ok) {
            const GcEvent event = gc.collect(now);
            out.events.push_back(event);
            now += millis(event.pauseMs());
            ok = gc.allocate(bytes, now);
            out.returns.push_back(ok);
        }
    }
    // heap() and graph() wait for the worker themselves.
    out.used = gc.heap().usedBytes();
    out.usable = gc.heap().usableBytes();
    out.dark = gc.heap().darkBytes();
    out.credit = gc.heap().credit();
    out.chunks = gc.heap().freeChunkCount();
    out.cells = gc.graph().cellCount();
    return out;
}

void
expectSameEvents(const std::vector<GcEvent> &inline_events,
                 const std::vector<GcEvent> &worker_events)
{
    ASSERT_EQ(inline_events.size(), worker_events.size());
    for (std::size_t i = 0; i < inline_events.size(); ++i) {
        const GcEvent &a = inline_events[i];
        const GcEvent &b = worker_events[i];
        EXPECT_EQ(a.start, b.start) << "collection " << i;
        EXPECT_EQ(a.cause, b.cause) << "collection " << i;
        EXPECT_EQ(a.mark_ms, b.mark_ms) << "collection " << i;
        EXPECT_EQ(a.sweep_ms, b.sweep_ms) << "collection " << i;
        EXPECT_EQ(a.compact_ms, b.compact_ms) << "collection " << i;
        EXPECT_EQ(a.compacted, b.compacted) << "collection " << i;
        EXPECT_EQ(a.used_before, b.used_before) << "collection " << i;
        EXPECT_EQ(a.used_after, b.used_after) << "collection " << i;
        EXPECT_EQ(a.live_bytes, b.live_bytes) << "collection " << i;
        EXPECT_EQ(a.dark_bytes, b.dark_bytes) << "collection " << i;
        EXPECT_EQ(a.freed_bytes, b.freed_bytes) << "collection " << i;
        EXPECT_EQ(a.live_cells, b.live_cells) << "collection " << i;
        EXPECT_EQ(a.reclaimed_cells, b.reclaimed_cells)
            << "collection " << i;
    }
}

TEST(HeapWorkerTest, ReplayMatchesInlineCallForCall)
{
    for (const std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        const Replay inline_run = replay(nullptr, seed);
        HeapWorker worker;
        const Replay worker_run = replay(&worker, seed);

        // The script reaches every path: failures, collections of
        // both causes, and requests that fail right after one.
        std::size_t failures = 0;
        for (const bool ok : inline_run.returns)
            failures += !ok;
        EXPECT_GT(failures, 8u);
        EXPECT_GT(inline_run.events.size(), 15u);

        EXPECT_EQ(inline_run.returns, worker_run.returns);
        expectSameEvents(inline_run.events, worker_run.events);
        EXPECT_EQ(inline_run.used, worker_run.used);
        EXPECT_EQ(inline_run.usable, worker_run.usable);
        EXPECT_EQ(inline_run.dark, worker_run.dark);
        EXPECT_EQ(inline_run.credit, worker_run.credit);
        EXPECT_EQ(inline_run.chunks, worker_run.chunks);
        EXPECT_EQ(inline_run.cells, worker_run.cells);
    }
}

TEST(HeapWorkerTest, OneWorkerServesSeveralCollectorsInOrder)
{
    // A cluster's nodes share one worker: interleaved calls of three
    // collectors must leave each as its own inline twin.
    const GcConfig config = heapOf(24);
    HeapWorker worker;
    std::vector<std::unique_ptr<GarbageCollector>> inline_gcs;
    std::vector<std::unique_ptr<GarbageCollector>> worker_gcs;
    for (std::uint64_t n = 0; n < 3; ++n) {
        inline_gcs.push_back(std::make_unique<GarbageCollector>(config, n));
        worker_gcs.push_back(
            std::make_unique<GarbageCollector>(config, n, &worker));
    }
    Rng script(9);
    for (int call = 0; call < 1500; ++call) {
        const std::size_t n = script.below(3);
        const std::uint64_t bytes = 1 + script.below(300u << 10);
        const SimTime now = millis(call);
        const bool ok = inline_gcs[n]->allocate(bytes, now);
        ASSERT_EQ(ok, worker_gcs[n]->allocate(bytes, now)) << call;
        if (!ok) {
            inline_gcs[n]->collect(now);
            worker_gcs[n]->collect(now);
        }
    }
    for (std::size_t n = 0; n < 3; ++n) {
        expectSameEvents(inline_gcs[n]->log().events(),
                         worker_gcs[n]->log().events());
        EXPECT_GT(inline_gcs[n]->log().events().size(), 2u);
        EXPECT_EQ(inline_gcs[n]->heap().usedBytes(),
                  worker_gcs[n]->heap().usedBytes());
        EXPECT_EQ(inline_gcs[n]->heap().freeChunkCount(),
                  worker_gcs[n]->heap().freeChunkCount());
        EXPECT_EQ(inline_gcs[n]->graph().cellCount(),
                  worker_gcs[n]->graph().cellCount());
    }
}

TEST(HeapWorkerTest, FullLanesAndSingleCollectorReadsMatchInline)
{
    // Each burst queues up to 400 calls on one collector before its
    // inline twin runs them, so the collector's lane (128 calls) fills
    // and the event loop runs the lane's oldest calls itself while the
    // worker serves the other lanes. Reading one collector's heap
    // between bursts settles that lane alone. Every collector must
    // still match its inline twin at every read.
    const GcConfig config = heapOf(16);
    HeapWorker worker;
    std::vector<std::unique_ptr<GarbageCollector>> inline_gcs;
    std::vector<std::unique_ptr<GarbageCollector>> worker_gcs;
    for (std::uint64_t n = 0; n < 5; ++n) {
        inline_gcs.push_back(
            std::make_unique<GarbageCollector>(config, 100 + n));
        worker_gcs.push_back(
            std::make_unique<GarbageCollector>(config, 100 + n, &worker));
    }
    Rng script(17);
    SimTime now = 0;
    for (int burst = 0; burst < 80; ++burst) {
        const std::size_t n = script.below(5);
        std::vector<std::uint64_t> sizes(1 + script.below(400));
        for (std::uint64_t &bytes : sizes)
            bytes = 64 + script.below(16u << 10);
        std::size_t done = 0;
        while (done < sizes.size()) {
            // The worker's collector runs ahead to its first failure.
            std::size_t end = done;
            bool ok = true;
            while (end < sizes.size() &&
                   (ok = worker_gcs[n]->allocate(sizes[end],
                                                 now + millis(end))))
                ++end;
            for (std::size_t i = done; i < end; ++i)
                ASSERT_TRUE(inline_gcs[n]->allocate(sizes[i], now + millis(i)))
                    << burst << " " << i;
            if (!ok) {
                ASSERT_FALSE(
                    inline_gcs[n]->allocate(sizes[end], now + millis(end)))
                    << burst << " " << end;
                inline_gcs[n]->collect(now + millis(end));
                worker_gcs[n]->collect(now + millis(end));
                ++end;
            }
            done = end;
        }
        now += millis(sizes.size());
        const std::size_t read = script.below(5);
        EXPECT_EQ(inline_gcs[read]->heap().usedBytes(),
                  worker_gcs[read]->heap().usedBytes())
            << burst;
        EXPECT_EQ(inline_gcs[read]->graph().cellCount(),
                  worker_gcs[read]->graph().cellCount())
            << burst;
    }
    worker.drain();
    std::size_t collections = 0;
    for (std::size_t n = 0; n < 5; ++n) {
        collections += inline_gcs[n]->log().events().size();
        expectSameEvents(inline_gcs[n]->log().events(),
                         worker_gcs[n]->log().events());
        EXPECT_EQ(inline_gcs[n]->heap().freeChunkCount(),
                  worker_gcs[n]->heap().freeChunkCount());
        EXPECT_EQ(inline_gcs[n]->heap().credit(),
                  worker_gcs[n]->heap().credit());
    }
    EXPECT_GT(collections, 5u);
}

TEST(HeapWorkerTest, AThrowOnTheWorkerIsRethrownAtEverySyncPoint)
{
    // A call that fails on the worker breaks the credit's promise:
    // here it is queued directly, bypassing the credit, and asks for
    // more than the heap holds.
    const GcConfig config = heapOf(24);
    HeapWorker worker;
    GarbageCollector gc(config, 4);
    worker.submit(gc, 1, 0);
    worker.submit(gc, config.heap.size_bytes, 0);
    EXPECT_THROW(worker.drain(), std::logic_error);
    EXPECT_THROW(worker.drain(), std::logic_error);
    EXPECT_THROW(
        {
            for (int i = 0; i < 1000; ++i)
                worker.submit(gc, 1, 0);
        },
        std::logic_error);
}

TEST(HeapWorkerTest, DestroyedWithCallsInFlightJoinsCleanly)
{
    // The collector waits for its queued calls, then the worker stops.
    // Every round ends with calls not yet published to the worker: all
    // of them (7 calls) or the tail after two published batches (40).
    const GcConfig config = heapOf(16);
    for (std::uint64_t round = 0; round < 200; ++round) {
        HeapWorker worker;
        GarbageCollector gc(config, round, &worker);
        const int calls = round % 2 ? 40 : 7;
        for (int i = 0; i < calls; ++i)
            ASSERT_TRUE(gc.allocate(8192, millis(i)));
    }
}

TEST(HeapWorkerTest, NoSpareCpuForAThreadConfinedToOne)
{
    // The benches arm the worker only with a CPU besides the event
    // loop's: confined to one, it ran slower than inline.
    bool spare = true;
    std::thread confined([&spare] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(sched_getcpu(), &one);
        ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof one, &one),
                  0);
        spare = HeapWorker::hasSpareCpu();
    });
    confined.join();
    EXPECT_FALSE(spare);
}

} // namespace
} // namespace jasim
