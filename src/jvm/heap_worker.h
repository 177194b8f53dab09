/**
 * @file
 * One helper thread that runs a cluster's heap allocations off its
 * event loop.
 *
 * A collection starts only when an allocation fails, so the event loop
 * needs the heap model's answer only then. A GarbageCollector given a
 * worker knows from its heap's credit (Heap::credit) which calls must
 * succeed: it returns true for those at once and queues them here.
 *
 * Each collector's calls go into a lane of their own, a bounded ring
 * of 128 calls, and run in the order they were queued, one at a time,
 * by whichever thread holds the lane's claim; so each collector runs
 * the same calls with the same arguments as inline and no simulated
 * bit moves. Different collectors share nothing, so their calls may
 * run at the same time. The worker serves the lanes in turn, up to 16
 * calls per claim.
 *
 * The event loop never sleeps until the worker has run a backlog. When
 * a lane is full, it claims the lane and runs the lane's 16 oldest
 * calls itself; and where it must see a collector's heap (before a
 * collection, when the credit runs out, before heap state is read:
 * GarbageCollector::heap and graph), it runs that collector's
 * remaining calls itself. It waits only while the worker finishes the
 * one call it is running in that lane. So a worker whose CPU the host
 * runs less costs the event loop at most that call, not a backlog: on
 * a 4-CPU KVM guest, one FIFO ring for every collector, slept on when
 * full and drained whole before each collection, had those waits
 * triple in such stretches while the worker's CPU time did not move,
 * and jbench cluster_chaos ran up to 29% slower (17% with lanes).
 *
 * Placement: on a 4-CPU KVM guest a woken helper was, for stretches of
 * 30-60 s, placed on the CPU of the thread that woke it, and then ran
 * no faster than inline. So at start the worker restricts itself to
 * the CPUs it may run on minus the one the thread that constructed it
 * was running on, unless that would leave none.
 */

#ifndef JASIM_JVM_HEAP_WORKER_H
#define JASIM_JVM_HEAP_WORKER_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/types.h"

namespace jasim {

class GarbageCollector;

class HeapWorker
{
  public:
    /** Start the thread; call from the event loop's thread. */
    HeapWorker();

    /** Drop any calls still queued and join the thread. */
    ~HeapWorker();

    HeapWorker(const HeapWorker &) = delete;
    HeapWorker &operator=(const HeapWorker &) = delete;

    /**
     * Whether the calling thread may run on two or more CPUs, so that
     * a worker it builds can keep off its CPU.
     */
    static bool hasSpareCpu();

    /**
     * Queue one inline allocation of `gc` (event-loop thread only; so
     * are all the calls below). The call must succeed: one that fails
     * raises std::logic_error here or at the next sync point. `gc`
     * must outlive its queued calls.
     */
    void submit(GarbageCollector &gc, std::uint64_t bytes, SimTime now);

    /**
     * Run every queued call of `gc`, or wait for the one the worker is
     * running. Calls of other collectors may still be queued.
     * @return false once a call has thrown.
     */
    bool wait(const GarbageCollector &gc) noexcept;

    /** wait(gc), then rethrow the exception a call threw, if one has. */
    void drain(const GarbageCollector &gc);

    /** wait(gc) for every collector with queued calls. */
    bool wait() noexcept;

    /**
     * wait(), then rethrow the exception a call threw, if one has; once
     * one has, every later submit and drain rethrows it too.
     */
    void drain();

  private:
    struct Call
    {
        std::uint64_t bytes = 0;
        SimTime now = 0;
    };

    /** Who holds a lane's claim. */
    enum Owner : std::uint32_t
    {
        none = 0,
        worker = 1,
        loop = 2,
    };

    /** One collector's queued calls. */
    struct Lane
    {
        explicit Lane(GarbageCollector &collector);

        GarbageCollector &gc;
        std::unique_ptr<Call[]> slots;
        /** Set before the lane is published, then never changed. */
        Lane *next = nullptr;
        std::uint64_t written = 0; //!< calls queued; event loop only
        /** Calls queued, as the worker may read them. */
        alignas(64) std::atomic<std::uint64_t> tail{0};
        /** Calls run; written by the claim's holder. */
        alignas(64) std::atomic<std::uint64_t> head{0};
        std::atomic<std::uint32_t> owner{none};
        /** Set while the event loop waits for the worker's claim. */
        std::atomic<std::uint32_t> wanted{0};
    };

    /** `gc`'s lane, made on first use (event loop only). */
    Lane &laneOf(GarbageCollector &gc);
    /** The lane of `gc`, or nullptr if it never queued a call. */
    Lane *findLane(const GarbageCollector &gc);

    /** Claim `lane` for the event loop, waiting out the worker's call. */
    void claimForLoop(Lane &lane);
    /**
     * Run the claimed lane's calls [head, end) in order, then release
     * the claim. The worker stops early when the event loop wants the
     * lane. Returns false if a call threw.
     */
    bool runAndRelease(Lane &lane, std::uint64_t end, Owner self) noexcept;
    /** Run every queued call of `lane` on the event loop. */
    bool settle(Lane &lane) noexcept;

    /**
     * Claim, for the worker, the first lane after `after` (in turn)
     * with a call to run, or return nullptr.
     */
    Lane *claimPending(Lane *after);
    /** The thread: serve lanes until stopped or a call throws. */
    void serve(int event_loop_cpu);

    /** Keep the first exception a call threw. */
    void fail(std::exception_ptr error) noexcept;
    void rethrowIfFailed();

    /** Every lane, newest first; the worker walks it. */
    std::atomic<Lane *> lanes_{nullptr};
    /** The same lanes, for the event loop, which owns them. */
    std::vector<std::unique_ptr<Lane>> owned_;
    Lane *last_ = nullptr; //!< the lane found last

    /** Bumped to wake the worker. */
    alignas(64) std::atomic<std::uint32_t> epoch_{0};
    std::atomic<bool> sleeping_{false};
    std::atomic<bool> stopping_{false};

    std::atomic<bool> failed_{false};
    std::mutex error_mutex_;
    std::exception_ptr error_;

    std::thread thread_;
};

} // namespace jasim

#endif // JASIM_JVM_HEAP_WORKER_H
