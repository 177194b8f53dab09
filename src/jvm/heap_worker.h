/**
 * @file
 * One helper thread that runs a cluster's heap allocations off its
 * event loop.
 *
 * A collection starts only when an allocation fails, so the event loop
 * needs the heap model's answer only then. A GarbageCollector given a
 * worker knows from its heap's credit (Heap::credit) which calls must
 * succeed: it returns true for those at once and queues them here.
 * The worker runs the queued calls of every collector it serves in the
 * order they were queued, so each collector runs the same calls with
 * the same arguments as inline and no simulated bit moves. The event
 * loop waits for the worker only when a collector's credit runs out,
 * before a collection, and before heap state is read
 * (GarbageCollector::heap and graph wait first).
 *
 * Calls travel through a par::SpscRing of 128 slots, which publishes
 * them in batches of 16: the worker is woken once per batch, or at a
 * drain, not once per call.
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
#include <thread>

#include "par/spsc_ring.h"
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
     * Queue one inline allocation of `gc` (event-loop thread only).
     * The call must succeed: one that fails raises std::logic_error at
     * the next drain.
     */
    void submit(GarbageCollector &gc, std::uint64_t bytes, SimTime now);

    /**
     * Wait until every queued call has run, or one has thrown.
     * @return false once a call has thrown.
     */
    bool wait() noexcept;

    /**
     * wait(), then rethrow the exception a call threw, if one has; once
     * one has, every later submit and drain rethrows it too.
     */
    void drain();

  private:
    struct Call
    {
        GarbageCollector *gc = nullptr;
        std::uint64_t bytes = 0;
        SimTime now = 0;
    };

    /** Set in done_ once a call has thrown; counts never reach it. */
    static constexpr std::uint64_t failedBit = std::uint64_t{1} << 63;

    /** The thread: run calls until the ring is aborted. */
    void serve(int event_loop_cpu);

    par::SpscRing<Call> ring_;
    std::uint64_t submitted_ = 0; //!< event-loop thread only
    /** Calls run so far, or'ed with failedBit after a throw. */
    alignas(64) std::atomic<std::uint64_t> done_{0};
    /** Written by the thread before it sets failedBit. */
    std::exception_ptr error_;
    std::thread thread_;
};

} // namespace jasim

#endif // JASIM_JVM_HEAP_WORKER_H
