#include "jvm/heap_worker.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "jvm/gc.h"

namespace jasim {

namespace {

/** Slots per lane; a power of two. */
constexpr std::uint64_t laneSlots = 128;

/** Calls run per claim: by the worker, or by a full lane's producer. */
constexpr std::uint64_t runBatch = 16;

/** The CPUs the calling thread may run on; empty if unknown. */
cpu_set_t
allowedCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (pthread_getaffinity_np(pthread_self(), sizeof allowed,
                               &allowed) != 0)
        CPU_ZERO(&allowed);
    return allowed;
}

/** Keep the calling thread off `cpu`, if any other CPU is allowed. */
void
avoidCpu(int cpu)
{
    cpu_set_t allowed = allowedCpus();
    if (cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed) ||
        CPU_COUNT(&allowed) < 2)
        return;
    CPU_CLR(cpu, &allowed);
    pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
}

} // namespace

HeapWorker::Lane::Lane(GarbageCollector &collector)
    : gc(collector), slots(std::make_unique<Call[]>(laneSlots))
{
}

HeapWorker::HeapWorker()
    : thread_([this, cpu = sched_getcpu()] { serve(cpu); })
{
}

HeapWorker::~HeapWorker()
{
    stopping_.store(true);
    epoch_.fetch_add(1);
    epoch_.notify_one();
    thread_.join();
}

bool
HeapWorker::hasSpareCpu()
{
    const cpu_set_t allowed = allowedCpus();
    return CPU_COUNT(&allowed) >= 2;
}

HeapWorker::Lane *
HeapWorker::findLane(const GarbageCollector &gc)
{
    if (last_ && &last_->gc == &gc)
        return last_;
    for (const auto &lane : owned_) {
        if (&lane->gc == &gc)
            return last_ = lane.get();
    }
    return nullptr;
}

HeapWorker::Lane &
HeapWorker::laneOf(GarbageCollector &gc)
{
    if (Lane *lane = findLane(gc))
        return *lane;
    owned_.push_back(std::make_unique<Lane>(gc));
    Lane *lane = owned_.back().get();
    lane->next = lanes_.load(std::memory_order_relaxed);
    lanes_.store(lane, std::memory_order_release);
    return *(last_ = lane);
}

void
HeapWorker::submit(GarbageCollector &gc, std::uint64_t bytes, SimTime now)
{
    rethrowIfFailed();
    Lane &lane = laneOf(gc);
    if (lane.written - lane.head.load(std::memory_order_acquire) ==
        laneSlots) {
        claimForLoop(lane);
        const std::uint64_t head = lane.head.load(std::memory_order_relaxed);
        if (!runAndRelease(lane, std::min(lane.written, head + runBatch),
                           loop))
            rethrowIfFailed();
    }
    lane.slots[lane.written & (laneSlots - 1)] = Call{bytes, now};
    ++lane.written;
    // Publish, then wake a sleeping worker. Both sides order their
    // store before their load (seq_cst), so one sees the other's.
    lane.tail.store(lane.written);
    if (sleeping_.load()) {
        epoch_.fetch_add(1);
        epoch_.notify_one();
    }
}

void
HeapWorker::claimForLoop(Lane &lane)
{
    std::uint32_t owner = none;
    if (lane.owner.compare_exchange_strong(owner, loop,
                                           std::memory_order_acquire))
        return;
    lane.wanted.store(1);
    for (;;) {
        owner = none;
        if (lane.owner.compare_exchange_strong(owner, loop,
                                               std::memory_order_acquire))
            break;
        lane.owner.wait(owner, std::memory_order_relaxed);
    }
    lane.wanted.store(0, std::memory_order_relaxed);
}

bool
HeapWorker::runAndRelease(Lane &lane, std::uint64_t end, Owner self) noexcept
{
    bool ok = true;
    std::uint64_t head = lane.head.load(std::memory_order_relaxed);
    try {
        while (head < end) {
            const Call call = lane.slots[head & (laneSlots - 1)];
            if (!lane.gc.place(call.bytes, call.now)) {
                throw std::logic_error(
                    "HeapWorker: a queued allocation of " +
                    std::to_string(call.bytes) +
                    " bytes failed, though the heap's credit covered it");
            }
            lane.head.store(++head, std::memory_order_release);
            if (self == worker &&
                lane.wanted.load(std::memory_order_relaxed))
                break;
        }
    } catch (...) {
        fail(std::current_exception());
        ok = false;
    }
    lane.owner.store(none, std::memory_order_release);
    lane.owner.notify_one();
    return ok;
}

bool
HeapWorker::settle(Lane &lane) noexcept
{
    if (failed_.load(std::memory_order_acquire))
        return false;
    if (lane.head.load(std::memory_order_acquire) == lane.written)
        return true;
    claimForLoop(lane);
    return runAndRelease(lane, lane.written, loop);
}

bool
HeapWorker::wait(const GarbageCollector &gc) noexcept
{
    Lane *lane = findLane(gc);
    if (!lane)
        return !failed_.load(std::memory_order_acquire);
    return settle(*lane);
}

void
HeapWorker::drain(const GarbageCollector &gc)
{
    if (!wait(gc))
        rethrowIfFailed();
}

bool
HeapWorker::wait() noexcept
{
    bool ok = !failed_.load(std::memory_order_acquire);
    for (const auto &lane : owned_)
        ok = ok && settle(*lane);
    return ok;
}

void
HeapWorker::drain()
{
    if (!wait())
        rethrowIfFailed();
}

HeapWorker::Lane *
HeapWorker::claimPending(Lane *after)
{
    Lane *const first = lanes_.load(std::memory_order_acquire);
    Lane *const start = after && after->next ? after->next : first;
    Lane *lane = start;
    if (!lane)
        return nullptr;
    do {
        if (lane->head.load(std::memory_order_acquire) <
                lane->tail.load() &&
            !lane->wanted.load(std::memory_order_relaxed)) {
            std::uint32_t owner = none;
            if (lane->owner.compare_exchange_strong(
                    owner, worker, std::memory_order_acquire))
                return lane;
        }
        lane = lane->next ? lane->next : first;
    } while (lane != start);
    return nullptr;
}

void
HeapWorker::serve(int event_loop_cpu)
{
    avoidCpu(event_loop_cpu);
    Lane *last = nullptr;
    while (!stopping_.load(std::memory_order_acquire)) {
        Lane *lane = claimPending(last);
        if (!lane) {
            // Sleep unless a call is published after sleeping_ is set.
            sleeping_.store(true);
            const std::uint32_t epoch = epoch_.load();
            lane = claimPending(last);
            if (!lane) {
                if (!stopping_.load())
                    epoch_.wait(epoch);
                sleeping_.store(false, std::memory_order_relaxed);
                continue;
            }
            sleeping_.store(false, std::memory_order_relaxed);
        }
        // The claim orders this read after the last holder's release.
        const std::uint64_t head = lane->head.load(std::memory_order_relaxed);
        const std::uint64_t end = std::min(
            lane->tail.load(std::memory_order_acquire), head + runBatch);
        if (!runAndRelease(*lane, end, worker))
            return;
        last = lane;
    }
}

void
HeapWorker::fail(std::exception_ptr error) noexcept
{
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_)
        error_ = std::move(error);
    failed_.store(true, std::memory_order_release);
}

void
HeapWorker::rethrowIfFailed()
{
    if (!failed_.load(std::memory_order_acquire))
        return;
    std::exception_ptr error;
    {
        const std::lock_guard<std::mutex> lock(error_mutex_);
        error = error_;
    }
    std::rethrow_exception(error);
}

} // namespace jasim
