#include "jvm/heap_worker.h"

#include <pthread.h>
#include <sched.h>

#include <stdexcept>
#include <string>

#include "jvm/gc.h"

namespace jasim {

namespace {

/** Ring slots; the ring publishes every 128 / 8 = 16 calls. */
constexpr std::size_t ringSlots = 128;

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

HeapWorker::HeapWorker()
    : ring_(ringSlots),
      thread_([this, cpu = sched_getcpu()] { serve(cpu); })
{
}

HeapWorker::~HeapWorker()
{
    ring_.abort();
    thread_.join();
}

bool
HeapWorker::hasSpareCpu()
{
    const cpu_set_t allowed = allowedCpus();
    return CPU_COUNT(&allowed) >= 2;
}

void
HeapWorker::submit(GarbageCollector &gc, std::uint64_t bytes, SimTime now)
{
    // Only a call that threw aborts the ring, and drain() rethrows it.
    if (!ring_.push(Call{&gc, bytes, now}))
        drain();
    ++submitted_;
}

bool
HeapWorker::wait() noexcept
{
    ring_.flush();
    for (;;) {
        const std::uint64_t done = done_.load(std::memory_order_acquire);
        if (done & failedBit)
            return false;
        if (done == submitted_)
            return true;
        done_.wait(done, std::memory_order_acquire);
    }
}

void
HeapWorker::drain()
{
    if (!wait())
        std::rethrow_exception(error_);
}

void
HeapWorker::serve(int event_loop_cpu)
{
    avoidCpu(event_loop_cpu);
    Call call;
    std::uint64_t done = 0;
    while (ring_.pop(call)) {
        try {
            if (!call.gc->place(call.bytes, call.now)) {
                throw std::logic_error(
                    "HeapWorker: a queued allocation of " +
                    std::to_string(call.bytes) +
                    " bytes failed, though the heap's credit covered it");
            }
        } catch (...) {
            error_ = std::current_exception();
            ring_.abort();
            done_.fetch_or(failedBit, std::memory_order_release);
            done_.notify_all();
            return;
        }
        done_.store(++done, std::memory_order_release);
        done_.notify_one();
    }
}

} // namespace jasim
