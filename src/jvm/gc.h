/**
 * @file
 * The non-generational mark-sweep-compact collector.
 *
 * Reproduces the GC behaviour of the studied JVM:
 *
 *  - allocation proceeds until the heap cannot satisfy a request,
 *    then a stop-the-world collection runs;
 *  - the mark phase is a real traversal of the object graph (~80% of
 *    pause time); the sweep phase frees unmarked cells (~20%);
 *  - compaction only runs when fragmentation (dark matter) crosses a
 *    threshold -- never within the 60-minute runs the paper studies;
 *  - dark matter accumulates from split remainders and isolated small
 *    frees, growing the "live-looking" heap by about 1 MB/min.
 */

#ifndef JASIM_JVM_GC_H
#define JASIM_JVM_GC_H

#include <cstdint>
#include <vector>

#include "jvm/heap.h"
#include "jvm/object_graph.h"
#include "jvm/verbose_gc.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace jasim {

class HeapWorker;

/** Collector and allocation-behaviour parameters. */
struct GcConfig
{
    HeapConfig heap;

    /** Mark cost per live byte (ns). */
    double mark_ns_per_byte = 1.60;
    /** Sweep cost per heap byte (ns). */
    double sweep_ns_per_byte = 0.060;
    /** Compaction cost per live byte (ns). */
    double compact_ns_per_byte = 3.0;
    /** Compact when dark bytes exceed this fraction of the heap. */
    double compact_dark_fraction = 0.08;

    /** Object-size distribution (log-normal, bytes). */
    double object_mean_bytes = 3072.0;
    double object_sigma = 0.7;

    /** Lifetime mixture (remainder of the two is permanent; keep it
     *  zero -- permanents come from the startup baseline, otherwise
     *  the live set grows without bound). */
    double transient_fraction = 0.945;  //!< die within ~a second
    double transient_mean_s = 0.6;
    double session_fraction = 0.055;    //!< session / cache state
    double session_mean_s = 30.0;
    double permanent_lifetime_s = 4.0 * 3600.0;

    /** Bytes of long-lived data allocated at startup. */
    std::uint64_t baseline_bytes = 120ull * 1024 * 1024;

    /** Chance a new cell is referenced by an older one. */
    double edge_probability = 0.18;
};

/**
 * The collector: owns the heap and the object graph.
 *
 * The mutator calls allocate(); when it returns false the caller runs
 * collect() and retries (the JVM does this internally; the split keeps
 * the simulation event loop in control of time).
 *
 * With a HeapWorker, allocate() queues each call the heap's credit
 * guarantees on the worker and returns true at once. A call places
 * cells totalling at most its bytes + 63 (the last cell is at least
 * 64 bytes), and each cell lowers the credit by at most its size, so
 * the collector queues calls while their summed bytes + 63 stay within
 * the credit it last read. The rest run inline once the worker has
 * caught up.
 */
class GarbageCollector
{
  public:
    /**
     * Builds the heap and allocates the startup baseline.
     * @param worker when non-null, the worker that runs the calls
     *        allocate() queues; it must outlive the collector.
     * @throws std::invalid_argument when the heap cannot hold
     *         config.baseline_bytes.
     */
    GarbageCollector(const GcConfig &config, std::uint64_t seed,
                     HeapWorker *worker = nullptr);

    /** Waits for this collector's queued calls. */
    ~GarbageCollector();

    GarbageCollector(const GarbageCollector &) = delete;
    GarbageCollector &operator=(const GarbageCollector &) = delete;

    /**
     * Allocate `bytes` of objects at simulated time `now`, splitting
     * into cells with drawn sizes/lifetimes. With a worker, true may
     * be returned before the call has run.
     * @return false when the heap is exhausted (GC needed).
     */
    bool allocate(std::uint64_t bytes, SimTime now);

    /**
     * Wait for the worker, then run a stop-the-world collection;
     * records into the log.
     */
    GcEvent collect(SimTime now, GcCause cause = GcCause::AllocationFailure);

    /**
     * The heap and the object graph, once the worker has run every
     * queued call (an exception one threw is rethrown here): the
     * worker writes both while calls are queued, so an earlier read
     * would race with it. Cheap when the worker is idle. The log and
     * lastLiveBytes() are written only by collect(), on the caller's
     * thread.
     */
    const Heap &heap() const
    {
        settle();
        return heap_;
    }
    const ObjectGraph &graph() const
    {
        settle();
        return graph_;
    }
    const VerboseGcLog &log() const { return log_; }

    /** Live bytes found by the most recent mark (baseline before). */
    std::uint64_t lastLiveBytes() const { return last_live_bytes_; }

    const GcConfig &config() const { return config_; }

  private:
    friend class HeapWorker;

    GcConfig config_;
    Heap heap_;
    ObjectGraph graph_;
    Rng rng_;
    VerboseGcLog log_;
    std::uint64_t last_live_bytes_;
    /** Log-normal mu of the object-size draw. */
    double object_mu_;
    /** Blocks of the current sweep, in sweep order; reused. */
    std::vector<Heap::Block> swept_;
    /**
     * The event loop's side, on a cache line of its own: the worker
     * writes the heap, the graph and the RNG above.
     */
    alignas(64) HeapWorker *worker_;
    /** The heap's credit at its last read, less what is queued since. */
    std::uint64_t credit_ = 0;

    /**
     * Wait until the worker has run every queued call, rethrowing an
     * exception one threw; without a worker, nothing.
     */
    void settle() const;
    /** Run one allocate() call here and now. */
    bool place(std::uint64_t bytes, SimTime now);
    SimTime drawLifetime();
    std::uint32_t drawObjectBytes();
};

} // namespace jasim

#endif // JASIM_JVM_GC_H
