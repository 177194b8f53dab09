/**
 * @file
 * The System Under Test: the whole software stack on one server.
 *
 * Wires the driver, web container, EJB container, application,
 * database, JVM (GC + JIT), CPU scheduler, and disk into the
 * system-level discrete-event simulation. Request processing uses
 * "virtual threading": a request's stages are walked at dispatch
 * time through the FCFS scheduler and disk models, each stage's
 * completion time feeding the next, while the WAS thread pool bounds
 * concurrency.
 */

#ifndef JASIM_CORE_SUT_H
#define JASIM_CORE_SUT_H

#include <memory>

#include "adm/admission.h"
#include "db/database.h"
#include "driver/driver.h"
#include "driver/response_tracker.h"
#include "jvm/gc.h"
#include "jvm/jit.h"
#include "jvm/method_registry.h"
#include "os/disk.h"
#include "os/scheduler.h"
#include "os/vmstat.h"
#include "sim/event_queue.h"
#include "synth/component_profiles.h"
#include "was/application.h"
#include "was/thread_pool.h"
#include "was/web_container.h"

namespace jasim {

/** Everything configurable about the SUT. */
struct SutConfig
{
    double injection_rate = 40.0;
    std::size_t cpus = 4;
    std::size_t was_threads = 64;

    DiskConfig disk;       //!< RAM disk by default
    GcConfig gc;           //!< 1 GB heap
    DbConfig db{512, 32};  //!< 2 MB buffer pool per the study DB:pool ratio
    WebContainerConfig web;
    EjbContainerConfig ejb;
    JitConfig jit;
    DriverConfig driver;   //!< injection_rate is overridden from above

    /**
     * Web-tier admission control (jasim::adm). The default `none`
     * builds no controller and leaves request handling byte-identical
     * to a pre-admission build. `max_concurrent == 0` resolves to
     * `was_threads`.
     */
    adm::AdmissionConfig admission;

    /** Log-normal sigma of per-request service-demand noise. */
    double demand_sigma = 0.18;

    /** Multiplier on per-transaction Java allocation (Trade6-style
     *  workloads allocate differently; 1.0 = jas2004 calibration). */
    double alloc_scale = 1.0;

    /**
     * In a cluster, run every node's heap allocations on one
     * HeapWorker thread, behind the heap's credit bound (see
     * jvm/heap_worker.h). Off runs them inline on the event loop, the
     * identity reference; the outputs are the same bits either way. A
     * lone SystemUnderTest (a box) ignores it and allocates inline.
     */
    bool heap_worker = true;

    /** Clamp on the interpreted/warm slowdown during JIT warm-up. */
    double max_jit_slowdown = 1.8;

    /** Methods sampled (and charged JIT warmup) per transaction. */
    std::size_t methods_per_txn = 8;

    /**
     * CPU scheduling quantum (us). Bursts longer than this are split
     * into quanta so concurrent requests share the CPUs round-robin
     * instead of head-of-line blocking each other (AIX timeslicing).
     */
    double cpu_quantum_us = 2000.0;
};

/** The assembled system. */
class SystemUnderTest
{
  public:
    /**
     * Completion signal for an externally run data tier. `error` is
     * ErrorKind::None on success; any other value fails the request
     * (the outcome is ignored and the failure hook fires).
     */
    using DbDone =
        std::function<void(const TxnDbOutcome &, ErrorKind error)>;

    /**
     * An external data tier: performs the whole DB stage for one
     * transaction (connection acquisition, round trips, remote CPU
     * and I/O) and invokes `done` at the simulated completion time.
     * When installed, the local DB stages (5-7) are skipped.
     */
    using RemoteDbTier =
        std::function<void(RequestType type, double noise, DbDone done)>;

    /** Observer invoked when a request finishes on this node. */
    using CompletionHook =
        std::function<void(const Request &request, SimTime finish)>;

    /** Observer invoked when a request errors on this node. */
    using FailureHook = std::function<void(
        const Request &request, SimTime at, ErrorKind kind)>;

    /**
     * @param profiles shared workload profiles (code layouts).
     * @param registry shared method registry (aligned with profiles).
     * @param external_queue when non-null, run on this event queue
     *        instead of an internally owned one, so several nodes and
     *        a network fabric share one simulated clock.
     * @param remote_db when set, the external data tier that runs
     *        every transaction's DB stage (cluster mode); the node
     *        then builds no local application database.
     * @param heap_worker when non-null, the worker this node's
     *        allocations run on (cluster mode: one for all nodes); it
     *        must outlive the node.
     */
    SystemUnderTest(const SutConfig &config,
                    std::shared_ptr<const WorkloadProfiles> profiles,
                    std::shared_ptr<const MethodRegistry> registry,
                    std::uint64_t seed,
                    EventQueue *external_queue = nullptr,
                    RemoteDbTier remote_db = {},
                    HeapWorker *heap_worker = nullptr);

    /** Begin injecting load over [0, end). */
    void start(SimTime end);

    /**
     * Feed one request directly (cluster mode: the balancer routes
     * requests here instead of this node running its own driver).
     * Requests injected while the node is down fail immediately.
     */
    void inject(const Request &request) { handleRequest(request); }

    /** Install a completion observer (cluster roll-up). */
    void setCompletionHook(CompletionHook hook)
    {
        completion_hook_ = std::move(hook);
    }

    /** Install a failure observer (cluster error roll-up). */
    void setFailureHook(FailureHook hook)
    {
        failure_hook_ = std::move(hook);
    }

    // ---- fault injection ----

    /**
     * Crash the node: every in-flight request errors at its next
     * simulation step, and injected requests fail until restart().
     */
    void crash();

    /**
     * Bring a crashed node back. The process state (JIT tiers, pool
     * threads, heap) is modelled as surviving — a fast restart from
     * a warmed standby rather than a cold boot.
     */
    void restart() { down_ = false; }

    bool isDown() const { return down_; }

    /** Times crash() has been called. */
    std::uint64_t crashCount() const { return crash_epoch_; }

    /** Advance the discrete-event simulation to `horizon`. */
    void advanceTo(SimTime horizon) { queue_.runUntil(horizon); }

    EventQueue &queue() { return queue_; }
    CpuScheduler &scheduler() { return scheduler_; }
    const CpuScheduler &scheduler() const { return scheduler_; }
    DiskModel &disk() { return disk_; }
    GarbageCollector &collector() { return gc_; }
    const GarbageCollector &collector() const { return gc_; }
    JitCompiler &jit() { return jit_; }
    ResponseTracker &tracker() { return tracker_; }
    const ResponseTracker &tracker() const { return tracker_; }
    WebContainer &webContainer() { return web_; }
    EjbContainer &ejbContainer() { return ejb_; }
    ThreadPool &threadPool() { return pool_; }
    VmStat &vmstat() { return vmstat_; }
    const SutConfig &config() const { return config_; }

    /** Null unless config.admission arms a web-tier shed policy. */
    const adm::AdmissionController *admission() const
    {
        return admission_.get();
    }

    /** Live bytes as of the last collection (mark-phase footprint). */
    std::uint64_t gcLiveBytes() const { return gc_.lastLiveBytes(); }

    /** Cumulative time requests spent blocked on disk I/O. */
    SimTime diskBlockedUs() const { return disk_blocked_us_; }

    /**
     * Compute and record one vmstat interval over [from, to), given
     * the busy/disk deltas the caller tracked.
     */
    VmStatRow recordVmstatWindow(SimTime from, SimTime to,
                                 const std::array<SimTime,
                                                  componentCount> &busy_delta,
                                 SimTime disk_blocked_delta);

  private:
    SutConfig config_;
    std::shared_ptr<const WorkloadProfiles> profiles_;
    std::shared_ptr<const MethodRegistry> registry_;

    std::unique_ptr<EventQueue> owned_queue_; //!< null in cluster mode
    EventQueue &queue_;
    CpuScheduler scheduler_;
    DiskModel disk_;
    GarbageCollector gc_;
    JitCompiler jit_;
    std::unique_ptr<Jas2004Application> app_; //!< null with remote_db_
    WebContainer web_;
    EjbContainer ejb_;
    ThreadPool pool_;
    ResponseTracker tracker_;
    VmStat vmstat_;
    Rng rng_;
    std::unique_ptr<adm::AdmissionController> admission_;
    std::unique_ptr<Driver> driver_;
    SimTime disk_blocked_us_ = 0;
    RemoteDbTier remote_db_;
    CompletionHook completion_hook_;
    FailureHook failure_hook_;
    bool down_ = false;
    std::uint64_t crash_epoch_ = 0;

    /** In-flight request state for the stage machine. */
    struct Job
    {
        Request request;
        const TxnProfile *profile = nullptr;
        double noise = 1.0;
        int stage = 0;
        ThreadPool::Done done;
        TxnDbOutcome db;
        double compile_us = 0.0;
        std::uint64_t epoch = 0; //!< crash epoch at admission
        bool failed = false;
    };

    void handleRequest(const Request &request);
    /** Hand an admitted request to the WAS thread pool. */
    void dispatch(const Request &request);
    void advanceJob(const std::shared_ptr<Job> &job);
    void scheduleAdvance(const std::shared_ptr<Job> &job, SimTime when);

    /** True once a crash has invalidated this job. */
    bool jobAborted(const Job &job) const
    {
        return job.failed || down_ || job.epoch != crash_epoch_;
    }

    /** Error the job out (idempotent) and release its WAS thread. */
    void failJob(const std::shared_ptr<Job> &job, ErrorKind kind);

    /** Run a burst in scheduler quanta, then advance the job. */
    void runBurst(const std::shared_ptr<Job> &job, double burst_us,
                  Component component);
    SimTime runGc(SimTime now);
    double demandNoise();
    double jitWarmupFactor(SimTime now,
                           const TxnProfile &profile,
                           double &compile_us);
};

} // namespace jasim

#endif // JASIM_CORE_SUT_H
