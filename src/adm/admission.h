/**
 * @file
 * Web-tier admission control: bounded accept queue, time-in-queue
 * deadlines, and pluggable shed policies.
 *
 * The WAS thread pool queues without bound, so an open-loop overload
 * (see driver/arrival.h) collapses the node: queue delay grows
 * without limit and every response blows the SLA. The admission
 * controller sits in front of the pool and sheds excess load instead:
 *
 *  - `none`     — legacy behaviour, nothing is built (the default).
 *  - `static`   — fixed concurrency cap; excess requests wait in a
 *                 bounded FIFO with a time-in-queue deadline and are
 *                 shed (fast-rejected, ~zero service time) beyond it.
 *  - `adaptive` — the static machinery plus a CoDel-style controller:
 *                 each interval it inspects the *minimum* observed
 *                 queueing delay; above the target it tightens the
 *                 cap multiplicatively, comfortably below it relaxes
 *                 additively, so the cap hunts the largest
 *                 concurrency the node can serve within the target.
 *
 * The same config carries the balancer's in-flight cap (`lb_cap`),
 * so one `--admission` spec arms the whole shedding ladder: LB cap ->
 * per-node accept queue -> bounded EJB->DB pool acquire.
 */

#ifndef JASIM_ADM_ADMISSION_H
#define JASIM_ADM_ADMISSION_H

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "sim/event_queue.h"
#include "sim/types.h"

namespace jasim::adm {

/** Shedding policy at the web tier. */
enum class ShedPolicy : std::uint8_t
{
    None,     //!< unbounded legacy queueing (no controller built)
    Static,   //!< fixed concurrency cap + bounded deadline queue
    Adaptive, //!< static + CoDel-style queue-delay cap controller
};

const char *shedPolicyName(ShedPolicy policy);

/** Why a request was shed. */
enum class ShedReason : std::uint8_t
{
    QueueFull,     //!< accept queue at capacity on arrival
    QueueDeadline, //!< exceeded its time-in-queue deadline
};

/**
 * Parsed `--admission` spec. Grammar (validated like `--faults`):
 *
 *   ""                                     none (the default)
 *   none[:lb_cap=N]                        LB-only shedding
 *   static:[cap=C][,queue=Q][,deadline=D][,lb_cap=N]
 *   adaptive:[cap=C][,min=M][,target=T][,interval=I]
 *           [,queue=Q][,deadline=D][,lb_cap=N]
 *
 *   cap      max in-service requests (0 = the node's WAS threads)
 *   min      adaptive cap floor
 *   queue    accept-queue capacity (0 = shed immediately at cap)
 *   deadline time-in-queue deadline, seconds (0 = wait forever)
 *   target   adaptive queue-delay target, seconds
 *   interval adaptive adjustment cadence, seconds
 *   lb_cap   cluster-wide balancer in-flight cap (0 = off)
 *
 * Counts are integers >= 0 (min >= 1); seconds are 0 to 1e9, and
 * target and interval must be above 0. Malformed or out-of-range
 * specs throw std::invalid_argument naming the offending token
 * (sim/config.h reads them).
 */
struct AdmissionConfig
{
    ShedPolicy policy = ShedPolicy::None;

    /** Max in-service requests; 0 = resolved to WAS thread count. */
    std::size_t max_concurrent = 0;

    /** Accept-queue capacity. */
    std::size_t queue_capacity = 128;

    /** Time-in-queue deadline, seconds (0 disables). */
    double queue_deadline_s = 0.5;

    // adaptive controller
    double target_delay_s = 0.1;   //!< queue-delay target
    double adjust_interval_s = 0.5; //!< controller cadence
    std::size_t min_concurrent = 4; //!< cap floor

    /** Balancer in-flight cap (cluster-level; 0 = off). */
    std::size_t lb_inflight_cap = 0;

    static AdmissionConfig parse(const std::string &spec);

    /** True when the per-node controller is built. */
    bool webEnabled() const { return policy != ShedPolicy::None; }

    /** True when any part of the shedding ladder is armed. */
    bool enabled() const
    {
        return webEnabled() || lb_inflight_cap > 0;
    }

    /** Human-readable one-liner for banners and logs. */
    std::string describe() const;
};

/** Counters the tracker and benches roll up. */
struct AdmissionStats
{
    std::uint64_t offered = 0;       //!< requests presented
    std::uint64_t admitted = 0;      //!< entered service (either way)
    std::uint64_t queued = 0;        //!< waited in the accept queue
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t cap_raises = 0;    //!< adaptive additive increases
    std::uint64_t cap_cuts = 0;      //!< adaptive multiplicative cuts
    std::size_t peak_queue = 0;
    std::size_t peak_in_service = 0;
    SimTime queue_wait_us = 0;       //!< total time-in-queue, admitted

    std::uint64_t shed() const
    {
        return shed_queue_full + shed_deadline;
    }
};

/**
 * One node's admission controller. offer() either admits the request
 * (now or after a bounded queue wait) or sheds it — exactly one of
 * the two callbacks fires, exactly once. Every admitted request must
 * release() when it finishes, whatever its outcome.
 */
class AdmissionController
{
  public:
    using Admit = std::function<void(SimTime at)>;
    using Shed = std::function<void(SimTime at, ShedReason reason)>;

    /** `config.policy` must not be None; `max_concurrent` and
     *  `min_concurrent` must already be resolved (> 0). */
    AdmissionController(const AdmissionConfig &config,
                        EventQueue &queue);

    void offer(Admit admit, Shed shed);
    void release();

    std::size_t cap() const { return cap_; }
    std::size_t inService() const { return in_service_; }
    std::size_t queueDepth() const { return waiting_.size(); }
    const AdmissionStats &stats() const { return stats_; }
    const AdmissionConfig &config() const { return config_; }

  private:
    struct Waiter
    {
        Admit admit;
        Shed shed;
        SimTime since = 0;
        std::uint64_t id = 0;
    };

    AdmissionConfig config_;
    EventQueue &queue_;
    std::size_t cap_;
    std::size_t max_cap_;
    std::size_t in_service_ = 0;
    std::deque<Waiter> waiting_;
    std::uint64_t next_waiter_id_ = 1;
    AdmissionStats stats_;

    // adaptive: minimum queue delay observed this interval, or -1
    // when nothing was admitted from the queue yet.
    double interval_min_delay_s_ = -1.0;

    void enterService(Admit &admit, SimTime since);
    void drainQueue();
    void adjustTick();
    void observeDelay(double delay_s);
};

} // namespace jasim::adm

#endif // JASIM_ADM_ADMISSION_H
