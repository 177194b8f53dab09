/**
 * @file
 * Response-time tracking, throughput series, and SLA adjudication.
 *
 * Produces Figure 2 (per-type transaction rate over time) and the
 * pass/fail verdict (90% of web requests under 2 s, 90% of RMI
 * requests under 5 s), plus the JOPS metric.
 *
 * Fault-injection runs additionally record failures (per error kind
 * and per node), DB retries, and one log of tagged outage windows
 * that every availability query reads, so chaos benches can report
 * error rate and availability next to throughput. Errors are kept
 * out of the response-time percentiles: a fast failure must not
 * flatter the latency distribution.
 */

#ifndef JASIM_DRIVER_RESPONSE_TRACKER_H
#define JASIM_DRIVER_RESPONSE_TRACKER_H

#include <array>
#include <map>
#include <vector>

#include "driver/request.h"
#include "stats/percentile.h"
#include "stats/time_series.h"

namespace jasim {

/** Verdict for one request class. */
struct SlaVerdict
{
    RequestType type = RequestType::Browse;
    double p90_seconds = 0.0;
    double p99_seconds = 0.0; //!< tail beyond the SLA's own percentile
    double bound_seconds = 0.0;
    bool pass = true;
    std::uint64_t completed = 0;
};

/** Availability roll-up of a fault run. */
struct DegradedSummary
{
    std::size_t intervals = 0; //!< merged degraded windows
    SimTime degraded_us = 0;   //!< total time inside those windows
    double degraded_fraction = 0.0; //!< degraded_us / horizon
};

/** What an outage window records, and the target each kind names. */
enum class OutageKind : std::uint8_t
{
    NodeDown,   //!< an app node crashed (target: the node)
    Degraded,   //!< a link degrade or a DB slowdown (no target)
    DbRecovery, //!< a shard's crash until its recovery ends (shard)
    Failover,   //!< a crash or partition failover blackout (shard)
    Switchover, //!< a planned switchover's blackout (shard)
    Partition,  //!< a fabric partition (no target)
};

/** A set of OutageKinds, one bit per kind. */
using OutageKinds = std::uint32_t;

constexpr OutageKinds outageBit(OutageKind kind)
{
    return OutageKinds{1} << static_cast<unsigned>(kind);
}

/** One tagged half-open window [from, to); to == 0: still open. */
struct Outage
{
    /** The target of a kind that names none. */
    static constexpr std::uint32_t kNoTarget =
        static_cast<std::uint32_t>(-1);

    OutageKind kind = OutageKind::Degraded;
    std::uint32_t target = kNoTarget;
    SimTime from = 0;
    SimTime to = 0;
};

/** Collects completions; emits series and verdicts. */
class ResponseTracker
{
  public:
    /** Returned by mean/percentile queries with no samples yet. */
    static constexpr double kNoSamples = -1.0;

    /** Node label for failures not attributable to any node. */
    static constexpr std::uint32_t kNoNode =
        static_cast<std::uint32_t>(-1);

    /** @param bucket seconds per throughput bucket (Figure 2 grain). */
    explicit ResponseTracker(double bucket_seconds = 30.0);

    /**
     * Record a completed request. `node` labels which cluster node
     * served it (0 for a single-box SUT), making cluster roll-ups
     * attributable per node.
     */
    void complete(const Request &request, SimTime finish,
                  std::uint32_t node = 0);

    /** Completions of a type so far. */
    std::uint64_t completedCount(RequestType type) const;

    std::uint64_t totalCompleted() const;

    /** Completions served by a given cluster node (any type). */
    std::uint64_t completedOnNode(std::uint32_t node) const;

    /** Operations per second served by one node over [from, to). */
    double nodeJops(std::uint32_t node, SimTime from, SimTime to) const;

    /**
     * Throughput series (transactions/s) for a type over [0, end).
     * Buckets with no completions report zero.
     */
    TimeSeries throughputSeries(RequestType type, SimTime end) const;

    /** Overall operations per second over [from, to). */
    double jops(SimTime from, SimTime to) const;

    /**
     * Goodput over [from, to): completions per second that met their
     * latency bound. `bound_seconds` overrides the per-type SLA bound
     * when > 0 (overload benches use a uniform bound).
     */
    double goodput(SimTime from, SimTime to,
                   double bound_seconds = 0.0) const;

    /**
     * Fraction of a type's completions at or under the latency bound
     * (the type's SLA bound when `bound_seconds` is 0); kNoSamples
     * before the first completion. Shed/errored requests never enter
     * the numerator or denominator — shedding is visible in
     * shedCount()/errorRate(), not here.
     */
    double slaAttainment(RequestType type,
                         double bound_seconds = 0.0) const;

    /** Requests shed by admission control or the balancer cap. */
    std::uint64_t shedCount() const
    {
        return errorCount(ErrorKind::Rejected) +
            errorCount(ErrorKind::ShedAtLB);
    }

    /** SLA verdicts per type (only steady-state samples if sliced). */
    std::array<SlaVerdict, requestTypeCount> verdicts() const;

    /** True when every type passes its SLA. */
    bool allPass() const;

    /**
     * Mean response time (seconds) for a type; kNoSamples before the
     * first completion of that type.
     */
    double meanResponseSeconds(RequestType type) const;

    /**
     * 99th-percentile response time (seconds) for a type; kNoSamples
     * before the first completion of that type.
     */
    double p99ResponseSeconds(RequestType type) const;

    // ---- failure accounting (fault-injection runs) ----

    /**
     * Record a failed request. `node` is the serving node, or
     * kNoNode for balancer-level failures (no healthy backend).
     */
    void error(const Request &request, SimTime finish,
               std::uint32_t node, ErrorKind kind);

    /** Record one DB retry attempt and its proximate cause. */
    void recordRetry(ErrorKind cause);

    std::uint64_t errorCount() const { return total_errors_; }
    std::uint64_t errorCount(ErrorKind kind) const
    {
        return errors_by_kind_[static_cast<std::size_t>(kind)];
    }
    std::uint64_t errorsOnNode(std::uint32_t node) const;
    std::uint64_t retryCount() const { return retries_; }
    std::uint64_t retryCount(ErrorKind cause) const
    {
        return retry_causes_[static_cast<std::size_t>(cause)];
    }

    /** errors / (errors + completions); 0 when nothing finished. */
    double errorRate() const;

    // ---- the outage log ----

    /**
     * Log one outage window. A node-down for a node that is already
     * down is ignored: its open window stands until noteNodeUp.
     */
    void noteOutage(const Outage &outage);

    /** Close the node's open node-down window at `at` (a restart). */
    void noteNodeUp(std::uint32_t node, SimTime at);

    /**
     * Fraction of [0, horizon) the node was up. Nodes never marked
     * down report 1.0.
     */
    double availability(std::uint32_t node, SimTime horizon) const
    {
        return 1.0 -
            coverage(outageBit(OutageKind::NodeDown), horizon, node)
                .degraded_fraction;
    }

    /**
     * Merged union over [0, horizon) of node-down, degraded,
     * DB-recovery, failover and switchover windows: every outage but
     * partitions, which partitionUs() reports on their own. Overlaps
     * count once.
     */
    DegradedSummary degradedSummary(SimTime horizon) const
    {
        return coverage(~outageBit(OutageKind::Partition), horizon);
    }

    std::size_t dbRecoveryCount() const
    {
        return count(outageBit(OutageKind::DbRecovery));
    }

    /** Summed length of the DB recovery windows. */
    SimTime dbRecoveryUs() const
    {
        return closedUs(outageBit(OutageKind::DbRecovery));
    }

    /** Failover and switchover blackouts (across all shards). */
    std::size_t failoverCount() const { return count(kBlackout); }

    /**
     * Summed length of the closed blackouts, all shards / one shard
     * (unmerged: two overlapping blackouts both count).
     */
    SimTime failoverBlackoutUs() const { return closedUs(kBlackout); }
    SimTime failoverBlackoutUs(std::uint32_t shard) const
    {
        return closedUs(kBlackout, shard);
    }

    /**
     * Fraction of [0, horizon) the shard was serving (1.0 for shards
     * never blacked out).
     */
    double shardAvailability(std::uint32_t shard, SimTime horizon) const
    {
        return 1.0 - coverage(kBlackout, horizon, shard).degraded_fraction;
    }

    std::size_t partitionCount() const
    {
        return count(outageBit(OutageKind::Partition));
    }

    /** Total partitioned time over [0, horizon), windows merged. */
    SimTime partitionUs(SimTime horizon) const
    {
        return coverage(outageBit(OutageKind::Partition), horizon)
            .degraded_us;
    }

    /** Planned switchovers, counted apart from other blackouts. */
    std::size_t switchoverCount() const
    {
        return count(outageBit(OutageKind::Switchover));
    }

  private:
    double bucket_seconds_;
    struct Completion
    {
        SimTime finish;
        std::uint32_t node;
        double seconds; //!< response time, for windowed goodput
    };
    struct PerType
    {
        PercentileTracker responses; //!< seconds
        std::vector<Completion> completions;
    };
    std::array<PerType, requestTypeCount> per_type_;

    std::uint64_t total_errors_ = 0;
    std::array<std::uint64_t, errorKindCount> errors_by_kind_{};
    std::map<std::uint32_t, std::uint64_t> errors_by_node_;
    std::uint64_t retries_ = 0;
    std::array<std::uint64_t, errorKindCount> retry_causes_{};
    std::vector<Outage> outages_; //!< in the order they were noted

    static std::size_t idx(RequestType t)
    {
        return static_cast<std::size_t>(t);
    }

    static constexpr OutageKinds kBlackout =
        outageBit(OutageKind::Failover) |
        outageBit(OutageKind::Switchover);

    /** The node's open node-down window, or null. */
    Outage *openNodeDown(std::uint32_t node);

    /** Windows of the given kinds. */
    std::size_t count(OutageKinds kinds) const;

    /**
     * Summed length of the closed windows of the given kinds on
     * `target` (Outage::kNoTarget: on every target).
     */
    SimTime closedUs(OutageKinds kinds,
                     std::uint32_t target = Outage::kNoTarget) const;

    /**
     * The one merge: the windows of the given kinds on `target`
     * (Outage::kNoTarget: on every target), open ones running to the
     * horizon, clipped to [0, horizon), sorted and merged so no
     * instant is billed twice.
     */
    DegradedSummary coverage(OutageKinds kinds, SimTime horizon,
                             std::uint32_t target = Outage::kNoTarget) const;
};

} // namespace jasim

#endif // JASIM_DRIVER_RESPONSE_TRACKER_H
