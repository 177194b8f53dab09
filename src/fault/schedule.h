/**
 * @file
 * Deterministic fault schedules.
 *
 * A FaultSchedule is a scripted list of chaos events — node crash
 * (with optional restart), link degradation (latency multiplier and
 * drop probability), database disk slowdown, and connection-pool
 * kill — each pinned to an absolute simulated time. Schedules come
 * from a compact `--faults` spec string or are built
 * programmatically; either way the events land on the shared event
 * queue at fixed times, so a chaos run is bit-reproducible from
 * `(seed, schedule)` alone.
 *
 * Spec grammar (semicolon-separated events):
 *
 *   crash@60:node=0,restart=30       crash node 0 at t=60 s, restart
 *                                    it 30 s later (omit restart to
 *                                    keep it down)
 *   degrade@90:node=1,lat=4,drop=0.05,dur=20
 *                                    node 1's DB link: 4x latency and
 *                                    5% message loss for 20 s (omit
 *                                    node to degrade every DB link;
 *                                    omit dur to make it permanent)
 *   dbslow@120:mult=8,dur=30         DB disk service times 8x for 30 s
 *   poolkill@150:node=0              drop node 0's idle DB connections
 *   dbcrash@60:restart=2             power off the DB tier at t=60 s,
 *                                    begin restart+ARIES recovery 2 s
 *                                    later (the DB stays out of
 *                                    rotation until redo/undo finish)
 *   tornwrite@80:restart=2           same, but the in-flight WAL force
 *                                    is torn mid-record: half the
 *                                    unconfirmed window is lost
 *   dbcrash@60:shard=1               replicated tier: crash shard 1's
 *                                    primary (failover promotes a
 *                                    replica; shard= defaults to 0)
 *   dbcrash@60:shard=1,replica=0,restart=5
 *                                    crash a standby instead: shard
 *                                    1's replica 0 drops its stream,
 *                                    restarts and resilvers 5 s later
 *   partition@60:sides=0,1,db0|2,db0.0,dur=20
 *                                    split the fabric for 20 s: node
 *                                    0+1 and shard 0's primary on one
 *                                    side, node 2 and shard 0 replica
 *                                    0 on the other. Sides are
 *                                    '|'-separated endpoint lists
 *                                    (`3` = node, `db1` = shard 1
 *                                    primary, `db1.2` = its replica
 *                                    2); endpoints on no side stay
 *                                    reachable from everyone. Omit
 *                                    dur to make the split permanent.
 *   switchover@60:shard=1            planned handoff: drain shard 1's
 *                                    in-flight txns, promote the
 *                                    most-caught-up replica at the
 *                                    applied watermark with a fresh
 *                                    fencing token (~zero blackout)
 *
 * `shard=` is accepted for dbcrash/tornwrite/switchover only, and
 * `replica=` for dbcrash only (a torn write is a primary WAL-device
 * event); both are rejected for every other kind, like `node=`.
 * `node=all` is degrade's alone: crash and poolkill take one node.
 * Times and durations are seconds from 0 to 1e9 (fractions allowed);
 * `node`, `shard` and `replica` are integers; `lat` and `mult` are at
 * least 1, and `drop` is 0 to 1. Unknown kinds, malformed or
 * out-of-range numbers, and unknown keys throw std::invalid_argument
 * with a message naming the offending token (sim/config.h reads
 * them).
 *
 * parse() additionally validates the schedule as a whole: an event
 * that targets a node or shard already down at its timestamp (inside
 * an earlier crash's [at, at+restart) window, or any time after a
 * restart-less crash), a partition declared while another partition
 * window is still open, and exact duplicates (same kind, time, and
 * target) are all rejected with a clear error instead of silently
 * arming both. The window check is static: a replicated shard may
 * reopen earlier via failover promotion, so schedules that crash the
 * same shard twice should bound the first outage with `restart=`.
 * Programmatic add() skips validation by design.
 */

#ifndef JASIM_FAULT_SCHEDULE_H
#define JASIM_FAULT_SCHEDULE_H

#include <cstdint>
#include <string>
#include <vector>

#include "net/endpoint.h"
#include "sim/types.h"

namespace jasim {

/** What a scripted fault does. */
enum class FaultKind : std::uint8_t
{
    NodeCrash,   //!< node dies; in-flight requests error
    LinkDegrade, //!< DB link latency multiplier + drop probability
    DbSlow,      //!< DB disk service-time multiplier
    PoolKill,    //!< drop a node's idle DB connections
    DbCrash,     //!< DB tier powers off; ARIES recovery on restart
    DbTornWrite, //!< DB crash with a torn in-flight WAL force
    Partition,   //!< fabric splits into sides; cross-side sends fail
    Switchover,  //!< planned primary handoff (drain + lease handoff)
};

const char *faultKindName(FaultKind kind);

/** One scripted event. */
struct FaultEvent
{
    /** Target "every node" (LinkDegrade only). */
    static constexpr std::size_t kAllNodes =
        static_cast<std::size_t>(-1);

    /** "Not specified" for the shard/replica scoping keys. */
    static constexpr std::size_t kNoTarget =
        static_cast<std::size_t>(-1);

    FaultKind kind = FaultKind::NodeCrash;
    SimTime at = 0;                 //!< absolute injection time
    std::size_t node = kAllNodes;   //!< target node
    SimTime duration = 0;           //!< degrade/dbslow window (0 = forever)
    SimTime restart_after = 0;      //!< crash: restart delay (0 = never)
    double latency_mult = 1.0;      //!< degrade: propagation multiplier
    double drop_probability = 0.0;  //!< degrade: per-message loss
    double disk_mult = 1.0;         //!< dbslow: service multiplier
    /** dbcrash/tornwrite/switchover: target shard (unset = shard 0). */
    std::size_t shard = kNoTarget;
    /** dbcrash: crash this replica instead of the primary. */
    std::size_t replica = kNoTarget;
    /** partition: the sides of the split (each a list of endpoints). */
    std::vector<std::vector<NetEndpoint>> sides;

    /** One-line human-readable form (used by summaries and tests). */
    std::string describe() const;
};

/**
 * An ordered list of fault events. Events are kept sorted by
 * injection time (stable for ties, so the spec's order is the
 * tie-break), which the injector relies on.
 */
class FaultSchedule
{
  public:
    FaultSchedule() = default;

    /**
     * Parse a `--faults` spec (see file header for the grammar).
     * An empty or all-whitespace spec yields an empty schedule.
     * @throws std::invalid_argument on any malformed token.
     */
    static FaultSchedule parse(const std::string &spec);

    /** Append one event (keeps the list time-sorted, stable). */
    void add(const FaultEvent &event);

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }

    /** True if any event crashes the DB tier (recovery must arm). */
    bool hasDbFault() const;

    /** True if any event splits the fabric (partition map must arm). */
    bool hasPartition() const;

    /** True if any event is a planned switchover. */
    bool hasSwitchover() const;

    /**
     * Throw std::invalid_argument naming the first event whose node,
     * shard, replica or partition endpoint lies outside the largest
     * cluster a run builds: `nodes` app nodes and `shards` shards of
     * `replicas` replicas each. ClusterUnderTest skips such an event,
     * since a smaller sweep point may lack what a larger one has, so
     * only the caller can tell a target that no point has.
     */
    void checkTargets(std::size_t nodes, std::size_t shards,
                      std::size_t replicas) const;

    const std::vector<FaultEvent> &events() const { return events_; }

    /** Semicolon-joined describe() of every event. */
    std::string summary() const;

  private:
    /** Whole-schedule checks (already-down targets, duplicates). */
    void validate() const;

    std::vector<FaultEvent> events_;
};

} // namespace jasim

#endif // JASIM_FAULT_SCHEDULE_H
