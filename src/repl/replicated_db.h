/**
 * @file
 * A shard group: one primary database plus R log-shipping replicas.
 *
 * The group bundles everything one shard of the DB tier owns -- the
 * primary's application/database, CPU scheduler, data disk, durability
 * auditor, and the replica streams -- together with the ack rule that
 * distinguishes the two replication modes. The cluster's default tier,
 * the single shared DB box, is one group with no replicas and, unless
 * a DB fault arms it, no WAL retention or audit.
 *
 *   - async: a commit acks when the primary's own WAL force
 *     completes; replication lag is invisible to clients but acked
 *     commits above the promotion watermark are LOST on failover
 *     (reported by the auditor as lost_acked).
 *   - sync:  a commit acks only when at least one replica has the
 *     commit durable (whenAckDurable), so every acked commit is at
 *     or below any future promotion watermark and failover loses
 *     nothing acked -- the auditor gates on exactly this.
 *
 * The group also maintains the primary's WAL truncation floor at the
 * minimum replica durable watermark, so checkpoints never discard log
 * a standby still needs. After a failover the promoted replica is the
 * new primary; by symmetry (identical config) the group keeps serving
 * with the same members, streams resynced to the promotion watermark
 * -- the old primary rejoins as a standby.
 *
 * When a schedule can split the fabric (partition/switchover verbs),
 * the group additionally arms a *lease* (repl/lease.h): heartbeat
 * rounds ride the replica links, a majority of acks extends the
 * lease, and commits stop acking the moment it lapses. Sync acks
 * then also need a durability quorum (Lease::quorumAcks() replicas)
 * instead of any single replica, so a promoted majority always
 * intersects the ack set. All of it is gated on armLease() -- an
 * unleased group is byte-identical to PR 6.
 */

#ifndef JASIM_REPL_REPLICATED_DB_H
#define JASIM_REPL_REPLICATED_DB_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "db/durability_audit.h"
#include "os/disk.h"
#include "os/scheduler.h"
#include "repl/failover.h"
#include "repl/lease.h"
#include "repl/log_ship.h"
#include "repl/shard_map.h"
#include "was/application.h"

namespace jasim::repl {

/** Cluster-level replication axis (jasim::repl is off by default). */
struct ReplConfig
{
    std::size_t shards = 1;   //!< shard groups partitioning the keys
    std::size_t replicas = 0; //!< log-shipping standbys per shard
    bool sync = false;        //!< ack only after a replica is durable
    ReplicaConfig replica;    //!< stream link/disk/apply parameters
    FailoverConfig failover;
    LeaseConfig lease;        //!< armed by partition/switchover verbs

    /** Anything beyond one unreplicated shard group? */
    bool enabled() const { return shards > 1 || replicas > 0; }
};

/** Sizing of one shard group. */
struct ShardGroupConfig
{
    DbConfig db;
    double injection_rate = 10.0; //!< population share of this shard
    std::size_t cpus = 4;
    double quantum_us = 2000.0;   //!< CPU burst slice (burst())
    DiskConfig disk;
    /**
     * WAL retention and the durability audit, which crash recovery,
     * shipping and failover all need. Only an unreplicated group may
     * run without them.
     */
    bool recovery = true;
    std::size_t replicas = 0;
    ReplicaConfig replica;
    bool sync = false;
};

/** One shard: primary + replicas + ack bookkeeping. */
class ShardGroup
{
  public:
    ShardGroup(EventQueue &queue, const ShardGroupConfig &config,
               std::uint64_t seed);

    Jas2004Application &application() { return app_; }
    Database &database() { return app_.database(); }
    const Database &database() const { return app_.database(); }
    CpuScheduler &scheduler() { return scheduler_; }
    const CpuScheduler &scheduler() const { return scheduler_; }
    DiskModel &disk() { return disk_; }
    const DiskModel &disk() const { return disk_; }
    DurabilityAuditor &auditor() { return auditor_; }
    const DurabilityAuditor &auditor() const { return auditor_; }

    bool syncMode() const { return config_.sync; }

    /**
     * Run a CPU burst on the primary's scheduler in quanta of
     * `quantum_us`, then `then`. The slice continuation captures 48
     * bytes, so it fits the event kernel's inline buffer.
     */
    void burst(double burst_us, std::function<void()> then);

    std::size_t replicaCount() const { return replicas_.size(); }
    LogShipStream &replica(std::size_t i) { return *replicas_[i]; }
    const LogShipStream &replica(std::size_t i) const
    {
        return *replicas_[i];
    }

    /** Run the audit-table reconciliation for this shard. */
    AuditReport auditNow() const
    {
        return auditor_.audit(app_.database(), app_.auditTable());
    }

    // ---- shipping & acks ----

    /**
     * The primary's force I/O up to `lsn` completed (`bytes` newly
     * durable): fan the window out to every replica stream.
     */
    void shipForced(std::uint64_t lsn, std::uint64_t bytes);

    /**
     * Run `done` once the commit at `lsn` is durable on at least one
     * live replica (immediately when it already is, or when there are
     * no replicas to wait for). Sync-mode commits ack through here.
     * Waiters are dropped -- never run -- on a blackout; the caller's
     * attempt deadline reclaims the request.
     */
    using AckFn = std::function<void()>;
    void whenAckDurable(std::uint64_t lsn, AckFn done);

    std::uint64_t ackWaits() const { return ack_waits_; }

    // ---- lease / fencing (armed only by partition-capable runs) ----

    /**
     * Per-replica reachability, supplied by the cluster (closes over
     * the fabric's partition map and the current serving endpoint).
     */
    using ReachFn = std::function<bool(std::size_t replica)>;

    /** Arm the lease machinery. Without this, PR 6 semantics hold. */
    void armLease(const LeaseConfig &config, ReachFn reachable);
    bool leaseArmed() const { return lease_on_; }

    /** Initial grant + heartbeat loop; call once at cluster start. */
    void startLease();

    /** True when unleased, or the lease is held right now. */
    bool leaseValid() const
    {
        return !lease_on_ || lease_.valid(queue_.now());
    }

    Lease &lease() { return lease_; }
    const Lease &lease() const { return lease_; }

    /** Raise every stream's fence to `token` (promotion). */
    void fenceReplicas(std::uint64_t token);

    /** Fresh full-length grant (a promotion starts with the lease). */
    void regrantLease()
    {
        if (lease_on_)
            lease_.grant(queue_.now() + lease_us_);
    }

    /** Sum of stale windows refused across all streams. */
    std::uint64_t fencedWindows() const;

    /** Shipments/heartbeats refused locally by the partition map. */
    std::uint64_t shipBlocked() const { return ship_blocked_; }
    std::uint64_t heartbeatsBlocked() const { return hb_blocked_; }
    std::uint64_t heartbeatsSent() const { return hb_sent_; }

    /**
     * The member currently serving the shard: kPrimaryMember for the
     * primary slot, else the promoted replica's index. Only consulted
     * by partition-aware callers (endpoint reachability).
     */
    static constexpr std::size_t kPrimaryMember =
        static_cast<std::size_t>(-1);
    std::size_t servingMember() const { return serving_member_; }
    void setServingMember(std::size_t member)
    {
        serving_member_ = member;
    }

    // ---- drain (planned switchover) ----

    /** Track one client txn entering/leaving the shard. */
    void inflightBegin() { ++inflight_; }
    void inflightEnd();
    std::uint64_t inflight() const { return inflight_; }

    /** While draining, new attempts must fail fast (FailoverWait). */
    bool draining() const { return draining_; }
    void beginDrain() { draining_ = true; }
    void endDrain() { draining_ = false; }

    /** Run `done` once no txn is in flight (immediately if so). */
    void whenDrained(std::function<void()> done);

    // ---- watermarks ----

    /** Promotion watermark: highest durable LSN on a live replica. */
    std::uint64_t maxLiveReplicaDurable() const;

    /** Truncation floor: lowest durable LSN across all replicas. */
    std::uint64_t minReplicaDurable() const;

    bool anyLiveReplica() const;

    /** Index of the most-caught-up live replica (ties: lowest). */
    std::size_t mostCaughtUpReplica() const;

    /** Clamp every live stream to the promoted timeline. */
    void resyncReplicas(std::uint64_t lsn);

    // ---- failover / fault state ----

    bool down() const { return down_; }

    /**
     * Shard blackout: calls fail fast, in-flight completions are
     * dropped (generation bump), pending sync-ack waiters die.
     */
    void beginBlackout();
    void endBlackout();

    /** Stamp for in-flight completions; bumped by beginBlackout(). */
    std::uint64_t generation() const { return generation_; }

  private:
    void onReplicaDurable();
    void heartbeatTick();

    /**
     * The LSN up to which commits may ack: any live replica when
     * unleased (PR 6 rule), else the quorumAcks()-th highest durable
     * watermark among live replicas (quorum intersection).
     */
    std::uint64_t ackDurableLsn() const;

    EventQueue &queue_;
    ShardGroupConfig config_;
    Jas2004Application app_;
    CpuScheduler scheduler_;
    DiskModel disk_;
    DurabilityAuditor auditor_;
    std::vector<std::unique_ptr<LogShipStream>> replicas_;

    bool down_ = false;
    std::uint64_t generation_ = 0;

    struct Waiter
    {
        std::uint64_t lsn;
        AckFn done;
    };
    std::vector<Waiter> waiters_;
    std::uint64_t ack_waits_ = 0;

    // Lease machinery (inert until armLease()).
    bool lease_on_ = false;
    Lease lease_{0};
    LeaseConfig lease_config_;
    ReachFn reachable_;
    SimTime lease_us_ = 0;
    SimTime renew_us_ = 0;
    std::uint64_t hb_bytes_ = 0;
    bool hb_last_valid_ = true;
    std::uint64_t hb_sent_ = 0;
    std::uint64_t hb_blocked_ = 0;
    std::uint64_t ship_blocked_ = 0;
    std::size_t serving_member_ = kPrimaryMember;

    // Drain bookkeeping (pure state: no events unless used).
    std::uint64_t inflight_ = 0;
    bool draining_ = false;
    std::vector<std::function<void()>> drain_waiters_;
};

} // namespace jasim::repl

#endif // JASIM_REPL_REPLICATED_DB_H
