/**
 * @file
 * The cluster under test: N app-server nodes behind a load balancer,
 * sharing one remote database tier over a simulated network fabric.
 *
 * Horizontal-scaling extension of the paper's single-box SUT (its §7
 * leaves scaling as future work): every node is a full
 * SystemUnderTest stack (scheduler, JVM heap/GC, JIT, thread pool,
 * vmstat) driven through a front-end balancer, and every EJB->DB call
 * leaves the node — it acquires a connection from the node's bounded
 * pool, crosses the node-DB link, runs its CPU and I/O on the shared
 * DB node, and returns. All of it shares one event queue, so cluster
 * runs are exactly as deterministic as single-box runs. The shared DB
 * tier (or an undersized balancer) is the emergent scaling bottleneck
 * the abl_cluster_scaling bench sweeps for.
 *
 * The DB tier is always a set of repl::ShardGroups -- by default one
 * group with no replicas, the single shared DB box -- and every call
 * runs one pipeline (startShardCall ... settleShardFailure). What
 * differs between a healthy box, a faulted one and a replicated tier
 * is data: the ArmedSet that armedFeatures() derives from the config.
 */

#ifndef JASIM_CORE_CLUSTER_H
#define JASIM_CORE_CLUSTER_H

#include <memory>
#include <vector>

#include "core/sut.h"
#include "db/durability_audit.h"
#include "fault/injector.h"
#include "fault/resilience.h"
#include "jvm/heap_worker.h"
#include "net/connection_pool.h"
#include "net/fabric.h"
#include "net/load_balancer.h"
#include "repl/replicated_db.h"
#include "repl/shard_map.h"

namespace jasim {

/**
 * Crash-consistency knobs for the DB tier. A dbcrash/tornwrite verb
 * in the schedule, or a replicated tier, arms recovery; an
 * armed-baseline run schedules its DB fault past the horizon.
 */
struct DbRecoveryConfig
{
    /** Fuzzy-checkpoint cadence (0 disables checkpointing). */
    double checkpoint_interval_s = 30.0;
};

/** Everything configurable about the cluster. */
struct ClusterConfig
{
    /** App-server node count. */
    std::size_t nodes = 2;

    /**
     * Per-node stack configuration; `node.injection_rate` is the
     * per-node IR (the cluster driver injects nodes x that).
     */
    SutConfig node;

    LbConfig lb;
    FabricConfig fabric;

    /**
     * Each node's connection pool to the DB tier. Its
     * `acquire_timeout_us` is ignored: acquires are bounded only when
     * armed, by `resilience.pool_acquire_timeout_s`.
     */
    ConnectionPoolConfig db_pool;

    /** Every DB box (shard primary) of the tier. */
    std::size_t db_cpus = 4;
    DiskConfig db_disk;          //!< RAM disk by default
    double db_quantum_us = 2000.0;

    /** Message sizes (bytes) on the wire. */
    double request_bytes = 512.0;     //!< client -> LB -> node
    double query_bytes = 384.0;       //!< node -> DB, per transaction
    double db_response_bytes = 2048.0;

    /**
     * Scripted chaos (empty = healthy run). A non-empty schedule also
     * arms the resilience machinery below; an empty one leaves the
     * cluster byte-identical to a build without fault support.
     */
    FaultSchedule faults;

    /** Health checks, retries, breaker, timeouts. */
    ResilienceConfig resilience;

    /** DB-tier crash consistency (armed by dbcrash/tornwrite verbs). */
    DbRecoveryConfig db_recovery;

    /**
     * The DB tier's shape (jasim::repl). The default -- shards=1,
     * replicas=0 -- is one unreplicated shard group: the single
     * shared DB box.
     */
    repl::ReplConfig repl;

    /** Aggregate injection rate the driver runs at. */
    double totalInjectionRate() const
    {
        return node.injection_rate * static_cast<double>(nodes);
    }
};

/** The features a cluster runs with; every other one is inert. */
struct ArmedSet
{
    bool replication = false;     //!< >1 shard, or >=1 replica
    bool recovery = false;        //!< WAL retention, audit, checkpoints
    bool resilience = false;      //!< LB health probes and ejection
    bool admission = false;       //!< the balancer's in-flight cap
    bool deadline = false;        //!< per-attempt EJB->DB deadline
    bool retry = false;           //!< backoff retries of failed attempts
    bool breaker = false;         //!< circuit breaker before attempts
    bool bounded_acquire = false; //!< pool acquires time out
    bool lease = false;           //!< per-shard leases, fencing tokens

    bool operator==(const ArmedSet &) const = default;
};

/**
 * The one place a config arms cluster features, from its fault
 * schedule, its DB tier's shape and its admission spec alone:
 *  - recovery: a replicated tier or a dbcrash/tornwrite verb;
 *  - resilience: any fault verb, even one past the horizon;
 *  - deadline and retry: resilience or a replicated tier;
 *  - breaker: resilience on the unreplicated tier;
 *  - bounded_acquire: admission, resilience or a replicated tier;
 *  - lease: a replicated tier and a partition/switchover verb.
 * A disarmed feature schedules no event and draws no RNG value.
 */
ArmedSet armedFeatures(const ClusterConfig &config);

/** The assembled cluster. */
class ClusterUnderTest
{
  public:
    ClusterUnderTest(const ClusterConfig &config,
                     std::shared_ptr<const WorkloadProfiles> profiles,
                     std::shared_ptr<const MethodRegistry> registry,
                     std::uint64_t seed);

    /** Begin injecting load over [0, end). */
    void start(SimTime end);

    /**
     * Advance the shared discrete-event simulation to `horizon`, and
     * wait for every allocation queued on the heap worker.
     */
    void advanceTo(SimTime horizon)
    {
        queue_.runUntil(horizon);
        if (heap_worker_)
            heap_worker_->drain();
    }

    EventQueue &queue() { return queue_; }
    const ClusterConfig &config() const { return config_; }
    const ArmedSet &armed() const { return armed_; }
    std::size_t nodeCount() const { return nodes_.size(); }
    SystemUnderTest &node(std::size_t i) { return *nodes_[i]; }
    const SystemUnderTest &node(std::size_t i) const
    {
        return *nodes_[i];
    }
    LoadBalancer &loadBalancer() { return lb_; }
    NetworkFabric &fabric() { return fabric_; }
    ConnectionPool &dbPool(std::size_t node) { return *pools_[node]; }

    /**
     * Aggregate tracker: completions are recorded when the response
     * reaches the client, labelled with the serving node.
     */
    ResponseTracker &tracker() { return tracker_; }
    const ResponseTracker &tracker() const { return tracker_; }

    /** The cluster driver; null until start(). */
    const Driver *driver() const { return driver_.get(); }

    /** Retry policy state (token-bucket budget counters). */
    const RetryPolicy &retryPolicy() const { return retry_; }

    /** Aggregate operations per second over [from, to). */
    double jops(SimTime from, SimTime to) const
    {
        return tracker_.jops(from, to);
    }

    /** Mean shard-primary CPU utilization over [0, now). */
    double dbUtilization() const
    {
        double sum = 0.0;
        for (const auto &group : shards_)
            sum += group->scheduler().utilization(queue_.now());
        return sum / static_cast<double>(shards_.size());
    }

    /** Cumulative time transactions waited on DB-node disk I/O. */
    SimTime dbDiskBlockedUs() const { return db_disk_blocked_us_; }

    // ---- fault injection & resilience ----

    /** Null on healthy runs. */
    const FaultInjector *injector() const { return injector_.get(); }
    /** Null unless the breaker is armed. */
    CircuitBreaker *breaker() { return breaker_.get(); }
    const CircuitBreaker *breaker() const { return breaker_.get(); }
    /** Null unless resilience is armed. */
    HealthChecker *healthChecker() { return health_.get(); }
    const HealthChecker *healthChecker() const { return health_.get(); }

    // ---- DB crash consistency ----

    std::uint64_t dbCrashCount() const { return db_crashes_; }
    std::uint64_t checkpointCount() const { return checkpoints_; }
    std::uint64_t checkpointPagesFlushed() const
    {
        return checkpoint_pages_;
    }

    /** Stats of the most recent completed recovery. */
    const RecoveryStats &lastRecovery() const { return last_recovery_; }

    /** Time spent replaying (restart -> back in rotation), summed. */
    SimTime dbReplayUs() const { return db_replay_us_; }

    /** Audit result published at the end of each recovery. */
    const AuditReport &lastAudit() const { return last_audit_; }
    bool audited() const { return audited_; }

    /** Field-wise sum of every shard's audit, reconciled right now. */
    AuditReport auditNow() const;

    // ---- the DB tier: shard groups (jasim::repl) ----

    std::size_t shardCount() const { return shards_.size(); }
    repl::ShardGroup &shard(std::size_t s) { return *shards_[s]; }
    const repl::ShardGroup &shard(std::size_t s) const
    {
        return *shards_[s];
    }
    const repl::ShardMap &shardMap() const { return shard_map_; }

    const repl::FailoverController *failoverController() const
    {
        return &failover_;
    }

    // ---- partition tolerance (armed lease) ----

    /**
     * Endpoint of the member currently serving a shard (the primary
     * slot, or the promoted replica during a partition).
     */
    NetEndpoint servingEndpoint(std::size_t shard) const;

    /** Deposed-primary divergent tails fenced and rewound at heal. */
    std::uint64_t staleRewinds() const { return stale_rewinds_; }
    std::uint64_t staleRewindBytes() const
    {
        return stale_rewind_bytes_;
    }

  private:
    ClusterConfig config_;
    ArmedSet armed_;
    std::shared_ptr<const WorkloadProfiles> profiles_;
    std::shared_ptr<const MethodRegistry> registry_;

    EventQueue queue_;
    NetworkFabric fabric_;
    LoadBalancer lb_;
    std::vector<std::unique_ptr<ConnectionPool>> pools_;
    /** Every node's allocations; null unless node.heap_worker. */
    std::unique_ptr<HeapWorker> heap_worker_;
    std::vector<std::unique_ptr<SystemUnderTest>> nodes_;
    ResponseTracker tracker_;
    std::uint64_t seed_;
    std::unique_ptr<Driver> driver_;
    SimTime lb_free_ = 0; //!< balancer single-server serializer
    SimTime db_disk_blocked_us_ = 0;

    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<HealthChecker> health_;
    std::unique_ptr<CircuitBreaker> breaker_;
    RetryPolicy retry_;
    Rng retry_rng_;           //!< backoff jitter (own forked stream)
    SimTime db_timeout_us_ = 0;

    SimTime db_replay_us_ = 0;
    std::uint64_t db_crashes_ = 0;
    std::uint64_t checkpoints_ = 0;
    std::uint64_t checkpoint_pages_ = 0;
    RecoveryStats last_recovery_;
    AuditReport last_audit_;
    bool audited_ = false;

    // ---- the DB tier ----
    repl::ShardMap shard_map_;
    std::vector<std::unique_ptr<repl::ShardGroup>> shards_;
    repl::FailoverController failover_;
    Rng route_rng_; //!< shard-routing key draws (own forked stream)

    /**
     * What a deposed primary still holds above the promotion
     * watermark, captured at promotion time. On heal the tail ships
     * with the old fencing token, bounces on every stream's fence,
     * and the deposed timeline is rewound (sequential read of the
     * divergent tail) before the member rejoins as a standby.
     */
    struct StaleRemnant
    {
        bool valid = false;
        std::uint64_t token = 0;      //!< fencing token pre-promotion
        std::uint64_t issued_lsn = 0; //!< stale timeline's WAL head
        std::uint64_t bytes = 0;      //!< log bytes above the watermark
        std::uint64_t records = 0;    //!< records above the watermark
    };
    std::vector<StaleRemnant> stale_remnants_;
    std::uint64_t stale_rewinds_ = 0;
    std::uint64_t stale_rewind_bytes_ = 0;

    /** Per-shard blocking crash->recovery, when no replica promotes. */
    struct ShardOutage
    {
        enum class Phase : std::uint8_t
        {
            None,      //!< serving, or blacked out by a failover
            Crashed,   //!< down, restart not yet begun
            Replaying, //!< restarted, replaying the WAL
        };
        Phase phase = Phase::None;
        SimTime crash_at = 0;
        SimTime restart_at = 0;
    };
    std::vector<ShardOutage> shard_outages_;

    /** One EJB->DB call, across its (possibly retried) attempts. */
    struct DbCall
    {
        std::size_t node = 0;
        RequestType type = RequestType::Browse;
        double noise = 1.0;
        std::size_t attempt = 1;
        std::size_t shard = 0;        //!< owning shard
        std::uint64_t generation = 0; //!< shard generation at execute
        SystemUnderTest::DbDone done;
    };

    void handleRequest(const Request &request);
    void routeToNode(const Request &request);
    void onNodeComplete(std::size_t node, const Request &request,
                        SimTime finish);
    void onNodeFailure(std::size_t node, const Request &request,
                       SimTime at, ErrorKind kind);

    /**
     * Charge `disk` (a shard primary's) for one txn's reads, page
     * cleaning and log force; returns the I/O-done time.
     */
    SimTime chargeTxnDisk(DiskModel &disk, const TxnDbOutcome &outcome,
                          SimTime now);

    void applyFault(const FaultEvent &event);
    void degradeLinks(const FaultEvent &event, bool restore);
    void probeNode(std::size_t node);
    void applyProbeResult(std::size_t node, bool healthy);

    // the EJB->DB call pipeline
    void startShardCall(std::size_t node, RequestType type,
                        double noise, SystemUnderTest::DbDone done);
    void startShardAttempt(const std::shared_ptr<DbCall> &call);
    void runShardAttempt(const std::shared_ptr<DbCall> &call,
                         SimTime ready);
    void finishShardAttempt(
        const std::shared_ptr<DbCall> &call,
        const std::shared_ptr<bool> &settled,
        const std::shared_ptr<TxnDbOutcome> &outcome);
    void sendShardResponse(
        const std::shared_ptr<DbCall> &call,
        const std::shared_ptr<bool> &settled,
        const std::shared_ptr<TxnDbOutcome> &outcome);
    void deliverShardResponse(
        const std::shared_ptr<DbCall> &call,
        const std::shared_ptr<bool> &settled,
        const std::shared_ptr<TxnDbOutcome> &outcome, SimTime send_at);
    void settleShardFailure(const std::shared_ptr<DbCall> &call,
                            ErrorKind kind);
    /** The fail-fast error of a shard that is down or draining. */
    ErrorKind outageError(std::size_t shard) const;

    // DB faults: replica-scoped crash/restart, primary failover, and
    // the blocking per-shard crash+recover when no replica promotes
    void applyShardFault(const FaultEvent &event);
    void crashShardTier(std::size_t shard, bool torn,
                        SimTime restart_after);
    void beginShardRecovery(std::size_t shard);
    void finishShardRecovery(std::size_t shard);
    void shardCheckpointTick();

    // partition tolerance (only reached when the schedule can split
    // the fabric or hand a primary off)
    void applyPartition(const FaultEvent &event);
    void healPartition();
    void applySwitchover(const FaultEvent &event);
    void leaseMonitorTick();
    /** Node n can currently reach the member serving `shard`. */
    bool nodeReachesShard(std::size_t node, std::size_t shard) const;

    static std::uint64_t responseBytes(RequestType type);
};

} // namespace jasim

#endif // JASIM_CORE_CLUSTER_H
