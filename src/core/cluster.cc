#include "core/cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace jasim {

namespace {

/** What a blocking ARIES recovery costs the DB node running it. */
struct RecoveryCost
{
    SimTime io_done = 0;        //!< when the recovery I/O completes
    double replay_cpu_us = 0.0; //!< DB CPU to replay, after the I/O
};

/**
 * Recovery takes simulated time: scan the retained WAL (one
 * sequential read), fetch every touched stable page (random reads --
 * a seek each on a spinning device), write the recovery checkpoint,
 * then burn DB CPU replaying. Charges the I/O to `disk` from `now`.
 */
RecoveryCost
chargeRecovery(DiskModel &disk, const RecoveryStats &stats, SimTime now)
{
    SimTime io_done = now;
    if (stats.replay_bytes > 0)
        io_done = disk.readSequential(now, stats.replay_bytes).completion;
    if (stats.pages_flushed > 0) {
        io_done = disk.read(io_done, static_cast<std::uint32_t>(
                                         stats.pages_flushed))
                      .completion;
    }
    const std::uint64_t ckpt_bytes =
        stats.pages_flushed * 4096 + stats.checkpoint_bytes;
    if (ckpt_bytes > 0)
        io_done = disk.write(io_done, ckpt_bytes).completion;
    const double replay_cpu = 1.0 +
        static_cast<double>(stats.redo_records) * 1.2 +
        static_cast<double>(stats.undo_records) * 2.0;
    return {io_done, replay_cpu};
}

} // namespace

ArmedSet
armedFeatures(const ClusterConfig &config)
{
    ArmedSet armed;
    armed.replication = config.repl.enabled();
    armed.recovery = armed.replication || config.faults.hasDbFault();
    armed.resilience = !config.faults.empty();
    armed.admission = config.node.admission.enabled();
    // A fault or a failover blackout must shed load, not wedge
    // connections: attempts get deadlines and retries.
    armed.deadline = armed.resilience || armed.replication;
    armed.retry = armed.deadline;
    armed.breaker = armed.resilience && !armed.replication;
    // Saturation at the DB tier must propagate upstream as an error,
    // not as an unbounded connection queue.
    armed.bounded_acquire =
        armed.admission || armed.resilience || armed.replication;
    armed.lease = armed.replication &&
        (config.faults.hasPartition() || config.faults.hasSwitchover());
    return armed;
}

ClusterUnderTest::ClusterUnderTest(
    const ClusterConfig &config,
    std::shared_ptr<const WorkloadProfiles> profiles,
    std::shared_ptr<const MethodRegistry> registry, std::uint64_t seed)
    : config_(config), armed_(armedFeatures(config)),
      profiles_(std::move(profiles)), registry_(std::move(registry)),
      fabric_(config.fabric, config.nodes, seed ^ 0x4e7ull),
      lb_(config.lb, config.nodes), seed_(seed),
      retry_(config.resilience.retry), retry_rng_(seed ^ 0x7e7a1ull),
      shard_map_(config.repl.shards),
      failover_(queue_, config.repl.failover),
      route_rng_(seed ^ 0x5a4dull)
{
    assert(profiles_ && registry_ && config_.nodes > 0);

    // The key space splits across shard groups, each populated for
    // its share of the aggregate IR, as the real benchmark scales its
    // initial database with load. The unreplicated tier is one group,
    // the shared DB box, and keeps that box's own DB seed.
    Rng shard_seeder(seed ^ 0xdb0ull);
    for (std::size_t s = 0; s < shard_map_.shardCount(); ++s) {
        repl::ShardGroupConfig sc;
        sc.db = config_.node.db;
        sc.injection_rate = config_.totalInjectionRate() /
            static_cast<double>(shard_map_.shardCount());
        sc.cpus = config_.db_cpus;
        sc.quantum_us = config_.db_quantum_us;
        sc.disk = config_.db_disk;
        sc.recovery = armed_.recovery;
        sc.replicas = config_.repl.replicas;
        sc.replica = config_.repl.replica;
        sc.sync = config_.repl.sync;
        shards_.push_back(std::make_unique<repl::ShardGroup>(
            queue_, sc,
            armed_.replication ? shard_seeder() : seed ^ 0xdb0ull));
    }
    shard_outages_.resize(shards_.size());
    if (armed_.lease) {
        stale_remnants_.resize(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            shards_[s]->armLease(
                config_.repl.lease, [this, s](std::size_t r) {
                    return fabric_.reachable(
                        servingEndpoint(s),
                        NetEndpoint::dbReplica(s, r));
                });
        }
    }

    // Admission control arms the whole backpressure ladder: the
    // balancer's in-flight cap, the per-node accept queue (built by
    // each SystemUnderTest), and a bounded EJB->DB pool acquire.
    if (armed_.admission)
        lb_.setInFlightCap(config_.node.admission.lb_inflight_cap);

    ConnectionPoolConfig pool_config = config_.db_pool;
    pool_config.acquire_timeout_us = armed_.bounded_acquire
        ? config_.resilience.pool_acquire_timeout_s * 1e6
        : 0.0;
    if (armed_.deadline) {
        double timeout_s = config_.resilience.db_timeout_s;
        if (timeout_s <= 0.0)
            timeout_s = 2.0;
        db_timeout_us_ = secs(timeout_s);
    }
    if (armed_.resilience) {
        health_ = std::make_unique<HealthChecker>(
            config_.resilience.health, config_.nodes);
    }
    if (armed_.breaker) {
        breaker_ = std::make_unique<CircuitBreaker>(
            config_.resilience.breaker);
    }
    if (!config_.faults.empty()) {
        injector_ = std::make_unique<FaultInjector>(
            config_.faults, queue_,
            [this](const FaultEvent &event) { applyFault(event); });
    }

    if (config_.node.heap_worker)
        heap_worker_ = std::make_unique<HeapWorker>();
    Rng seeder(seed ^ 0x5eedull);
    pools_.reserve(config_.nodes);
    nodes_.reserve(config_.nodes);
    for (std::size_t n = 0; n < config_.nodes; ++n) {
        pools_.push_back(std::make_unique<ConnectionPool>(
            pool_config, queue_, fabric_.nodeDb(n)));
        nodes_.push_back(std::make_unique<SystemUnderTest>(
            config_.node, profiles_, registry_, seeder(), &queue_,
            [this, n](RequestType type, double noise,
                      SystemUnderTest::DbDone done) {
                startShardCall(n, type, noise, std::move(done));
            },
            heap_worker_.get()));
        SystemUnderTest &sut = *nodes_[n];
        sut.setCompletionHook(
            [this, n](const Request &request, SimTime finish) {
                onNodeComplete(n, request, finish);
            });
        sut.setFailureHook(
            [this, n](const Request &request, SimTime at,
                      ErrorKind kind) {
                onNodeFailure(n, request, at, kind);
            });
    }
}

void
ClusterUnderTest::start(SimTime end)
{
    DriverConfig driver_config = config_.node.driver;
    driver_config.injection_rate = config_.totalInjectionRate();
    // Same driver-seed derivation as SystemUnderTest::start, so a
    // 1-node cluster sees the identical arrival stream as a
    // single-box SUT run with the same master seed — which the
    // cluster equivalence test exploits.
    driver_ = std::make_unique<Driver>(
        driver_config, queue_, Rng(seed_)() ^ 0xd21eull,
        [this](const Request &request) { handleRequest(request); });
    driver_->start(0, end);

    if (injector_)
        injector_->arm();
    if (armed_.resilience) {
        // Health probes ride the LB->node links, so detection latency
        // is part of the simulation. None of this exists on a healthy
        // run: the first probe is the first extra event.
        const SimTime interval =
            secs(config_.resilience.health.interval_s);
        for (std::size_t n = 0; n < nodes_.size(); ++n)
            queue_.scheduleAfter(interval, [this, n] { probeNode(n); });
    }
    if (armed_.recovery &&
        config_.db_recovery.checkpoint_interval_s > 0.0) {
        // Retention-mode WALs need the truncation pressure of fuzzy
        // checkpoints; on a replicated tier the floor keeps standbys
        // safe.
        queue_.scheduleAfter(
            secs(config_.db_recovery.checkpoint_interval_s),
            [this] { shardCheckpointTick(); });
    }
    if (armed_.lease) {
        // Heartbeat rounds start now; the lease monitor shares their
        // cadence (it can only promote after lapse + detect_s, so
        // detection latency is the monitor grain plus that grace).
        for (auto &group : shards_)
            group->startLease();
        queue_.scheduleAfter(
            std::max<SimTime>(secs(config_.repl.lease.renew_s), 1000),
            [this] { leaseMonitorTick(); });
    }
}

void
ClusterUnderTest::handleRequest(const Request &request)
{
    const SimTime at_lb = fabric_.clientLb().deliver(
        queue_.now(),
        static_cast<std::uint64_t>(config_.request_bytes));
    queue_.scheduleAt(at_lb,
                      [this, request] { routeToNode(request); });
}

void
ClusterUnderTest::routeToNode(const Request &request)
{
    // The balancer is a single server: forwarding work serializes, so
    // an undersized balancer is itself a possible cluster bottleneck.
    const SimTime now = queue_.now();
    if (lb_.saturated()) {
        // Cap shed happens before any forwarding work: the reject is
        // a front-door reset, not a served request.
        lb_.noteShed();
        tracker_.error(request, now, ResponseTracker::kNoNode,
                       ErrorKind::ShedAtLB);
        return;
    }
    const SimTime start = std::max(now, lb_free_);
    lb_free_ = start + static_cast<SimTime>(
        std::llround(config_.lb.forward_us));

    const std::size_t node = lb_.route();
    if (node == LoadBalancer::kNoNode) {
        // Every backend is ejected: the balancer fails the request.
        tracker_.error(request, now, ResponseTracker::kNoNode,
                       ErrorKind::NoBackend);
        return;
    }
    const SimTime at_node = fabric_.lbNode(node).deliver(
        lb_free_, static_cast<std::uint64_t>(config_.request_bytes));
    queue_.scheduleAt(at_node, [this, request, node] {
        nodes_[node]->inject(request);
    });
}

std::uint64_t
ClusterUnderTest::responseBytes(RequestType type)
{
    const double kb = Jas2004Application::profile(type).response_kb;
    return std::max<std::uint64_t>(
        256, static_cast<std::uint64_t>(kb * 1024.0));
}

void
ClusterUnderTest::onNodeComplete(std::size_t node,
                                 const Request &request,
                                 SimTime finish)
{
    // The balancer learns of the completion when the response
    // reaches it — lb_.complete lives in the at_lb closure, not here:
    // the LB cannot observe a node-local event before a message
    // crosses the wire.
    const std::uint64_t bytes = responseBytes(request.type);
    const SimTime at_lb = fabric_.lbNode(node).deliver(
        finish, bytes, NetworkLink::Direction::Reverse);
    queue_.scheduleAt(at_lb, [this, request, node, bytes] {
        lb_.complete(node);
        const SimTime at_client = fabric_.clientLb().deliver(
            queue_.now(), bytes, NetworkLink::Direction::Reverse);
        queue_.scheduleAt(at_client, [this, request, node] {
            tracker_.complete(request, queue_.now(),
                              static_cast<std::uint32_t>(node));
        });
    });
}

void
ClusterUnderTest::onNodeFailure(std::size_t node,
                                const Request &request, SimTime at,
                                ErrorKind kind)
{
    // Failures are fail-fast: the client sees a reset, not a
    // response, so no reverse traffic crosses the fabric.
    lb_.complete(node);
    tracker_.error(request, at, static_cast<std::uint32_t>(node),
                   kind);
}

SimTime
ClusterUnderTest::chargeTxnDisk(DiskModel &disk,
                                const TxnDbOutcome &outcome,
                                SimTime now)
{
    SimTime io_done = now;
    if (outcome.cost.pages_read > 0) {
        const IoResult io = disk.read(
            now, static_cast<std::uint32_t>(outcome.cost.pages_read));
        db_disk_blocked_us_ += io.completion - now;
        io_done = io.completion;
    }
    if (outcome.cost.writebacks > 0) {
        // Asynchronous page cleaning: charge the disk, not the txn.
        disk.write(now, outcome.cost.writebacks * 4096);
    }
    if (outcome.cost.log_bytes_forced > 0) {
        const IoResult io =
            disk.write(io_done, outcome.cost.log_bytes_forced);
        db_disk_blocked_us_ += io.completion - io_done;
        io_done = io.completion;
    }
    return io_done;
}

// ---- fault application ---------------------------------------------

void
ClusterUnderTest::degradeLinks(const FaultEvent &event, bool restore)
{
    const auto apply = [&](std::size_t n) {
        if (restore)
            fabric_.nodeDb(n).clearDegradation();
        else
            fabric_.nodeDb(n).setDegradation(event.latency_mult,
                                             event.drop_probability);
    };
    if (event.node == FaultEvent::kAllNodes) {
        for (std::size_t n = 0; n < nodes_.size(); ++n)
            apply(n);
    } else {
        apply(event.node);
    }
}

void
ClusterUnderTest::applyFault(const FaultEvent &event)
{
    if (event.node != FaultEvent::kAllNodes &&
        event.node >= nodes_.size() && event.kind != FaultKind::DbSlow)
        return; // targets a node this cluster doesn't have

    const SimTime now = queue_.now();
    // What a link degrade or a DB slowdown logs.
    const Outage degraded{OutageKind::Degraded, Outage::kNoTarget, now,
                          event.duration > 0 ? now + event.duration : 0};
    switch (event.kind) {
      case FaultKind::NodeCrash: {
        const std::size_t node = event.node;
        nodes_[node]->crash();
        tracker_.noteOutage({OutageKind::NodeDown,
                             static_cast<std::uint32_t>(node), now});
        if (event.restart_after > 0) {
            queue_.scheduleAfter(event.restart_after, [this, node] {
                nodes_[node]->restart();
                tracker_.noteNodeUp(static_cast<std::uint32_t>(node),
                                    queue_.now());
            });
        }
        return;
      }
      case FaultKind::LinkDegrade: {
        degradeLinks(event, /*restore=*/false);
        tracker_.noteOutage(degraded);
        if (event.duration > 0) {
            queue_.scheduleAfter(event.duration, [this, event] {
                degradeLinks(event, /*restore=*/true);
            });
        }
        return;
      }
      case FaultKind::DbSlow: {
        for (auto &group : shards_)
            group->disk().setServiceMultiplier(event.disk_mult);
        tracker_.noteOutage(degraded);
        if (event.duration > 0) {
            queue_.scheduleAfter(event.duration, [this] {
                for (auto &group : shards_)
                    group->disk().setServiceMultiplier(1.0);
            });
        }
        return;
      }
      case FaultKind::PoolKill: {
        pools_[event.node]->killIdle();
        return;
      }
      case FaultKind::DbCrash:
      case FaultKind::DbTornWrite: {
        applyShardFault(event);
        return;
      }
      case FaultKind::Partition: {
        applyPartition(event);
        return;
      }
      case FaultKind::Switchover: {
        applySwitchover(event);
        return;
      }
    }
}

// ---- partition tolerance ---------------------------------------------

NetEndpoint
ClusterUnderTest::servingEndpoint(std::size_t shard) const
{
    const std::size_t member = shards_[shard]->servingMember();
    return member == repl::ShardGroup::kPrimaryMember
        ? NetEndpoint::dbPrimary(shard)
        : NetEndpoint::dbReplica(shard, member);
}

bool
ClusterUnderTest::nodeReachesShard(std::size_t node,
                                   std::size_t shard) const
{
    return fabric_.reachable(NetEndpoint::node(node),
                             servingEndpoint(shard));
}

void
ClusterUnderTest::applyPartition(const FaultEvent &event)
{
    const SimTime now = queue_.now();
    fabric_.setPartition(event.sides);
    tracker_.noteOutage({OutageKind::Partition, Outage::kNoTarget, now,
                         event.duration > 0 ? now + event.duration : 0});
    if (event.duration > 0) {
        queue_.scheduleAfter(event.duration,
                             [this] { healPartition(); });
    }
}

void
ClusterUnderTest::healPartition()
{
    fabric_.clearPartition();
    if (!armed_.lease)
        return;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        StaleRemnant &rem = stale_remnants_[s];
        if (!rem.valid)
            continue;
        rem.valid = false;
        repl::ShardGroup &group = *shards_[s];
        // The deposed primary re-ships its divergent tail carrying
        // its pre-promotion token: every stream's fence (raised at
        // promotion) refuses it before any replica disk I/O.
        for (std::size_t r = 0; r < group.replicaCount(); ++r) {
            if (group.replica(r).alive())
                group.replica(r).ship(rem.issued_lsn, rem.bytes,
                                      rem.token);
        }
        // Rejoining means rewinding the stale timeline: scan the
        // divergent tail (one sequential read) and discard it, then
        // hand the serving VIP back to the primary slot -- the
        // promoted state lives in the shared shard database, so the
        // slot resumes on the winning timeline as a plain standby
        // catch-up would.
        ++stale_rewinds_;
        stale_rewind_bytes_ += rem.bytes;
        SimTime rejoin = queue_.now();
        if (rem.bytes > 0) {
            rejoin = group.disk()
                         .readSequential(rejoin, rem.bytes)
                         .completion;
        }
        queue_.scheduleAt(rejoin, [this, s] {
            shards_[s]->setServingMember(
                repl::ShardGroup::kPrimaryMember);
        });
    }
}

void
ClusterUnderTest::applySwitchover(const FaultEvent &event)
{
    const std::size_t shard =
        event.shard == FaultEvent::kNoTarget ? 0 : event.shard;
    if (shard >= shards_.size())
        return; // targets a shard this cluster doesn't have
    failover_.plannedSwitchover(
        shard, *shards_[shard],
        [this, shard](const repl::FailoverOutcome &o) {
            tracker_.noteOutage({OutageKind::Switchover,
                                 static_cast<std::uint32_t>(shard),
                                 o.blackout_begin, o.promoted_at});
        });
}

void
ClusterUnderTest::leaseMonitorTick()
{
    const SimTime now = queue_.now();
    const SimTime grace = secs(config_.repl.failover.detect_s);
    for (std::size_t s = 0; fabric_.partitioned() && s < shards_.size();
         ++s) {
        repl::ShardGroup &group = *shards_[s];
        if (group.down() || group.lease().valid(now))
            continue;
        if (now < group.lease().expiry() + grace)
            continue; // lapse not yet past the detection grace

        // Promotion is quorum-gated: the serving member must have
        // lost its majority, and some other side must hold one. With
        // neither (e.g. R=1 split down the middle) the shard stays
        // unavailable -- CP, not split-brain.
        const std::size_t members = group.replicaCount() + 1;
        const std::size_t majority = members / 2 + 1;
        const NetEndpoint serving = servingEndpoint(s);
        const std::size_t serving_member = group.servingMember();

        std::size_t with_serving = 1; // the serving member itself
        for (std::size_t r = 0; r < group.replicaCount(); ++r) {
            if (r == serving_member || !group.replica(r).alive())
                continue;
            if (fabric_.reachable(serving,
                                  NetEndpoint::dbReplica(s, r)))
                ++with_serving;
        }
        if (serving_member != repl::ShardGroup::kPrimaryMember &&
            fabric_.reachable(serving, NetEndpoint::dbPrimary(s)))
            ++with_serving;
        if (with_serving >= majority)
            continue; // serving side still holds a quorum

        // Candidate: the most-caught-up live replica cut off from the
        // serving member whose own side musters a majority.
        constexpr std::size_t kNone = static_cast<std::size_t>(-1);
        std::size_t candidate = kNone;
        std::uint64_t candidate_lsn = 0;
        std::uint64_t watermark = 0;
        for (std::size_t r = 0; r < group.replicaCount(); ++r) {
            if (r == serving_member || !group.replica(r).alive())
                continue;
            const NetEndpoint ep = NetEndpoint::dbReplica(s, r);
            if (fabric_.reachable(serving, ep))
                continue; // same side as the deposed member
            std::size_t side = 1;
            std::uint64_t side_max = group.replica(r).durableLsn();
            for (std::size_t q = 0; q < group.replicaCount(); ++q) {
                if (q == r || q == serving_member ||
                    !group.replica(q).alive())
                    continue;
                if (!fabric_.reachable(
                        ep, NetEndpoint::dbReplica(s, q)))
                    continue;
                ++side;
                side_max = std::max(side_max,
                                    group.replica(q).durableLsn());
            }
            if (side < majority)
                continue;
            if (candidate == kNone ||
                group.replica(r).durableLsn() > candidate_lsn) {
                candidate = r;
                candidate_lsn = group.replica(r).durableLsn();
                watermark = side_max;
            }
        }
        if (candidate == kNone)
            continue;

        // Capture what the deposed timeline holds above W before the
        // promotion rewinds the shared database: this is the tail the
        // stale primary will try to ship on heal.
        StaleRemnant rem;
        rem.token = group.lease().fencingToken();
        rem.issued_lsn = group.database().wal().issuedLsn();
        rem.bytes = group.database().wal().bytesAbove(watermark);
        for (const WalRecord &rec : group.database().wal().records()) {
            if (rec.lsn > watermark)
                ++rem.records;
        }
        rem.valid = true;
        stale_remnants_[s] = rem;

        failover_.partitionPromote(
            s, group, candidate, watermark,
            [this, s](const repl::FailoverOutcome &o) {
                tracker_.noteOutage({OutageKind::Failover,
                                     static_cast<std::uint32_t>(s),
                                     o.blackout_begin, o.promoted_at});
            });
    }
    queue_.scheduleAfter(
        std::max<SimTime>(secs(config_.repl.lease.renew_s), 1000),
        [this] { leaseMonitorTick(); });
}

// ---- the EJB->DB call pipeline ----------------------------------------
//
// Every EJB->DB call draws a routing key, lands on the owning shard
// group, and runs as a JDBC-style round trip holding a pooled
// connection. The armed set decides the rest: attempts pass the
// circuit breaker (`breaker`), arm a per-attempt deadline from the
// moment the connection is granted (`deadline`), which also reclaims
// connections whose query or response was lost or withheld, and
// retry with deterministic exponential backoff (`retry`). A
// blacked-out shard fails fast; in-flight completions are dropped by
// the generation guard.

void
ClusterUnderTest::startShardCall(std::size_t node, RequestType type,
                                 double noise,
                                 SystemUnderTest::DbDone done)
{
    auto call = std::make_shared<DbCall>();
    call->node = node;
    call->type = type;
    call->noise = noise;
    call->shard = shard_map_.shardOf(route_rng_());
    if (armed_.lease && !shards_[call->shard]->draining()) {
        // Drain accounting brackets the whole call (across retries):
        // inflightEnd fires exactly when the call settles, whether
        // with an ack or a final failure. Calls arriving mid-drain
        // are not bracketed -- they fail fast with FailoverWait and
        // never touch the shard, so counting them would let a steady
        // arrival stream wedge the drain forever.
        const std::size_t shard = call->shard;
        shards_[shard]->inflightBegin();
        call->done = [this, shard, done = std::move(done)](
                         const TxnDbOutcome &outcome, ErrorKind kind) {
            shards_[shard]->inflightEnd();
            done(outcome, kind);
        };
    } else {
        call->done = std::move(done);
    }
    startShardAttempt(call);
}

ErrorKind
ClusterUnderTest::outageError(std::size_t shard) const
{
    switch (shard_outages_[shard].phase) {
      case ShardOutage::Phase::Crashed:
        return ErrorKind::NodeDown;
      case ShardOutage::Phase::Replaying:
        return ErrorKind::RecoveryWait;
      case ShardOutage::Phase::None:
        break;
    }
    return ErrorKind::FailoverWait; // promoting a replica or draining
}

void
ClusterUnderTest::startShardAttempt(
    const std::shared_ptr<DbCall> &call)
{
    if (shards_[call->shard]->down() ||
        shards_[call->shard]->draining()) {
        // Fail fast: the cluster knows the shard is off -- crashed,
        // replaying its WAL, promoting a replica, or draining for a
        // planned switchover.
        settleShardFailure(call, outageError(call->shard));
        return;
    }
    if (fabric_.partitioned() &&
        !nodeReachesShard(call->node, call->shard)) {
        // The partition map cuts this node off from the member
        // serving the shard: the send fails fast, no wire traffic.
        fabric_.notePartitionDrop();
        settleShardFailure(call, ErrorKind::Partitioned);
        return;
    }
    if (breaker_ && !breaker_->allowRequest(queue_.now())) {
        settleShardFailure(call, ErrorKind::DbCircuitOpen);
        return;
    }
    pools_[call->node]->acquire(
        [this, call](SimTime ready) { runShardAttempt(call, ready); },
        [this, call](SimTime) {
            settleShardFailure(call, ErrorKind::PoolTimeout);
        });
}

void
ClusterUnderTest::runShardAttempt(const std::shared_ptr<DbCall> &call,
                                  SimTime ready)
{
    auto settled = std::make_shared<bool>(false);

    if (armed_.deadline) {
        // Per-attempt deadline, measured from connection grant.
        // Firing first means the query or its response is lost, late
        // or withheld: tear the connection down (freeing the slot)
        // and fail the attempt.
        queue_.scheduleAt(ready + db_timeout_us_, [this, call, settled] {
            if (*settled)
                return;
            *settled = true;
            pools_[call->node]->release();
            settleShardFailure(call, ErrorKind::DbTimeout);
        });
    }

    NetworkLink &link = fabric_.nodeDb(call->node);
    const bool lost = link.drawDrop();
    const SimTime at_db = link.deliver(
        ready, static_cast<std::uint64_t>(config_.query_bytes));
    if (lost)
        return; // query vanished on the wire; the deadline cleans up
    queue_.scheduleAt(at_db, [this, call, settled] {
        if (*settled)
            return;
        repl::ShardGroup &group = *shards_[call->shard];
        if (group.down()) {
            // The shard went down while the query was on the wire.
            *settled = true;
            pools_[call->node]->release();
            settleShardFailure(call, outageError(call->shard));
            return;
        }
        if (fabric_.partitioned() &&
            !nodeReachesShard(call->node, call->shard)) {
            // The fabric split while the query was on the wire.
            *settled = true;
            pools_[call->node]->release();
            fabric_.notePartitionDrop();
            settleShardFailure(call, ErrorKind::Partitioned);
            return;
        }
        call->generation = group.generation();
        auto outcome = std::make_shared<TxnDbOutcome>(
            group.application().runTransaction(call->type));
        if (outcome->audit_token != 0)
            group.auditor().noteCommitted(outcome->audit_token,
                                          outcome->commit_lsn);
        const TxnProfile &profile =
            Jas2004Application::profile(call->type);
        const double burst =
            profile.db_us * call->noise + outcome->cost.cpu_us;
        group.burst(burst, [this, call, settled, outcome] {
            finishShardAttempt(call, settled, outcome);
        });
    });
}

void
ClusterUnderTest::finishShardAttempt(
    const std::shared_ptr<DbCall> &call,
    const std::shared_ptr<bool> &settled,
    const std::shared_ptr<TxnDbOutcome> &outcome)
{
    repl::ShardGroup &group = *shards_[call->shard];
    if (call->generation != group.generation())
        return; // shard blacked out under this txn; never ack it --
                // the per-attempt deadline reclaims the slot

    // Charge the shard's own disk: reads, async page cleaning, and
    // the commit's log force.
    const SimTime io_done =
        chargeTxnDisk(group.disk(), *outcome, queue_.now());

    if (!armed_.recovery) {
        // Nothing to confirm, ship or outlive: the response goes on
        // the wire now, leaving once the I/O is done.
        deliverShardResponse(call, settled, outcome, io_done);
        return;
    }

    if (outcome->wal_issued_lsn > 0) {
        // The force is durable when its write lands; that same moment
        // the window ships to every replica stream.
        const std::uint64_t issued = outcome->wal_issued_lsn;
        const std::uint64_t bytes = outcome->cost.log_bytes_forced;
        const std::uint64_t gen = call->generation;
        const std::size_t shard = call->shard;
        queue_.scheduleAt(io_done, [this, shard, issued, bytes, gen] {
            repl::ShardGroup &g = *shards_[shard];
            if (gen != g.generation() || g.down())
                return;
            g.database().confirmWalDurable(issued);
            g.shipForced(issued, bytes);
        });
    }

    if (group.syncMode() && group.replicaCount() > 0 &&
        outcome->wal_issued_lsn > 0) {
        // Sync replication: the response leaves only once a replica
        // holds the commit durably. Registered after the ship event
        // above (FIFO at io_done), so the waiter sees the pre-ship
        // watermark and fires on the replica's force completion.
        queue_.scheduleAt(io_done, [this, call, settled, outcome] {
            repl::ShardGroup &g = *shards_[call->shard];
            if (*settled || call->generation != g.generation())
                return;
            g.whenAckDurable(outcome->wal_issued_lsn,
                             [this, call, settled, outcome] {
                                 sendShardResponse(call, settled,
                                                   outcome);
                             });
        });
        return;
    }
    queue_.scheduleAt(io_done, [this, call, settled, outcome] {
        sendShardResponse(call, settled, outcome);
    });
}

void
ClusterUnderTest::sendShardResponse(
    const std::shared_ptr<DbCall> &call,
    const std::shared_ptr<bool> &settled,
    const std::shared_ptr<TxnDbOutcome> &outcome)
{
    if (*settled)
        return;
    if (call->generation != shards_[call->shard]->generation())
        return;
    if (armed_.lease) {
        // A member that cannot prove its lease must not ack: the
        // response is withheld and the attempt deadline reclaims the
        // slot. Same if the partition cut the response path.
        if (!shards_[call->shard]->leaseValid())
            return;
        if (fabric_.partitioned() &&
            !nodeReachesShard(call->node, call->shard)) {
            fabric_.notePartitionDrop();
            return;
        }
    }
    deliverShardResponse(call, settled, outcome, queue_.now());
}

void
ClusterUnderTest::deliverShardResponse(
    const std::shared_ptr<DbCall> &call,
    const std::shared_ptr<bool> &settled,
    const std::shared_ptr<TxnDbOutcome> &outcome, SimTime send_at)
{
    // The response crosses back to the node; the connection frees
    // once it has arrived and the EJB tier resumes.
    NetworkLink &link = fabric_.nodeDb(call->node);
    const bool lost = link.drawDrop();
    const SimTime at_node = link.deliver(
        send_at, static_cast<std::uint64_t>(config_.db_response_bytes),
        NetworkLink::Direction::Reverse);
    if (lost)
        return; // response vanished; the deadline cleans up
    queue_.scheduleAt(at_node, [this, call, settled, outcome] {
        if (*settled)
            return; // deadline already reclaimed the connection
        repl::ShardGroup &group = *shards_[call->shard];
        if (call->generation != group.generation())
            return;
        *settled = true;
        pools_[call->node]->release();
        if (breaker_)
            breaker_->recordSuccess(queue_.now());
        if (outcome->audit_token != 0)
            group.auditor().noteAcked(outcome->audit_token);
        call->done(*outcome, ErrorKind::None);
    });
}

void
ClusterUnderTest::settleShardFailure(
    const std::shared_ptr<DbCall> &call, ErrorKind kind)
{
    // Every attempt the breaker allowed settles it exactly once: a
    // pool timeout counts as a failure (an exhausted pool usually
    // means the DB tier is the thing that is slow); a known outage or
    // split does not.
    if (breaker_ &&
        (kind == ErrorKind::PoolTimeout || kind == ErrorKind::DbTimeout))
        breaker_->recordFailure(queue_.now());
    if (armed_.retry &&
        retry_.allowRetry(call->attempt, queue_.now())) {
        tracker_.recordRetry(kind);
        const SimTime backoff =
            retry_.backoffUs(call->attempt, retry_rng_);
        ++call->attempt;
        queue_.scheduleAfter(
            backoff, [this, call] { startShardAttempt(call); });
        return;
    }
    // Outages and splits stay visible through retries: the error
    // table should attribute the failure to the recovery, the
    // blackout or the split, not to the retry budget.
    const bool attributable = kind == ErrorKind::RecoveryWait ||
        kind == ErrorKind::FailoverWait ||
        kind == ErrorKind::Partitioned;
    call->done(TxnDbOutcome{},
               call->attempt > 1 && !attributable
                   ? ErrorKind::DbRetriesExhausted
                   : kind);
}

// ---- DB faults & checkpoints -----------------------------------------

void
ClusterUnderTest::applyShardFault(const FaultEvent &event)
{
    const std::size_t shard =
        event.shard == FaultEvent::kNoTarget ? 0 : event.shard;
    if (shard >= shards_.size())
        return; // targets a shard this cluster doesn't have
    repl::ShardGroup &group = *shards_[shard];

    if (event.replica != FaultEvent::kNoTarget) {
        // Replica-scoped dbcrash: the standby's stream dies (its
        // watermarks reset -- a restart resilvers from the next
        // shipped window). The primary keeps serving.
        if (event.replica >= group.replicaCount())
            return;
        group.replica(event.replica).crash();
        if (event.restart_after > 0) {
            const std::size_t replica = event.replica;
            queue_.scheduleAfter(
                event.restart_after, [this, shard, replica] {
                    shards_[shard]->replica(replica).restart();
                });
        }
        return;
    }

    // Primary fault. With a live replica the shard fails over -- for
    // a torn write too: the tear hits the primary's WAL device, and
    // everything above the promotion watermark is discarded anyway.
    if (failover_.primaryCrashed(
            shard, group, [this, shard](const repl::FailoverOutcome &o) {
                tracker_.noteOutage({OutageKind::Failover,
                                     static_cast<std::uint32_t>(shard),
                                     o.crash_at, o.promoted_at});
            }))
        return;
    // No replica to promote: blocking crash + ARIES recovery, scoped
    // to this shard. The other shards keep serving.
    crashShardTier(shard, event.kind == FaultKind::DbTornWrite,
                   event.restart_after);
}

void
ClusterUnderTest::crashShardTier(std::size_t shard, bool torn,
                                 SimTime restart_after)
{
    repl::ShardGroup &group = *shards_[shard];
    if (group.down())
        return; // already down; a second crash is a no-op
    ++db_crashes_;
    group.beginBlackout();
    ShardOutage &outage = shard_outages_[shard];
    outage.phase = ShardOutage::Phase::Crashed;
    outage.crash_at = queue_.now();
    group.database().crash(torn);
    group.auditor().noteCrashOf(group.database());

    if (restart_after > 0) {
        queue_.scheduleAfter(restart_after, [this, shard] {
            beginShardRecovery(shard);
        });
    }
}

void
ClusterUnderTest::beginShardRecovery(std::size_t shard)
{
    repl::ShardGroup &group = *shards_[shard];
    ShardOutage &outage = shard_outages_[shard];
    outage.phase = ShardOutage::Phase::Replaying;
    last_recovery_ = group.database().recover();

    // The shard stays out of rotation (RecoveryWait) until the
    // recovery I/O and replay both end, on its own disk and CPUs.
    outage.restart_at = queue_.now();
    const RecoveryCost cost =
        chargeRecovery(group.disk(), last_recovery_, outage.restart_at);
    queue_.scheduleAt(cost.io_done,
                      [this, shard, cpu = cost.replay_cpu_us] {
                          shards_[shard]->burst(cpu, [this, shard] {
                              finishShardRecovery(shard);
                          });
                      });
}

void
ClusterUnderTest::finishShardRecovery(std::size_t shard)
{
    repl::ShardGroup &group = *shards_[shard];
    ShardOutage &outage = shard_outages_[shard];
    const SimTime now = queue_.now();
    outage.phase = ShardOutage::Phase::None;
    db_replay_us_ += now - outage.restart_at;
    tracker_.noteOutage({OutageKind::DbRecovery,
                         static_cast<std::uint32_t>(shard), outage.crash_at,
                         now});
    // The recovery checkpoint's write is covered by the I/O just
    // charged, so its force is durable by construction here. Standby
    // streams (if any) resilver from the next shipped window.
    group.database().confirmWalDurable(
        group.database().wal().issuedLsn());
    last_audit_ = group.auditNow();
    audited_ = true;
    group.endBlackout();
}

void
ClusterUnderTest::shardCheckpointTick()
{
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        repl::ShardGroup &group = *shards_[s];
        if (group.down())
            continue;
        const CheckpointStats stats = group.database().checkpoint();
        ++checkpoints_;
        checkpoint_pages_ += stats.pages_flushed;
        const std::uint64_t bytes =
            stats.pages_flushed * 4096 + stats.log_bytes_forced;
        if (bytes == 0)
            continue;
        // The checkpoint's force becomes durable when its write lands
        // and ships like any other forced window, so idle standbys
        // still advance their watermarks.
        const std::uint64_t issued = group.database().wal().issuedLsn();
        const std::uint64_t forced = stats.log_bytes_forced;
        const std::uint64_t gen = group.generation();
        const IoResult io = group.disk().write(queue_.now(), bytes);
        queue_.scheduleAt(io.completion, [this, s, issued, forced,
                                          gen] {
            repl::ShardGroup &g = *shards_[s];
            if (gen != g.generation() || g.down())
                return;
            g.database().confirmWalDurable(issued);
            g.shipForced(issued, forced);
        });
    }
    queue_.scheduleAfter(
        secs(config_.db_recovery.checkpoint_interval_s),
        [this] { shardCheckpointTick(); });
}

AuditReport
ClusterUnderTest::auditNow() const
{
    AuditReport total;
    for (const auto &group : shards_) {
        const AuditReport r = group->auditNow();
        total.surviving += r.surviving;
        total.acked_total += r.acked_total;
        total.lost_acked += r.lost_acked;
        total.lost_durable += r.lost_durable;
        total.resurrected += r.resurrected;
        total.duplicates += r.duplicates;
    }
    return total;
}

// ---- health probes --------------------------------------------------

void
ClusterUnderTest::probeNode(std::size_t node)
{
    const HealthConfig &health = config_.resilience.health;
    // The probe rides the LB->node link both ways; a crashed node's
    // "response" is the connection refusal the balancer observes.
    const SimTime at_node =
        fabric_.lbNode(node).deliver(queue_.now(), health.probe_bytes);
    queue_.scheduleAt(at_node, [this, node] {
        const bool healthy = !nodes_[node]->isDown();
        const SimTime back = fabric_.lbNode(node).deliver(
            queue_.now(), config_.resilience.health.probe_bytes,
            NetworkLink::Direction::Reverse);
        queue_.scheduleAt(back, [this, node, healthy] {
            applyProbeResult(node, healthy);
        });
    });
    queue_.scheduleAfter(secs(health.interval_s),
                         [this, node] { probeNode(node); });
}

void
ClusterUnderTest::applyProbeResult(std::size_t node, bool healthy)
{
    switch (health_->onProbeResult(node, healthy, queue_.now())) {
      case HealthChecker::Transition::Eject:
        lb_.setNodeDown(node);
        break;
      case HealthChecker::Transition::Readmit:
        lb_.setNodeUp(node);
        break;
      case HealthChecker::Transition::None:
        break;
    }
}

} // namespace jasim
