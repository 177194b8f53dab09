#include <gtest/gtest.h>

#include "core/cluster.h"

namespace jasim {
namespace {

struct Shared
{
    std::shared_ptr<const WorkloadProfiles> profiles;
    std::shared_ptr<const MethodRegistry> registry;

    explicit Shared(std::uint64_t seed = 11)
        : profiles(std::make_shared<const WorkloadProfiles>(seed)),
          registry(std::make_shared<const MethodRegistry>(
              profiles->layout(Component::WasJit).count(), seed))
    {
    }
};

ClusterConfig
replCluster(std::size_t shards, std::size_t replicas, bool sync,
            const std::string &faults)
{
    ClusterConfig config;
    config.nodes = 2;
    config.node.injection_rate = 10.0;
    config.node.driver.ramp_up_s = 1.0;
    config.db_pool.max_connections = 16;
    config.repl.shards = shards;
    config.repl.replicas = replicas;
    config.repl.sync = sync;
    config.db_recovery.checkpoint_interval_s = 5.0;
    if (!faults.empty())
        config.faults = FaultSchedule::parse(faults);
    return config;
}

TEST(ClusterReplTest, DefaultsLeaveReplicationDisabled)
{
    Shared shared;
    ClusterConfig config = replCluster(1, 0, false, "");
    ClusterUnderTest cluster(config, shared.profiles, shared.registry,
                             7);
    EXPECT_FALSE(cluster.armed().replication);
    EXPECT_EQ(cluster.shardCount(), 1u); // the single box is group 0
}

TEST(ClusterReplTest, HealthyShardedRunServesAndAuditsClean)
{
    Shared shared;
    ClusterUnderTest cluster(replCluster(2, 1, false, ""),
                             shared.profiles, shared.registry, 7);
    ASSERT_TRUE(cluster.armed().replication);
    ASSERT_EQ(cluster.shardCount(), 2u);
    cluster.start(secs(20));
    cluster.advanceTo(secs(25));

    EXPECT_GT(cluster.tracker().totalCompleted(), 0u);
    const AuditReport audit = cluster.auditNow();
    EXPECT_GT(audit.acked_total, 0u);
    EXPECT_TRUE(audit.pass());
    // Both shards carried load and replicated it.
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_GT(cluster.shard(s).replica(0).durableLsn(), 0u)
            << "shard " << s;
    }
}

TEST(ClusterReplTest, PrimaryCrashFailsOverWithBoundedBlackout)
{
    Shared shared;
    ClusterUnderTest cluster(
        replCluster(2, 1, /*sync=*/true, "dbcrash@8:shard=0"),
        shared.profiles, shared.registry, 7);
    cluster.start(secs(20));
    cluster.advanceTo(secs(25));

    ASSERT_NE(cluster.failoverController(), nullptr);
    EXPECT_EQ(cluster.failoverController()->failoverCount(), 1u);
    const ResponseTracker &t = cluster.tracker();
    EXPECT_EQ(t.failoverCount(), 1u);
    const SimTime blackout = t.failoverBlackoutUs(0);
    EXPECT_GT(blackout, 0u);
    EXPECT_LT(blackout, secs(10)); // bounded, not an outage
    EXPECT_LT(t.shardAvailability(0, secs(20)), 1.0);
    EXPECT_DOUBLE_EQ(t.shardAvailability(1, secs(20)), 1.0);

    // The sync guarantee end to end: no acked commit lost.
    const AuditReport audit = cluster.auditNow();
    EXPECT_GT(audit.acked_total, 0u);
    EXPECT_EQ(audit.lost_acked, 0u);
    EXPECT_EQ(audit.resurrected, 0u);
    EXPECT_EQ(audit.duplicates, 0u);

    // The cluster kept serving after promotion.
    EXPECT_GT(cluster.jops(secs(12), secs(20)), 0.0);
}

TEST(ClusterReplTest, ReplicaCrashDoesNotBlackOutTheShard)
{
    Shared shared;
    ClusterUnderTest cluster(
        replCluster(2, 1, false, "dbcrash@5:shard=0,replica=0,restart=5"),
        shared.profiles, shared.registry, 7);
    cluster.start(secs(20));
    cluster.advanceTo(secs(25));

    EXPECT_EQ(cluster.tracker().failoverCount(), 0u);
    EXPECT_EQ(cluster.dbCrashCount(), 0u);
    EXPECT_GT(cluster.tracker().totalCompleted(), 0u);
    // The restarted standby resilvered from the stream.
    EXPECT_TRUE(cluster.shard(0).replica(0).alive());
    EXPECT_GT(cluster.shard(0).replica(0).durableLsn(), 0u);
}

TEST(ClusterReplTest, UnreplicatedShardFallsBackToBlockingRecovery)
{
    Shared shared;
    ClusterConfig config =
        replCluster(2, 0, false, "dbcrash@8:shard=0,restart=1");
    // A spinning WAL device makes the replay long enough that calls
    // observably fail fast while it runs.
    config.db_disk.kind = DiskConfig::Kind::Spinning;
    config.db_disk.spindles = 2;
    ClusterUnderTest cluster(config, shared.profiles, shared.registry, 7);
    cluster.start(secs(20));
    cluster.advanceTo(secs(25));

    EXPECT_EQ(cluster.tracker().failoverCount(), 0u);
    EXPECT_EQ(cluster.dbCrashCount(), 1u);
    EXPECT_EQ(cluster.tracker().dbRecoveryCount(), 1u);
    // The shard's recovery is charged, like the single box's: the
    // retained WAL is read back and the outage lasts simulated time.
    EXPECT_GT(cluster.dbReplayUs(), 0u);
    EXPECT_GT(cluster.lastRecovery().replay_bytes, 0u);
    EXPECT_TRUE(cluster.audited());
    EXPECT_TRUE(cluster.lastAudit().pass());
    EXPECT_GT(cluster.jops(secs(12), secs(20)), 0.0);
    // A replica-less shard has nothing to promote: while it replays
    // its WAL, calls fail fast with RecoveryWait, never FailoverWait.
    const ResponseTracker &t = cluster.tracker();
    EXPECT_GT(t.retryCount(ErrorKind::RecoveryWait) +
                  t.errorCount(ErrorKind::RecoveryWait),
              0u);
    EXPECT_EQ(t.retryCount(ErrorKind::FailoverWait), 0u);
    EXPECT_EQ(t.errorCount(ErrorKind::FailoverWait), 0u);
}

TEST(ClusterReplTest, ReplicatedRunsAreDeterministic)
{
    Shared shared;
    const auto run = [&](std::uint64_t seed) {
        ClusterUnderTest cluster(
            replCluster(2, 1, true, "dbcrash@8:shard=0"),
            shared.profiles, shared.registry, seed);
        cluster.start(secs(15));
        cluster.advanceTo(secs(18));
        return std::make_tuple(cluster.queue().executed(),
                               cluster.tracker().totalCompleted(),
                               cluster.tracker().failoverBlackoutUs());
    };
    EXPECT_EQ(run(99), run(99));
    EXPECT_NE(std::get<0>(run(99)), std::get<0>(run(100)));
}

} // namespace
} // namespace jasim
