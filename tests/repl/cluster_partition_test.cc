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
partitionCluster(std::size_t replicas, bool sync,
                 const std::string &faults)
{
    ClusterConfig config;
    config.nodes = 2;
    config.node.injection_rate = 10.0;
    config.node.driver.ramp_up_s = 1.0;
    config.db_pool.max_connections = 16;
    config.repl.shards = 1;
    config.repl.replicas = replicas;
    config.repl.sync = sync;
    config.db_recovery.checkpoint_interval_s = 5.0;
    if (!faults.empty())
        config.faults = FaultSchedule::parse(faults);
    return config;
}

TEST(ClusterPartitionTest, ScheduleFreeRunsLeaveLeasesUnarmed)
{
    Shared shared;
    ClusterUnderTest cluster(partitionCluster(2, true, ""),
                             shared.profiles, shared.registry, 7);
    EXPECT_FALSE(cluster.armed().lease);
    cluster.start(secs(10));
    cluster.advanceTo(secs(12));
    // No lease machinery ran: zero heartbeats, zero partition drops.
    EXPECT_EQ(cluster.shard(0).heartbeatsSent(), 0u);
    EXPECT_EQ(cluster.fabric().partitionDrops(), 0u);
    EXPECT_EQ(cluster.tracker().partitionCount(), 0u);
    EXPECT_GT(cluster.tracker().totalCompleted(), 0u);
}

TEST(ClusterPartitionTest, PartitionPromotesTheQuorumSide)
{
    // Cut the primary away from both replicas and every app node:
    // the replica side holds 2 of the group's 3 members, so the lease
    // monitor must promote there once the primary's lease lapses.
    Shared shared;
    ClusterUnderTest cluster(
        partitionCluster(
            2, /*sync=*/true,
            "partition@6:sides=db0|0,1,db0.0,db0.1,dur=8"),
        shared.profiles, shared.registry, 7);
    ASSERT_TRUE(cluster.armed().lease);
    cluster.start(secs(20));
    cluster.advanceTo(secs(25));

    ASSERT_NE(cluster.failoverController(), nullptr);
    ASSERT_EQ(cluster.failoverController()->failoverCount(), 1u);
    const repl::FailoverOutcome &out =
        cluster.failoverController()->history()[0];
    EXPECT_EQ(out.kind, repl::FailoverKind::Partition);
    EXPECT_EQ(out.fencing_token, 1u);

    const ResponseTracker &t = cluster.tracker();
    EXPECT_EQ(t.partitionCount(), 1u);
    EXPECT_EQ(t.partitionUs(secs(20)), secs(8));
    // Cross-side sends failed fast while the split was open.
    EXPECT_GT(cluster.fabric().partitionDrops(), 0u);
    EXPECT_GT(t.errorCount(ErrorKind::Partitioned), 0u);

    // The promoted side kept serving inside the partition window.
    EXPECT_GT(cluster.jops(secs(10), secs(14)), 0.0);

    // Sync guarantee across partition + heal: zero lost-acked, by
    // construction (quorum acks intersect the promoted majority).
    const AuditReport audit = cluster.auditNow();
    EXPECT_GT(audit.acked_total, 0u);
    EXPECT_EQ(audit.lost_acked, 0u);
    EXPECT_EQ(audit.resurrected, 0u);
    EXPECT_EQ(audit.duplicates, 0u);

    // Heal: the deposed primary's divergent tail was rewound (and
    // fenced if it had shipped anything), then the slot rejoined.
    EXPECT_EQ(cluster.staleRewinds(), 1u);
    if (cluster.staleRewindBytes() > 0) {
        EXPECT_GE(cluster.shard(0).fencedWindows(), 1u);
    }
    EXPECT_EQ(cluster.shard(0).servingMember(),
              repl::ShardGroup::kPrimaryMember);
    EXPECT_GT(cluster.jops(secs(15), secs(20)), 0.0);
}

TEST(ClusterPartitionTest, EvenSplitWithoutQuorumNeverPromotes)
{
    // R=1: a split leaves one member on each side -- neither holds a
    // majority of the 2-member group, so nobody may promote (CP: the
    // shard goes unavailable rather than split-brain).
    Shared shared;
    ClusterUnderTest cluster(
        partitionCluster(1, /*sync=*/true,
                         "partition@6:sides=db0,0|1,db0.0,dur=6"),
        shared.profiles, shared.registry, 7);
    cluster.start(secs(20));
    cluster.advanceTo(secs(25));

    EXPECT_EQ(cluster.failoverController()->failoverCount(), 0u);
    EXPECT_EQ(cluster.staleRewinds(), 0u);
    EXPECT_EQ(cluster.tracker().failoverCount(), 0u);
    // The shard erred rather than acking without a lease.
    EXPECT_GT(cluster.tracker().errorCount(), 0u);
    EXPECT_GE(cluster.shard(0).lease().lapses(), 1u);
    // Nothing acked was lost -- the whole point of lapsing.
    const AuditReport audit = cluster.auditNow();
    EXPECT_EQ(audit.lost_acked, 0u);
    // After the heal the lease renews and service resumes.
    EXPECT_GT(cluster.jops(secs(15), secs(20)), 0.0);
}

TEST(ClusterPartitionTest, PlannedSwitchoverBlackoutUnderOneLease)
{
    Shared shared;
    ClusterUnderTest cluster(
        partitionCluster(2, /*sync=*/true, "switchover@8:shard=0"),
        shared.profiles, shared.registry, 7);
    ASSERT_TRUE(cluster.armed().lease);
    cluster.start(secs(20));
    cluster.advanceTo(secs(25));

    ASSERT_EQ(cluster.failoverController()->failoverCount(), 1u);
    const repl::FailoverOutcome &out =
        cluster.failoverController()->history()[0];
    EXPECT_EQ(out.kind, repl::FailoverKind::Switchover);
    EXPECT_EQ(out.fencing_token, 1u);
    EXPECT_EQ(cluster.failoverController()->switchoverAborts(), 0u);

    const ResponseTracker &t = cluster.tracker();
    EXPECT_EQ(t.switchoverCount(), 1u);
    // The acceptance gate: the handoff blackout stays under one
    // lease interval (the crash path pays detect + catch-up instead).
    EXPECT_LE(t.failoverBlackoutUs(0),
              secs(ClusterConfig{}.repl.lease.lease_s));

    const AuditReport audit = cluster.auditNow();
    EXPECT_GT(audit.acked_total, 0u);
    EXPECT_EQ(audit.lost_acked, 0u);
    EXPECT_EQ(audit.duplicates, 0u);
    EXPECT_GT(cluster.jops(secs(10), secs(20)), 0.0);
}

TEST(ClusterPartitionTest, PartitionRunsAreDeterministic)
{
    Shared shared;
    const auto run = [&](std::uint64_t seed) {
        ClusterUnderTest cluster(
            partitionCluster(
                2, true, "partition@6:sides=db0|0,1,db0.0,db0.1,dur=6"),
            shared.profiles, shared.registry, seed);
        cluster.start(secs(15));
        cluster.advanceTo(secs(18));
        return std::make_tuple(
            cluster.queue().executed(),
            cluster.tracker().totalCompleted(),
            cluster.tracker().errorCount(),
            cluster.fabric().partitionDrops(),
            cluster.staleRewindBytes());
    };
    EXPECT_EQ(run(99), run(99));
    EXPECT_NE(std::get<0>(run(99)), std::get<0>(run(100)));
}

} // namespace
} // namespace jasim
