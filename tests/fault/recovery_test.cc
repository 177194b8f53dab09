#include <gtest/gtest.h>

#include <sstream>

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
lightCluster(double per_node_ir = 5.0)
{
    ClusterConfig config;
    config.nodes = 2;
    config.node.injection_rate = per_node_ir;
    config.node.driver.ramp_up_s = 1.0;
    config.fabric = FabricConfig::zeroCost();
    config.db_pool.max_connections = 64;
    config.db_pool.connect_us = 0.0;
    config.lb.forward_us = 0.0;
    return config;
}

TEST(ClusterRecoveryTest, HealthyRunArmsNoRecovery)
{
    Shared shared;
    ClusterUnderTest cluster(lightCluster(), shared.profiles,
                             shared.registry, 7);
    EXPECT_FALSE(cluster.armed().recovery);
    EXPECT_FALSE(cluster.shard(0).down());
    cluster.start(secs(10));
    cluster.advanceTo(secs(15));
    EXPECT_EQ(cluster.dbCrashCount(), 0u);
    EXPECT_EQ(cluster.checkpointCount(), 0u);
    EXPECT_EQ(cluster.tracker().dbRecoveryCount(), 0u);
}

TEST(ClusterRecoveryTest, DbCrashRecoversAndKeepsServing)
{
    Shared shared;
    ClusterConfig config = lightCluster();
    config.faults = FaultSchedule::parse(
        "dbcrash@10:restart=1;tornwrite@20:restart=1");
    config.db_recovery.checkpoint_interval_s = 4.0;

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 13);
    ASSERT_TRUE(cluster.armed().recovery);
    cluster.start(secs(30));
    cluster.advanceTo(secs(40));

    EXPECT_EQ(cluster.dbCrashCount(), 2u);
    EXPECT_FALSE(cluster.shard(0).down()); // both recoveries completed
    EXPECT_EQ(cluster.tracker().dbRecoveryCount(), 2u);
    EXPECT_GT(cluster.tracker().dbRecoveryUs(), 0u);
    EXPECT_GT(cluster.dbReplayUs(), 0u);
    EXPECT_GT(cluster.checkpointCount(), 2u);
    EXPECT_GT(cluster.lastRecovery().replay_bytes, 0u);
    // Requests failed while the tier was gone, then service resumed.
    EXPECT_GT(cluster.tracker().errorCount(), 0u);
    EXPECT_GT(cluster.tracker().totalCompleted(), 100u);
    EXPECT_GT(cluster.jops(secs(25), secs(30)), 0.0);
}

TEST(ClusterRecoveryTest, DbCrashIsOneOutageWindow)
{
    // The crash-to-recovered window is logged once, as a DB recovery,
    // and the degraded union sees exactly that window.
    Shared shared;
    ClusterConfig config = lightCluster();
    config.faults = FaultSchedule::parse("dbcrash@10:restart=1");

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 13);
    cluster.start(secs(20));
    cluster.advanceTo(secs(25));

    const ResponseTracker &t = cluster.tracker();
    EXPECT_EQ(t.dbRecoveryCount(), 1u);
    EXPECT_GT(t.dbRecoveryUs(), secs(1)); // the restart delay, then replay
    const DegradedSummary summary = t.degradedSummary(secs(25));
    EXPECT_EQ(summary.intervals, 1u);
    EXPECT_EQ(summary.degraded_us, t.dbRecoveryUs());
}

TEST(ClusterRecoveryTest, RecoveryWaitCountedWhileReplaying)
{
    Shared shared;
    ClusterConfig config = lightCluster();
    // A spinning WAL device makes the replay long enough that
    // requests observably fail fast with RecoveryWait.
    config.db_disk.kind = DiskConfig::Kind::Spinning;
    config.db_disk.spindles = 2;
    config.faults = FaultSchedule::parse("dbcrash@10:restart=1");
    config.db_recovery.checkpoint_interval_s = 16.0;

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 17);
    cluster.start(secs(25));
    cluster.advanceTo(secs(35));

    EXPECT_GT(cluster.tracker().errorCount(ErrorKind::RecoveryWait),
              0u);
    // Down-window failures surface too (retried into exhaustion).
    EXPECT_GT(cluster.tracker().errorCount(),
              cluster.tracker().errorCount(ErrorKind::RecoveryWait));
    EXPECT_FALSE(cluster.shard(0).down());
}

TEST(ClusterRecoveryTest, CrashVerbsAimedAtMissingMembersAreIgnored)
{
    // The single box is shard group 0 with no replicas: a verb aimed
    // at a replica or at another shard names a member it does not
    // have, and is ignored as on any tier.
    Shared shared;
    for (const char *spec :
         {"dbcrash@12:replica=0,restart=1", "dbcrash@12:shard=3,restart=1"}) {
        ClusterConfig config = lightCluster();
        config.faults = FaultSchedule::parse(spec);
        ClusterUnderTest cluster(config, shared.profiles,
                                 shared.registry, 7);
        cluster.start(secs(20));
        cluster.advanceTo(secs(25));
        EXPECT_EQ(cluster.dbCrashCount(), 0u) << spec;
        EXPECT_EQ(cluster.tracker().errorCount(), 0u) << spec;
        EXPECT_GT(cluster.tracker().totalCompleted(), 100u) << spec;
    }
}

TEST(ClusterRecoveryTest, ReplayGrowsWithCheckpointInterval)
{
    Shared shared;
    std::uint64_t prev_replay_bytes = 0;
    SimTime prev_replay_us = 0;
    for (const double interval : {2.0, 8.0, 32.0}) {
        ClusterConfig config = lightCluster();
        config.faults =
            FaultSchedule::parse("dbcrash@20:restart=1");
        config.db_recovery.checkpoint_interval_s = interval;
        ClusterUnderTest cluster(config, shared.profiles,
                                 shared.registry, 19);
        cluster.start(secs(30));
        cluster.advanceTo(secs(40));
        ASSERT_EQ(cluster.dbCrashCount(), 1u);
        // More un-checkpointed WAL to scan, more redo work, more
        // simulated replay time.
        EXPECT_GE(cluster.lastRecovery().replay_bytes,
                  prev_replay_bytes)
            << "interval " << interval;
        EXPECT_GE(cluster.dbReplayUs(), prev_replay_us)
            << "interval " << interval;
        prev_replay_bytes = cluster.lastRecovery().replay_bytes;
        prev_replay_us = cluster.dbReplayUs();
    }
    EXPECT_GT(prev_replay_bytes, 0u);
}

TEST(ClusterRecoveryTest, RandomizedCrashesNeverLoseAckedCommits)
{
    Shared shared;
    // Randomized sweep: per-seed crash/torn times, both verbs, short
    // restart. The audit must hold every time -- zero lost acked
    // commits, zero resurrected aborted effects, zero duplicates.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const double t_crash =
            8.0 + static_cast<double>((seed * 7919) % 50) / 10.0;
        const double t_torn =
            t_crash + 6.0 + static_cast<double>((seed * 104729) % 40)
                / 10.0;
        std::ostringstream spec;
        spec << "dbcrash@" << t_crash
             << ":restart=1;tornwrite@" << t_torn << ":restart=1";
        ClusterConfig config = lightCluster();
        config.faults = FaultSchedule::parse(spec.str());
        config.db_recovery.checkpoint_interval_s =
            2.0 + static_cast<double>(seed % 3) * 3.0;

        ClusterUnderTest cluster(config, shared.profiles,
                                 shared.registry, seed);
        cluster.start(secs(28));
        cluster.advanceTo(secs(40));

        ASSERT_EQ(cluster.dbCrashCount(), 2u) << "seed " << seed;
        ASSERT_TRUE(cluster.audited()) << "seed " << seed;
        const AuditReport report = cluster.auditNow();
        EXPECT_EQ(report.lost_acked, 0u) << "seed " << seed;
        EXPECT_EQ(report.lost_durable, 0u) << "seed " << seed;
        EXPECT_EQ(report.resurrected, 0u) << "seed " << seed;
        EXPECT_EQ(report.duplicates, 0u) << "seed " << seed;
        EXPECT_TRUE(report.pass()) << "seed " << seed;
        EXPECT_GT(report.surviving, 0u) << "seed " << seed;
        EXPECT_TRUE(cluster.lastAudit().pass()) << "seed " << seed;
    }
}

TEST(ClusterRecoveryTest, ChaosRunsAreDeterministic)
{
    Shared shared;
    ClusterConfig config = lightCluster();
    config.fabric = FabricConfig{}; // real LAN links, jittered
    config.faults = FaultSchedule::parse(
        "dbcrash@8:restart=1;tornwrite@18:restart=1");
    config.db_recovery.checkpoint_interval_s = 4.0;

    ClusterUnderTest a(config, shared.profiles, shared.registry, 23);
    ClusterUnderTest b(config, shared.profiles, shared.registry, 23);
    a.start(secs(25));
    b.start(secs(25));
    a.advanceTo(secs(35));
    b.advanceTo(secs(35));

    EXPECT_EQ(a.queue().executed(), b.queue().executed());
    EXPECT_EQ(a.tracker().totalCompleted(),
              b.tracker().totalCompleted());
    EXPECT_EQ(a.tracker().errorCount(), b.tracker().errorCount());
    EXPECT_EQ(a.dbReplayUs(), b.dbReplayUs());
    EXPECT_EQ(a.checkpointCount(), b.checkpointCount());
    EXPECT_EQ(a.auditNow().surviving, b.auditNow().surviving);
}

TEST(ClusterRecoveryTest, CrashPastTheHorizonArmsWithoutFiring)
{
    // The armed-baseline recipe: a dbcrash scheduled after the run
    // ends arms recovery, and the run itself stays healthy.
    Shared shared;
    ClusterConfig config = lightCluster();
    config.faults = FaultSchedule::parse("dbcrash@21");
    config.db_recovery.checkpoint_interval_s = 3.0;

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 29);
    ASSERT_TRUE(cluster.armed().recovery);
    cluster.start(secs(15));
    cluster.advanceTo(secs(20));

    EXPECT_EQ(cluster.injector()->fired(), 0u);
    EXPECT_EQ(cluster.dbCrashCount(), 0u);
    EXPECT_GT(cluster.checkpointCount(), 2u);
    EXPECT_GT(cluster.checkpointPagesFlushed(), 0u);
    EXPECT_EQ(cluster.tracker().errorCount(), 0u);
    // Healthy armed run: the audit must already hold.
    const AuditReport report = cluster.auditNow();
    EXPECT_TRUE(report.pass());
    EXPECT_GT(report.surviving, 0u);
}

} // namespace
} // namespace jasim
