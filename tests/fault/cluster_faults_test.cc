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

SutConfig
lightNode(double per_node_ir)
{
    SutConfig config;
    config.injection_rate = per_node_ir;
    config.driver.ramp_up_s = 1.0;
    return config;
}

/** Cluster whose fabric, pool and balancer add no cost at all. */
ClusterConfig
zeroCostCluster(std::size_t nodes, double per_node_ir)
{
    ClusterConfig config;
    config.nodes = nodes;
    config.node = lightNode(per_node_ir);
    config.fabric = FabricConfig::zeroCost();
    config.db_pool.max_connections = 64;
    config.db_pool.connect_us = 0.0;
    config.lb.forward_us = 0.0;
    return config;
}

TEST(ClusterFaultsTest, HealthyRunArmsNothing)
{
    Shared shared;
    ClusterUnderTest cluster(zeroCostCluster(2, 5.0), shared.profiles,
                             shared.registry, 7);
    EXPECT_FALSE(cluster.armed().resilience);
    EXPECT_EQ(cluster.injector(), nullptr);
    EXPECT_EQ(cluster.breaker(), nullptr);
    EXPECT_EQ(cluster.healthChecker(), nullptr);
    cluster.start(secs(20));
    cluster.advanceTo(secs(30));
    EXPECT_GT(cluster.tracker().totalCompleted(), 100u);
    EXPECT_EQ(cluster.tracker().errorCount(), 0u);
    EXPECT_EQ(cluster.tracker().retryCount(), 0u);
    EXPECT_DOUBLE_EQ(cluster.tracker().availability(0, secs(30)), 1.0);
}

TEST(ClusterFaultsTest, ChaosRunsAreDeterministicUnderPinnedSeed)
{
    Shared shared;
    ClusterConfig config = zeroCostCluster(2, 5.0);
    config.fabric = FabricConfig{}; // real LAN links, jittered
    config.faults = FaultSchedule::parse(
        "crash@10:node=0,restart=5;degrade@20:node=all,lat=3,"
        "drop=0.1,dur=8;poolkill@30:node=1");

    ClusterUnderTest a(config, shared.profiles, shared.registry, 21);
    ClusterUnderTest b(config, shared.profiles, shared.registry, 21);
    a.start(secs(40));
    b.start(secs(40));
    a.advanceTo(secs(55));
    b.advanceTo(secs(55));

    EXPECT_GT(a.tracker().totalCompleted(), 100u);
    EXPECT_EQ(a.tracker().totalCompleted(),
              b.tracker().totalCompleted());
    EXPECT_EQ(a.tracker().errorCount(), b.tracker().errorCount());
    EXPECT_EQ(a.tracker().retryCount(), b.tracker().retryCount());
    EXPECT_EQ(a.queue().executed(), b.queue().executed());
    EXPECT_DOUBLE_EQ(a.jops(secs(5), secs(40)),
                     b.jops(secs(5), secs(40)));
    EXPECT_EQ(a.injector()->fired(), 3u);
    EXPECT_EQ(b.injector()->fired(), 3u);
}

TEST(ClusterFaultsTest, CrashEjectsRestartReadmits)
{
    Shared shared;
    ClusterConfig config = zeroCostCluster(2, 5.0);
    config.faults =
        FaultSchedule::parse("crash@10:node=0,restart=5");

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 17);
    cluster.start(secs(30));
    cluster.advanceTo(secs(40));

    ASSERT_TRUE(cluster.armed().resilience);
    EXPECT_EQ(cluster.injector()->fired(), 1u);

    // Requests on / routed to the dead node fail as NodeDown.
    EXPECT_GT(cluster.tracker().errorCount(ErrorKind::NodeDown), 0u);
    EXPECT_GT(cluster.tracker().errorsOnNode(0), 0u);

    // Availability tracks the scripted 5 s outage of a 40 s horizon.
    const double avail0 = cluster.tracker().availability(0, secs(40));
    EXPECT_LT(avail0, 1.0);
    EXPECT_NEAR(avail0, 35.0 / 40.0, 0.02);
    EXPECT_DOUBLE_EQ(cluster.tracker().availability(1, secs(40)), 1.0);

    // The health checker saw it: ejection, then readmission.
    EXPECT_GE(cluster.healthChecker()->stats().ejections, 1u);
    EXPECT_GE(cluster.healthChecker()->stats().readmissions, 1u);
    EXPECT_FALSE(cluster.healthChecker()->ejected(0));
    EXPECT_GT(cluster.healthChecker()->stats().probes, 20u);

    // The cluster kept serving throughout (surviving node + recovery).
    EXPECT_GT(cluster.tracker().completedOnNode(0), 0u);
    EXPECT_GT(cluster.tracker().completedOnNode(1), 0u);
    EXPECT_GT(cluster.tracker().totalCompleted(), 100u);
    const DegradedSummary degraded =
        cluster.tracker().degradedSummary(secs(40));
    EXPECT_GE(degraded.intervals, 1u);
    EXPECT_GT(degraded.degraded_fraction, 0.0);
}

TEST(ClusterFaultsTest, LossyLinksDriveRetriesNotHangs)
{
    Shared shared;
    ClusterConfig config = zeroCostCluster(2, 4.0);
    config.faults = FaultSchedule::parse(
        "degrade@5:node=all,drop=0.25,dur=15");
    config.resilience.db_timeout_s = 0.25; // reclaim lost attempts fast
    config.resilience.retry.base_backoff_us = 10000.0;

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 29);
    cluster.start(secs(25));
    cluster.advanceTo(secs(40));

    // Dropped queries/responses surface as deadline-driven retries.
    EXPECT_GT(cluster.tracker().retryCount(), 0u);
    EXPECT_GT(cluster.tracker().retryCount(ErrorKind::DbTimeout), 0u);
    // Most work still completes; nothing hangs the drain.
    EXPECT_GT(cluster.tracker().totalCompleted(), 100u);
    const double rate = cluster.tracker().errorRate();
    EXPECT_LT(rate, 0.25);
}

TEST(ClusterFaultsTest, StarvedDbTripsBreakerAndFailsFast)
{
    Shared shared;
    ClusterConfig config = zeroCostCluster(1, 5.0);
    // A verb past the horizon arms resilience and never fires.
    config.faults = FaultSchedule::parse("poolkill@60:node=0");
    // A deadline no DB transaction can meet: every attempt times out.
    config.resilience.db_timeout_s = 1e-4;
    config.resilience.retry.base_backoff_us = 5000.0;
    config.resilience.breaker.failure_threshold = 5;
    config.resilience.breaker.open_s = 2.0;

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 31);
    ASSERT_TRUE(cluster.armed().resilience);
    cluster.start(secs(20));
    cluster.advanceTo(secs(30));
    EXPECT_EQ(cluster.injector()->fired(), 0u);

    // Timeouts, then the breaker trips and rejects at the door.
    EXPECT_GT(cluster.tracker().retryCount(ErrorKind::DbTimeout), 0u);
    EXPECT_GE(cluster.breaker()->stats().opens, 1u);
    EXPECT_GT(cluster.breaker()->stats().rejected, 0u);
    EXPECT_GT(
        cluster.tracker().errorCount(ErrorKind::DbRetriesExhausted),
        0u);
    EXPECT_GT(cluster.tracker().errorRate(), 0.5);
    // Fast-failing kept the pool healthy: no permanently-held conns.
    EXPECT_EQ(cluster.dbPool(0).waiting(), 0u);
}

TEST(ClusterFaultsTest, UnarmedPoolIgnoresCallerAcquireTimeout)
{
    // Nothing arms bounded acquires here, so a timeout set on the
    // pool config directly must not bound one: callers queue on the
    // single connection and every request completes.
    Shared shared;
    ClusterConfig config = zeroCostCluster(1, 5.0);
    config.db_pool.max_connections = 1;
    config.db_pool.acquire_timeout_us = 1.0;

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 41);
    ASSERT_FALSE(cluster.armed().bounded_acquire);
    cluster.start(secs(20));
    cluster.advanceTo(secs(30));

    EXPECT_GT(cluster.dbPool(0).stats().waits, 0u);
    EXPECT_EQ(cluster.dbPool(0).stats().timeouts, 0u);
    EXPECT_EQ(cluster.tracker().errorCount(ErrorKind::PoolTimeout), 0u);
    EXPECT_EQ(cluster.tracker().errorCount(), 0u);
}

TEST(ClusterFaultsTest, PoolKillIsTransparentToCallers)
{
    Shared shared;
    ClusterConfig config = zeroCostCluster(2, 5.0);
    config.faults = FaultSchedule::parse("poolkill@10:node=0");

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 37);
    cluster.start(secs(20));
    cluster.advanceTo(secs(30));

    EXPECT_EQ(cluster.injector()->fired(), 1u);
    // Free reconnects (connect_us = 0): no user-visible failures.
    EXPECT_EQ(cluster.tracker().errorCount(), 0u);
    EXPECT_GT(cluster.tracker().totalCompleted(), 100u);
}

} // namespace
} // namespace jasim
