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

/** A burst train that pushes a light cluster well past saturation. */
ClusterConfig
burstyCluster(const char *admission)
{
    ClusterConfig config = zeroCostCluster(2, 40.0);
    config.node.driver.arrival =
        ArrivalSpec::parse("mmpp:burst=8,on=4,off=4");
    config.node.admission = adm::AdmissionConfig::parse(admission);
    return config;
}

TEST(ClusterOverloadTest, DefaultRunBuildsNoController)
{
    Shared shared;
    ClusterUnderTest cluster(zeroCostCluster(2, 5.0), shared.profiles,
                             shared.registry, 7);
    EXPECT_FALSE(cluster.armed().admission);
    EXPECT_EQ(cluster.node(0).admission(), nullptr);
    EXPECT_EQ(cluster.node(1).admission(), nullptr);
    EXPECT_EQ(cluster.loadBalancer().inFlightCap(), 0u);
    cluster.start(secs(20));
    cluster.advanceTo(secs(30));
    EXPECT_GT(cluster.tracker().totalCompleted(), 100u);
    EXPECT_EQ(cluster.tracker().shedCount(), 0u);
    EXPECT_EQ(cluster.node(0).webContainer().rejectedCount(), 0u);
}

TEST(ClusterOverloadTest, AdaptiveShedsAndBoundsTailUnderBurst)
{
    Shared shared;
    ClusterUnderTest none(burstyCluster(""), shared.profiles,
                          shared.registry, 13);
    ClusterUnderTest adaptive(
        burstyCluster("adaptive:cap=32,min=2,target=0.05,"
                      "interval=0.25,queue=64,deadline=0.3"),
        shared.profiles, shared.registry, 13);
    for (ClusterUnderTest *cluster : {&none, &adaptive}) {
        cluster->start(secs(25));
        cluster->advanceTo(secs(30));
    }

    // The unprotected run queues without bound and sheds nothing.
    EXPECT_EQ(none.tracker().shedCount(), 0u);
    // The protected run converts the overload into explicit sheds...
    EXPECT_TRUE(adaptive.armed().admission);
    const std::uint64_t rejected =
        adaptive.tracker().errorCount(ErrorKind::Rejected);
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(adaptive.tracker().shedCount(), rejected);
    EXPECT_EQ(adaptive.node(0).webContainer().rejectedCount() +
                  adaptive.node(1).webContainer().rejectedCount(),
              rejected);
    // ...and keeps the served tail far below the collapsed one.
    const double p99_none =
        none.tracker().p99ResponseSeconds(RequestType::Browse);
    const double p99_adaptive =
        adaptive.tracker().p99ResponseSeconds(RequestType::Browse);
    EXPECT_LT(p99_adaptive, 0.5 * p99_none);

    // Controller stats line up with what the tracker saw.
    std::uint64_t shed_stats = 0;
    for (std::size_t n = 0; n < 2; ++n) {
        const adm::AdmissionController *adm =
            adaptive.node(n).admission();
        ASSERT_NE(adm, nullptr);
        shed_stats += adm->stats().shed();
        EXPECT_GT(adm->stats().cap_cuts, 0u);
    }
    EXPECT_EQ(shed_stats, rejected);
}

TEST(ClusterOverloadTest, LbCapShedsAtTheBalancer)
{
    Shared shared;
    ClusterUnderTest cluster(burstyCluster("none:lb_cap=24"),
                             shared.profiles, shared.registry, 13);
    EXPECT_TRUE(cluster.armed().admission);
    EXPECT_EQ(cluster.node(0).admission(), nullptr);
    EXPECT_EQ(cluster.loadBalancer().inFlightCap(), 24u);
    cluster.start(secs(25));
    cluster.advanceTo(secs(30));

    const std::uint64_t shed_lb =
        cluster.tracker().errorCount(ErrorKind::ShedAtLB);
    EXPECT_GT(shed_lb, 0u);
    EXPECT_EQ(cluster.loadBalancer().sheds(), shed_lb);
    // Fast-reject: a shed request never reaches a node's web tier.
    EXPECT_EQ(cluster.node(0).webContainer().rejectedCount(), 0u);
    EXPECT_GT(cluster.tracker().totalCompleted(), 100u);
}

// Satellite: bounded pool acquire under shedding must not leak
// connections — after the burst drains, every pool is fully idle.
TEST(ClusterOverloadTest, PoolOccupancyReturnsToZeroAfterBurst)
{
    Shared shared;
    ClusterConfig config = burstyCluster(
        "static:cap=24,queue=48,deadline=0.25,lb_cap=64");
    config.db_pool.max_connections = 8; // force acquire waits
    config.resilience.pool_acquire_timeout_s = 0.2;

    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 29);
    cluster.start(secs(20));
    cluster.advanceTo(secs(40)); // long drain past the last arrival

    EXPECT_GT(cluster.tracker().totalCompleted(), 100u);
    EXPECT_GT(cluster.tracker().shedCount(), 0u);
    for (std::size_t n = 0; n < config.nodes; ++n) {
        const ConnectionPool &pool = cluster.dbPool(n);
        EXPECT_EQ(pool.open(), pool.idle())
            << "node " << n << " leaked connections";
        EXPECT_EQ(pool.waiting(), 0u) << "node " << n;
        // Admission slots drained too: nothing still in service.
        const adm::AdmissionController *adm =
            cluster.node(n).admission();
        ASSERT_NE(adm, nullptr);
        EXPECT_EQ(adm->inService(), 0u) << "node " << n;
        EXPECT_EQ(adm->queueDepth(), 0u) << "node " << n;
    }
    EXPECT_EQ(cluster.loadBalancer().totalInFlight(), 0u);
}

TEST(ClusterOverloadTest, OverloadRunsAreDeterministicUnderPinnedSeed)
{
    Shared shared;
    const ClusterConfig config = burstyCluster(
        "adaptive:cap=32,min=2,target=0.05,interval=0.25,"
        "queue=64,deadline=0.3,lb_cap=96");

    ClusterUnderTest a(config, shared.profiles, shared.registry, 21);
    ClusterUnderTest b(config, shared.profiles, shared.registry, 21);
    a.start(secs(25));
    b.start(secs(25));
    a.advanceTo(secs(30));
    b.advanceTo(secs(30));

    EXPECT_GT(a.tracker().totalCompleted(), 100u);
    EXPECT_GT(a.tracker().shedCount(), 0u);
    EXPECT_EQ(a.tracker().totalCompleted(),
              b.tracker().totalCompleted());
    EXPECT_EQ(a.tracker().errorCount(), b.tracker().errorCount());
    EXPECT_EQ(a.tracker().shedCount(), b.tracker().shedCount());
    EXPECT_EQ(a.queue().executed(), b.queue().executed());
    EXPECT_DOUBLE_EQ(a.jops(secs(2), secs(25)),
                     b.jops(secs(2), secs(25)));
}

} // namespace
} // namespace jasim
