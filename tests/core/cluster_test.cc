#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

TEST(ClusterTest, OneNodeZeroCostFabricMatchesSingleSutJops)
{
    const std::uint64_t seed = 11;
    const double ir = 10.0;
    const SimTime end = secs(120);
    Shared shared(seed);

    SystemUnderTest sut(lightNode(ir), shared.profiles,
                        shared.registry, seed);
    sut.start(end);
    sut.advanceTo(end + secs(10));

    ClusterUnderTest cluster(zeroCostCluster(1, ir), shared.profiles,
                             shared.registry, seed);
    cluster.start(end);
    cluster.advanceTo(end + secs(10));

    // Identical seed => identical arrival stream; a free fabric must
    // not perturb throughput. Acceptance bound is 5%.
    const double sut_jops = sut.tracker().jops(secs(10), end);
    const double cluster_jops = cluster.jops(secs(10), end);
    EXPECT_GT(sut_jops, 0.0);
    EXPECT_NEAR(cluster_jops, sut_jops, sut_jops * 0.05);
    EXPECT_NEAR(
        static_cast<double>(cluster.tracker().totalCompleted()),
        static_cast<double>(sut.tracker().totalCompleted()),
        static_cast<double>(sut.tracker().totalCompleted()) * 0.05);
}

TEST(ClusterTest, RunsAreDeterministicUnderPinnedSeed)
{
    Shared shared;
    ClusterConfig config = zeroCostCluster(2, 5.0);
    config.fabric = FabricConfig{}; // real LAN links, jittered
    config.fabric.node_db.jitter_sigma = 0.2;

    ClusterUnderTest a(config, shared.profiles, shared.registry, 99);
    ClusterUnderTest b(config, shared.profiles, shared.registry, 99);
    a.start(secs(40));
    b.start(secs(40));
    a.advanceTo(secs(50));
    b.advanceTo(secs(50));

    EXPECT_GT(a.tracker().totalCompleted(), 100u);
    EXPECT_EQ(a.tracker().totalCompleted(),
              b.tracker().totalCompleted());
    EXPECT_DOUBLE_EQ(a.jops(secs(5), secs(40)),
                     b.jops(secs(5), secs(40)));
    EXPECT_EQ(a.fabric().totalBytes(), b.fabric().totalBytes());
}

TEST(ClusterTest, PerNodeCompletionsSumToTotal)
{
    Shared shared;
    ClusterConfig config = zeroCostCluster(3, 4.0);
    config.lb.policy = LbPolicy::RoundRobin;
    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 7);
    cluster.start(secs(40));
    cluster.advanceTo(secs(50));

    const std::uint64_t total = cluster.tracker().totalCompleted();
    EXPECT_GT(total, 100u);
    std::uint64_t sum = 0;
    for (std::uint32_t n = 0; n < 3; ++n) {
        const std::uint64_t on_node =
            cluster.tracker().completedOnNode(n);
        EXPECT_GT(on_node, 0u);
        sum += on_node;
    }
    EXPECT_EQ(sum, total);
    // Round-robin: no node serves more than a slight majority.
    for (std::uint32_t n = 0; n < 3; ++n)
        EXPECT_LT(cluster.tracker().completedOnNode(n),
                  total / 2);
}

TEST(ClusterTest, EveryNodeStackRunsItsOwnJvmAndScheduler)
{
    Shared shared;
    ClusterUnderTest cluster(zeroCostCluster(2, 5.0), shared.profiles,
                             shared.registry, 7);
    cluster.start(secs(30));
    cluster.advanceTo(secs(30));
    for (std::size_t n = 0; n < 2; ++n) {
        EXPECT_GT(cluster.node(n).scheduler().totalBusy(), 0u);
        EXPECT_GT(cluster.node(n).jit().totalCompileUs(), 0.0);
        // DB CPU runs on the DB node, not on app-server nodes.
        EXPECT_EQ(cluster.node(n).scheduler().busyBy(Component::Db2),
                  0u);
    }
    EXPECT_GT(cluster.shard(0).scheduler().busyBy(Component::Db2), 0u);
    EXPECT_GT(cluster.shard(0).application().rowsLoaded(), 0u);
}

TEST(ClusterTest, TinyDbPoolQueuesButLosesNothing)
{
    Shared shared;
    ClusterConfig config = zeroCostCluster(1, 8.0);
    config.db_pool.max_connections = 1;
    config.fabric.node_db = LinkConfig::lan(); // real RTTs to the DB
    ClusterUnderTest cluster(config, shared.profiles,
                             shared.registry, 13);
    cluster.start(secs(40));
    cluster.advanceTo(secs(60)); // drain

    const ConnectionPoolStats &stats = cluster.dbPool(0).stats();
    EXPECT_GT(stats.waits, 0u);
    EXPECT_EQ(cluster.dbPool(0).waiting(), 0u);
    // Every injected DB transaction eventually ran.
    EXPECT_GT(cluster.tracker().totalCompleted(), 200u);
    EXPECT_NEAR(
        static_cast<double>(cluster.tracker().totalCompleted()),
        8.0 * 1.6 * 39.0, // IR x jops/IR x injected seconds
        8.0 * 1.6 * 39.0 * 0.2);
}

TEST(ClusterTest, TwoNodesCarryTwiceTheLoadOfOne)
{
    Shared shared;
    ClusterUnderTest one(zeroCostCluster(1, 5.0), shared.profiles,
                         shared.registry, 3);
    ClusterUnderTest two(zeroCostCluster(2, 5.0), shared.profiles,
                         shared.registry, 3);
    one.start(secs(60));
    two.start(secs(60));
    one.advanceTo(secs(70));
    two.advanceTo(secs(70));
    const double jops_one = one.jops(secs(10), secs(60));
    const double jops_two = two.jops(secs(10), secs(60));
    EXPECT_NEAR(jops_two, 2.0 * jops_one, 0.15 * jops_two);
}

/** Every output of a tracker, in a fixed order. */
std::vector<double>
trackerOutputs(const ResponseTracker &t, SimTime end, std::size_t nodes)
{
    std::vector<double> out;
    const auto put = [&out](auto v) {
        out.push_back(static_cast<double>(v));
    };
    put(t.totalCompleted());
    put(t.errorCount());
    put(t.retryCount());
    put(t.jops(0, end));
    for (const SlaVerdict &v : t.verdicts()) {
        put(v.p90_seconds);
        put(v.p99_seconds);
        put(v.pass);
        put(v.completed);
    }
    for (std::size_t r = 0; r < requestTypeCount; ++r) {
        const auto type = static_cast<RequestType>(r);
        put(t.completedCount(type));
        put(t.meanResponseSeconds(type));
        put(t.p99ResponseSeconds(type));
        const TimeSeries series = t.throughputSeries(type, end);
        for (const double x : series.values())
            put(x);
    }
    for (std::uint32_t n = 0; n < nodes; ++n) {
        put(t.completedOnNode(n));
        put(t.errorsOnNode(n));
        put(t.nodeJops(n, 0, end));
    }
    for (std::size_t k = 0; k < errorKindCount; ++k)
        put(t.errorCount(static_cast<ErrorKind>(k)));
    return out;
}

/** Every field of every collection in a log. */
std::vector<double>
gcOutputs(const VerboseGcLog &log)
{
    std::vector<double> out;
    for (const GcEvent &e : log.events()) {
        for (const double x :
             {static_cast<double>(e.start), static_cast<double>(e.cause),
              e.mark_ms, e.sweep_ms, e.compact_ms,
              static_cast<double>(e.compacted),
              static_cast<double>(e.used_before),
              static_cast<double>(e.used_after),
              static_cast<double>(e.live_bytes),
              static_cast<double>(e.dark_bytes),
              static_cast<double>(e.freed_bytes),
              static_cast<double>(e.live_cells),
              static_cast<double>(e.reclaimed_cells)})
            out.push_back(x);
    }
    return out;
}

TEST(ClusterTest, HeapWorkerOnAndOffGiveIdenticalOutputs)
{
    // Four nodes on one shared heap worker against four inline heaps.
    // Small heaps make every node collect several times.
    Shared shared;
    const SimTime end = secs(40);
    std::vector<std::vector<double>> runs[2];
    for (const bool worker : {false, true}) {
        ClusterConfig config = zeroCostCluster(4, 5.0);
        config.node.heap_worker = worker;
        config.node.gc.heap.size_bytes = 48ull << 20;
        config.node.gc.baseline_bytes = 16ull << 20;
        ClusterUnderTest cluster(config, shared.profiles,
                                 shared.registry, 21);
        cluster.start(end);
        cluster.advanceTo(end + secs(5));
        std::vector<std::vector<double>> &outputs = runs[worker];
        outputs.push_back(trackerOutputs(cluster.tracker(), end, 4));
        for (std::size_t n = 0; n < 4; ++n) {
            const SystemUnderTest &node = cluster.node(n);
            EXPECT_GE(node.collector().log().events().size(), 3u) << n;
            outputs.push_back(trackerOutputs(node.tracker(), end, 4));
            outputs.push_back(gcOutputs(node.collector().log()));
            outputs.push_back({static_cast<double>(
                                   node.collector().heap().usedBytes()),
                               static_cast<double>(
                                   node.collector().graph().cellCount())});
        }
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i)
        EXPECT_EQ(runs[0][i], runs[1][i]) << "output " << i;
}

TEST(ClusterTest, TooSmallHeapFailsLoudlyWithAndWithoutTheHeapWorker)
{
    // One MB above the startup baseline, as SutTest's box: a node's
    // allocation fails right after a collection, inline or through
    // the worker, and both raise the same error.
    Shared shared;
    std::string messages[2];
    for (const bool worker : {false, true}) {
        ClusterConfig config = zeroCostCluster(1, 40.0);
        config.node.heap_worker = worker;
        config.node.gc.heap.size_bytes = 121ull << 20;
        config.node.driver.ramp_up_s = 5.0;
        ClusterUnderTest cluster(config, shared.profiles,
                                 shared.registry, 11);
        cluster.start(secs(15));
        try {
            cluster.advanceTo(secs(15));
            ADD_FAILURE() << "no error with heap_worker=" << worker;
        } catch (const std::runtime_error &error) {
            messages[worker] = error.what();
        }
    }
    EXPECT_NE(messages[0].find("(heap_mb=121) is too small"),
              std::string::npos)
        << messages[0];
    EXPECT_EQ(messages[0], messages[1]);
}

TEST(ClusterTest, ArmedFeaturesFollowTheConfig)
{
    const auto with = [](auto edit) {
        ClusterConfig config;
        edit(config);
        return config;
    };
    const auto schedule = [&](const char *spec) {
        return with([spec](ClusterConfig &c) {
            c.faults = FaultSchedule::parse(spec);
        });
    };
    // What any fault arms on the single box.
    const ArmedSet faulted = {.resilience = true,
                              .deadline = true,
                              .retry = true,
                              .breaker = true,
                              .bounded_acquire = true};
    ArmedSet faulted_recovery = faulted;
    faulted_recovery.recovery = true;
    const ArmedSet replicated = {.replication = true,
                                 .recovery = true,
                                 .deadline = true,
                                 .retry = true,
                                 .bounded_acquire = true};
    ArmedSet partitioned = replicated;
    partitioned.resilience = true;
    partitioned.lease = true;
    struct Case
    {
        const char *name;
        ClusterConfig config;
        ArmedSet want;
    };
    const Case cases[] = {
        {"default", ClusterConfig{}, {}},
        {"empty schedule", schedule(""), {}},
        {"node crash", schedule("crash@5:node=0,restart=1"), faulted},
        {"db crash", schedule("dbcrash@5:restart=1"), faulted_recovery},
        // A verb timed long after any run ends arms all the same: the
        // schedule is the one arming input.
        {"dbcrash past the horizon", schedule("dbcrash@1000"),
         faulted_recovery},
        {"admission",
         with([](ClusterConfig &c) {
             c.node.admission = adm::AdmissionConfig::parse(
                 "adaptive:cap=32,min=2");
         }),
         {.admission = true, .bounded_acquire = true}},
        {"shards=2", with([](ClusterConfig &c) { c.repl.shards = 2; }),
         replicated},
        {"replicas=1", with([](ClusterConfig &c) { c.repl.replicas = 1; }),
         replicated},
        {"replicated + partition",
         with([](ClusterConfig &c) {
             c.repl.replicas = 2;
             c.faults = FaultSchedule::parse(
                 "partition@6:sides=db0|0,1,db0.0,db0.1,dur=8");
         }),
         partitioned},
    };
    Shared shared;
    for (const Case &c : cases) {
        const ArmedSet got = armedFeatures(c.config);
        EXPECT_TRUE(got == c.want) << c.name;
        // The cluster runs with exactly the derived set, and builds
        // the breaker and health checker only when they are armed.
        ClusterConfig config = c.config;
        config.nodes = 1;
        config.node.injection_rate = 5.0;
        ClusterUnderTest cluster(config, shared.profiles,
                                 shared.registry, 7);
        EXPECT_TRUE(cluster.armed() == got) << c.name;
        EXPECT_EQ(cluster.breaker() != nullptr, got.breaker) << c.name;
        EXPECT_EQ(cluster.healthChecker() != nullptr, got.resilience)
            << c.name;
    }
}

} // namespace
} // namespace jasim
