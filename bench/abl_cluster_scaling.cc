/** Extension (paper Section 7, future work): horizontal scaling.
 *  N app-server nodes behind a load balancer share one database
 *  tier over a simulated LAN; the sweep holds per-node IR fixed and
 *  grows the cluster until the shared DB (or the balancer) is the
 *  bottleneck and aggregate throughput bends. */

#include <algorithm>

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

/** Everything one sweep point contributes to the table and curves. */
struct ScalePoint
{
    double agg_ir = 0.0;
    double jops = 0.0;
    double db_util = 0.0;
    double pool_wait_us = 0.0;
    double p99_web = 0.0;
    bool sla = true;
    std::uint64_t events = 0;

    // populated only on --faults runs
    std::uint64_t errors = 0;
    std::uint64_t retries = 0;
    double error_rate = 0.0;
    double min_availability = 1.0;
};

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    bench::PerfReport perf("abl_cluster_scaling");
    bench::ClusterRun harness(
        args, {.nodes = 8, .ramp_s = 30.0, .steady_s = 90.0});
    // The bench's own keys, read into the config every sweep point
    // copies, once, before the banner and outside the sweep workers.
    ClusterConfig &base = harness.base;
    base.faults = FaultSchedule::parse(args.getString("faults", ""));
    base.db_cpus = static_cast<std::size_t>(args.getInt("db_cpus", 4, 1));
    base.db_pool.max_connections =
        static_cast<std::size_t>(args.getInt("db_pool", 12, 1));
    // The replication axis. Its defaults (1/0/async) are one
    // unreplicated shard group, the single shared DB box, and arm
    // nothing replication needs: the output stays byte-identical.
    base.repl.shards =
        static_cast<std::size_t>(args.getInt("shards", 1, 1, 64));
    base.repl.replicas =
        static_cast<std::size_t>(args.getInt("replicas", 0, 0, 8));
    base.repl.sync =
        args.getChoice("sync-mode", "async", {"sync", "async"}) == "sync";
    const std::string policy =
        args.getChoice("lb", "lc", {"lc", "rr", "wrr"});
    if (policy == "rr")
        base.lb.policy = LbPolicy::RoundRobin;
    else if (policy == "wrr")
        base.lb.policy = LbPolicy::Weighted;
    else
        base.lb.policy = LbPolicy::LeastConnections;
    base.lb.forward_us = args.getDouble("lb_us", 30.0);
    // The largest point runs every node.
    base.faults.checkTargets(base.nodes, base.repl.shards, base.repl.replicas);
    const FaultSchedule &faults = base.faults;
    args.rejectUnread();

    bench::banner(std::cout,
                  "Ablation: Cluster Scaling (future work)",
                  "Fixed per-node IR, growing node count: aggregate "
                  "JOPS rises near-linearly until the shared DB tier "
                  "(or balancer) saturates and queueing at the "
                  "connection pools bends the curve.");

    // Each point simulates its own independent cluster; the shared
    // profiles/registry are immutable, so points parallelize cleanly.
    const auto points =
        par::runSweep(base.nodes, harness.jobs, [&](std::size_t i) {
            const std::size_t nodes = i + 1;
            ClusterConfig config = base;
            config.nodes = nodes;
            const auto cluster = harness.run(config);

            ScalePoint p;
            p.agg_ir = config.totalInjectionRate();
            p.jops = cluster->jops(harness.steady_from, harness.steady_to);
            p.db_util = cluster->dbUtilization();
            for (std::size_t n = 0; n < nodes; ++n)
                p.pool_wait_us += cluster->dbPool(n).meanWaitUs();
            p.pool_wait_us /= static_cast<double>(nodes);

            for (const SlaVerdict &v : cluster->tracker().verdicts()) {
                if (isWebRequest(v.type))
                    p.p99_web = std::max(p.p99_web, v.p99_seconds);
                p.sla = p.sla && v.pass;
            }
            p.events = cluster->queue().executed();
            if (!faults.empty()) {
                const ResponseTracker &t = cluster->tracker();
                p.errors = t.errorCount();
                p.retries = t.retryCount();
                p.error_rate = t.errorRate();
                for (std::size_t n = 0; n < nodes; ++n) {
                    p.min_availability = std::min(
                        p.min_availability,
                        t.availability(static_cast<std::uint32_t>(n),
                                       harness.steady_to));
                }
            }
            return p;
        });

    TextTable table({"nodes", "agg IR", "JOPS", "JOPS/node",
                     "ideal", "DB util", "pool wait (ms)",
                     "p99 web (s)", "SLA"});
    TimeSeries curve("aggregate JOPS");
    TimeSeries ideal_curve("ideal (linear)");
    const double jops_at_one = points.empty() ? 0.0 : points[0].jops;

    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t nodes = i + 1;
        const ScalePoint &p = points[i];
        perf.addEvents(p.events);
        const double ideal =
            jops_at_one * static_cast<double>(nodes);
        table.addRow(
            {TextTable::num(static_cast<double>(nodes), 0),
             TextTable::num(p.agg_ir, 0),
             TextTable::num(p.jops, 1),
             TextTable::num(p.jops / static_cast<double>(nodes), 1),
             TextTable::num(ideal, 1),
             TextTable::pct(p.db_util * 100.0),
             TextTable::num(p.pool_wait_us / 1000.0, 2),
             TextTable::num(p.p99_web, 2), p.sla ? "PASS" : "FAIL"});
        curve.append(secs(static_cast<double>(nodes)), p.jops);
        ideal_curve.append(secs(static_cast<double>(nodes)), ideal);
    }
    table.print(std::cout);

    ChartOptions chart;
    chart.zero_based = true;
    chart.y_label = "aggregate JOPS vs node count (x axis = nodes)";
    renderChart(std::cout, {curve, ideal_curve}, chart);

    std::cout << "\nShape: near-linear aggregate JOPS at low node "
                 "counts; once the shared DB tier saturates, "
                 "connection-pool queueing grows, per-node JOPS "
                 "falls, and the curve bends away from the ideal "
                 "line.\n";

    if (!faults.empty()) {
        std::cout << "\nFault schedule: " << faults.summary() << "\n";
        TextTable chaos({"nodes", "errors", "error rate", "retries",
                         "min availability"});
        for (std::size_t i = 0; i < points.size(); ++i) {
            const ScalePoint &p = points[i];
            chaos.addRow(
                {TextTable::num(static_cast<double>(i + 1), 0),
                 TextTable::num(static_cast<double>(p.errors), 0),
                 TextTable::pct(p.error_rate * 100.0),
                 TextTable::num(static_cast<double>(p.retries), 0),
                 TextTable::pct(p.min_availability * 100.0)});
        }
        chaos.print(std::cout);
    }

    perf.write(harness.jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
