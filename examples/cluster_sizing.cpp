/**
 * Cluster sizing: how many app-server nodes does a target aggregate
 * load need, and when does adding nodes stop helping because the
 * shared database tier is saturated?
 *
 *   ./cluster_sizing [target=250] [ir=40] [nodes=8] [db_cpus=4] [ramp=30]
 *                    [steady=90] [seed=42] [--jobs N]
 *
 * Grows the cluster one node at a time at a fixed per-node injection
 * rate and reports the smallest cluster whose aggregate JOPS meets
 * the target while still passing the response-time SLA. Past the DB
 * knee, extra nodes only deepen connection-pool queueing.
 *
 * With `--jobs N` candidate sizes are simulated in waves of N via
 * jasim::par, stopping at the wave that contains the first
 * sufficient cluster, so the rows printed (and every number in
 * them) are identical to the serial run.
 */

#include <algorithm>
#include <exception>
#include <iostream>
#include <vector>

#include "core/cluster.h"
#include "par/sweep.h"
#include "sim/config.h"
#include "stats/render.h"

using namespace jasim;

namespace {

struct SizingPoint
{
    double jops = 0.0;
    double db_util = 0.0;
    double pool_wait_us = 0.0;
    bool sla = false;
};

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    const double target_jops = args.getDouble("target", 250.0);
    const double per_node_ir = args.getDouble("ir", 40.0, kAboveZero);
    const auto max_nodes =
        static_cast<std::size_t>(args.getInt("nodes", 8, 1, 64));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 42));
    // Run lengths take ExperimentConfig::validate's rule: 0 to 1e9 s.
    const double ramp_s = args.getDouble("ramp", 30.0, 0.0, 1e9);
    const double steady_s = args.getDouble("steady", 90.0, 0.0, 1e9);
    const std::size_t jobs = args.jobs();
    const auto db_cpus =
        static_cast<std::size_t>(args.getInt("db_cpus", 4, 1));
    args.rejectUnread();

    auto profiles =
        std::make_shared<const WorkloadProfiles>(seed ^ 0x9a0full);
    auto registry = std::make_shared<const MethodRegistry>(
        profiles->layout(Component::WasJit).count(), seed ^ 0x3e9ull);

    auto simulate = [&](std::size_t nodes) {
        ClusterConfig config;
        config.nodes = nodes;
        config.node.injection_rate = per_node_ir;
        config.node.driver.ramp_up_s = ramp_s;
        config.db_cpus = db_cpus;

        ClusterUnderTest cluster(config, profiles, registry, seed);
        const SimTime end = secs(ramp_s + steady_s);
        cluster.start(end);
        cluster.advanceTo(end);

        SizingPoint p;
        p.jops = cluster.jops(secs(ramp_s), end);
        p.db_util = cluster.dbUtilization();
        for (std::size_t n = 0; n < nodes; ++n)
            p.pool_wait_us += cluster.dbPool(n).meanWaitUs();
        p.pool_wait_us /= static_cast<double>(nodes);
        p.sla = cluster.tracker().allPass();
        return p;
    };

    std::cout << "Cluster sizing: target " << target_jops
              << " JOPS at per-node IR " << per_node_ir << "\n\n";
    TextTable table({"nodes", "JOPS", "DB util", "pool wait (ms)",
                     "SLA", "meets target"});
    std::size_t chosen = 0;
    double best_jops = 0.0;

    // Waves of `jobs` candidate sizes: inside a wave the points run
    // concurrently; across waves we keep the serial early-stop at the
    // smallest sufficient cluster.
    for (std::size_t first = 1; first <= max_nodes && chosen == 0;
         first += jobs) {
        const std::size_t wave =
            std::min(jobs, max_nodes - first + 1);
        const auto points =
            par::runSweep(wave, jobs, [&](std::size_t i) {
                return simulate(first + i);
            });

        for (std::size_t i = 0; i < points.size(); ++i) {
            const std::size_t nodes = first + i;
            const SizingPoint &p = points[i];
            best_jops = std::max(best_jops, p.jops);
            const bool meets = p.sla && p.jops >= target_jops;
            if (meets && chosen == 0)
                chosen = nodes;

            table.addRow(
                {TextTable::num(static_cast<double>(nodes), 0),
                 TextTable::num(p.jops, 1),
                 TextTable::pct(p.db_util * 100.0),
                 TextTable::num(p.pool_wait_us / 1000.0, 2),
                 p.sla ? "PASS" : "FAIL", meets ? "yes" : "no"});
            if (meets)
                break; // smallest sufficient cluster found
        }
    }
    table.print(std::cout);

    if (chosen > 0)
        std::cout << "\nSmallest sufficient cluster: " << chosen
                  << " node(s).\n";
    else
        std::cout << "\nNo cluster up to " << max_nodes
                  << " nodes meets " << target_jops
                  << " JOPS with a passing SLA (best "
                  << TextTable::num(best_jops, 1)
                  << "); the shared DB tier is the ceiling -- add DB "
                     "CPUs (db_cpus=N) rather than nodes.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A run that cannot go on (a heap too small for its live set, say)
    // ends with its message and exit code 2, not in std::terminate.
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 2;
    }
}
