/** Extension (robustness): graceful degradation under injected
 *  faults. A fixed cluster runs an escalating ladder of scripted
 *  chaos — node crash + restart, link degradation, DB disk slowdown,
 *  pool kill — with the resilience machinery (health checks,
 *  timeouts, retries, circuit breaker) armed, and the sweep reports
 *  throughput, tail latency, error rate, and availability at each
 *  intensity. The claim under test: failures cost bounded throughput
 *  and bounded errors, never a deadlock or an unbounded backlog. */

#include <algorithm>
#include <sstream>
#include <vector>

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

/** One intensity level: a name and its fault spec. */
struct Level
{
    std::string name;
    std::string spec;
};

/**
 * The escalating ladder. Times are anchored inside the steady-state
 * window so ramp-up is never polluted: the first chaos lands at
 * ramp + 25% of steady, and every window closes before the run ends.
 */
std::vector<Level>
buildLadder(double ramp_s, double steady_s)
{
    const double t1 = ramp_s + 0.25 * steady_s; // first crash
    const double t2 = ramp_s + 0.45 * steady_s; // link degrade
    const double t3 = ramp_s + 0.60 * steady_s; // db slowdown
    const double t4 = ramp_s + 0.75 * steady_s; // second crash
    const double hold = 0.15 * steady_s;        // degrade/dbslow window
    const double down = 0.10 * steady_s;        // crash outage

    std::ostringstream crash1, degrade, dbslow, crash2;
    crash1 << "crash@" << t1 << ":node=0,restart=" << down;
    degrade << "degrade@" << t2 << ":lat=3,drop=0.02,dur=" << hold;
    dbslow << "dbslow@" << t3 << ":mult=6,dur=" << hold;
    crash2 << "crash@" << t4 << ":node=1,restart=" << down
           << ";poolkill@" << t4 + 1.0 << ":node=0";

    std::vector<Level> ladder;
    ladder.push_back({"healthy", ""});
    ladder.push_back({"crash", crash1.str()});
    ladder.push_back({"+degrade", crash1.str() + ";" + degrade.str()});
    ladder.push_back({"+dbslow", crash1.str() + ";" + degrade.str() +
                                     ";" + dbslow.str()});
    ladder.push_back({"+crash2", crash1.str() + ";" + degrade.str() +
                                     ";" + dbslow.str() + ";" +
                                     crash2.str()});
    return ladder;
}

/** Everything one intensity level contributes to the report. */
struct FaultPoint
{
    double jops = 0.0;
    double p99_web = 0.0;
    bool sla = true;
    std::uint64_t errors = 0;
    std::uint64_t retries = 0;
    double error_rate = 0.0;
    double min_availability = 1.0;
    double degraded_pct = 0.0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t ejections = 0;
    std::uint64_t events = 0;
};

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    bench::PerfReport perf("abl_faults");
    bench::ClusterRun harness(args, {.nodes = 4,
                                     .min_nodes = 2,
                                     .ramp_s = 20.0,
                                     .steady_s = 60.0});

    const std::size_t nodes = harness.base.nodes;

    std::vector<Level> ladder =
        buildLadder(harness.ramp_s, harness.steady_s);
    if (args.has("faults")) {
        // A custom spec replaces the ladder (healthy baseline kept
        // so the dip is still reported relative to no chaos).
        ladder.resize(1);
        ladder.push_back({"custom", args.getString("faults", "")});
    }

    std::vector<FaultSchedule> schedules;
    schedules.reserve(ladder.size());
    for (const Level &level : ladder)
        schedules.push_back(FaultSchedule::parse(level.spec));
    // The last level holds every event the ladder injects.
    schedules.back().checkTargets(nodes, 1, 0);

    harness.base.db_cpus =
        static_cast<std::size_t>(args.getInt("db_cpus", 4, 1));
    harness.base.db_pool.max_connections =
        static_cast<std::size_t>(args.getInt("db_pool", 12, 1));
    args.rejectUnread();

    bench::banner(std::cout,
                  "Ablation: Fault Injection (robustness)",
                  "Escalating scripted chaos against a resilient "
                  "cluster: throughput dips stay bounded, errors are "
                  "counted not hung, and ejected nodes rejoin after "
                  "restart.");

    const auto points =
        par::runSweep(ladder.size(), harness.jobs, [&](std::size_t i) {
            ClusterConfig config = harness.base;
            config.faults = schedules[i];
            const auto cluster = harness.run(config);

            const ResponseTracker &t = cluster->tracker();
            FaultPoint p;
            p.jops = cluster->jops(harness.steady_from, harness.steady_to);
            for (const SlaVerdict &v : t.verdicts()) {
                if (isWebRequest(v.type))
                    p.p99_web = std::max(p.p99_web, v.p99_seconds);
                p.sla = p.sla && v.pass;
            }
            p.errors = t.errorCount();
            p.retries = t.retryCount();
            p.error_rate = t.errorRate();
            for (std::size_t n = 0; n < nodes; ++n) {
                p.min_availability = std::min(
                    p.min_availability,
                    t.availability(static_cast<std::uint32_t>(n),
                                   harness.steady_to));
            }
            p.degraded_pct =
                t.degradedSummary(harness.steady_to).degraded_fraction * 100.0;
            if (const CircuitBreaker *breaker = cluster->breaker())
                p.breaker_opens = breaker->stats().opens;
            p.ejections = cluster->loadBalancer().ejections();
            p.events = cluster->queue().executed();
            return p;
        });

    TextTable table({"level", "faults", "JOPS", "vs healthy",
                     "p99 web (s)", "errors", "err rate", "retries",
                     "min avail", "degraded", "SLA"});
    const double healthy_jops = points.empty() ? 0.0 : points[0].jops;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const FaultPoint &p = points[i];
        perf.addEvents(p.events);
        const double vs = healthy_jops > 0.0
                              ? p.jops / healthy_jops * 100.0
                              : 0.0;
        table.addRow(
            {ladder[i].name,
             TextTable::num(static_cast<double>(schedules[i].size()),
                            0),
             TextTable::num(p.jops, 1), TextTable::pct(vs),
             TextTable::num(p.p99_web, 2),
             TextTable::num(static_cast<double>(p.errors), 0),
             TextTable::pct(p.error_rate * 100.0),
             TextTable::num(static_cast<double>(p.retries), 0),
             TextTable::pct(p.min_availability * 100.0),
             TextTable::pct(p.degraded_pct), p.sla ? "PASS" : "FAIL"});
    }
    table.print(std::cout);

    std::cout << "\nSchedules:\n";
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        std::cout << "  " << ladder[i].name << ": "
                  << (schedules[i].empty() ? "(none)"
                                           : schedules[i].summary())
                  << "\n";
    }

    const FaultPoint &worst = points.back();
    std::cout << "\nShape: each added fault costs bounded throughput "
                 "(health checks eject crashed nodes, the breaker "
                 "fails fast when the DB tier stalls, and retries "
                 "absorb transient loss); ejected nodes rejoin after "
                 "restart, so availability stays close to the "
                 "scripted outage fraction.\n"
              << "Worst level: "
              << TextTable::num(worst.jops, 1) << " JOPS ("
              << TextTable::pct(healthy_jops > 0.0
                                    ? worst.jops / healthy_jops * 100.0
                                    : 0.0)
              << " of healthy), breaker opens: " << worst.breaker_opens
              << ", LB ejections: " << worst.ejections << "\n";

    perf.note("healthy_jops", healthy_jops);
    perf.note("worst_jops", worst.jops);
    perf.note("worst_error_rate", worst.error_rate);
    perf.note("worst_min_availability", worst.min_availability);
    perf.write(harness.jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
