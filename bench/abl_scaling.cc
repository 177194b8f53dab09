/** Extension (paper Section 7, future work): scaling the number of
 *  processor cores. */

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    bench::refuse(args, "abl_scaling", "topology", {"ir"});
    const ExperimentConfig base = bench::configFromArgs(args, 180.0);
    args.rejectUnread();
    bench::banner(std::cout, "Ablation: Core-Count Scaling (future work)",
                  "Paper Section 7 asks how the workload scales with "
                  "processor count; the model answers with matched "
                  "SUT + hierarchy topologies.");
    bench::PerfReport perf("abl_scaling");

    struct Topo
    {
        const char *name;
        std::size_t cores;
        std::size_t per_chip;
        double ir;
    };
    // IR scaled with cores so each point runs near the same load.
    const Topo topologies[] = {
        {"1 core / 1 chip", 1, 1, 10.0},
        {"2 cores / 1 chip", 2, 2, 20.0},
        {"4 cores / 2 chips (study)", 4, 2, 40.0},
    };
    const std::size_t points = std::size(topologies);

    const auto runs =
        par::runSweep(points, base.jobs, [&](std::size_t i) {
            const Topo &topo = topologies[i];
            ExperimentConfig config = base;
            config.sut.cpus = topo.cores;
            config.sut.injection_rate = topo.ir;
            config.window.hierarchy.cores = topo.cores;
            config.window.hierarchy.cores_per_chip = topo.per_chip;
            Experiment experiment(config);
            return experiment.run();
        });

    TextTable table({"topology", "IR", "JOPS", "util", "CPI",
                     "L2.75 share", "SLA"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Topo &topo = topologies[i];
        const ExperimentResult &r = runs[i];
        perf.addEvents(r.events_executed);
        const auto shares = loadSourceShares(r.total);
        const double remote =
            shares[static_cast<std::size_t>(
                DataSource::L2_75Shared)] +
            shares[static_cast<std::size_t>(
                DataSource::L2_75Modified)];
        table.addRow(
            {topo.name, TextTable::num(topo.ir, 0),
             TextTable::num(r.jops, 1),
             TextTable::pct(r.cpu_utilization * 100.0),
             TextTable::num(windowMean(r.windows, WindowMetric::Cpi),
                            2),
             TextTable::pct(remote * 100.0, 2),
             r.sla_pass ? "PASS" : "FAIL"});
    }
    table.print(std::cout);
    std::cout << "\nShape: throughput scales near-linearly with cores "
                 "at matched load; cross-MCM traffic only appears "
                 "once a second chip exists.\n";
    perf.write(base.jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
