/** Ablation A2 (Section 4.3): L2 capacity and L3 latency sweeps. */

#include <vector>

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig base =
        bench::configFromArgs(argc, argv, 180.0);
    bench::banner(std::cout, "Ablation: L2 Capacity / L3 Latency (4.3)",
                  "Paper: the working set exceeds the L2; a bigger L2 "
                  "or a lower-latency L3 would improve performance.");
    bench::PerfReport perf("abl_l2size");

    const std::vector<std::uint64_t> l2_kb{768, 1536, 3072, 6144};
    const auto l2_runs =
        par::runSweep(l2_kb.size(), base.jobs, [&](std::size_t i) {
            ExperimentConfig config = base;
            config.window.hierarchy.l2 =
                CacheGeometry{l2_kb[i] * 1024, 128, 12};
            Experiment experiment(config);
            return experiment.run();
        });

    TextTable l2_table(
        {"L2 size", "CPI", "L1D misses from L2", "from L3", "from mem"});
    for (std::size_t i = 0; i < l2_runs.size(); ++i) {
        const ExperimentResult &r = l2_runs[i];
        perf.addEvents(r.events_executed);
        const auto shares = loadSourceShares(r.total);
        l2_table.addRow(
            {std::to_string(l2_kb[i]) + " KB",
             TextTable::num(windowMean(r.windows, WindowMetric::Cpi),
                            2),
             TextTable::pct(shares[static_cast<std::size_t>(
                                DataSource::L2)] *
                            100.0),
             TextTable::pct(shares[static_cast<std::size_t>(
                                DataSource::L3)] *
                            100.0),
             TextTable::pct(shares[static_cast<std::size_t>(
                                DataSource::Memory)] *
                            100.0)});
    }
    l2_table.print(std::cout);

    std::cout << "\n";
    const std::vector<Cycles> l3_lat{60, 100, 160, 240};
    const auto l3_runs =
        par::runSweep(l3_lat.size(), base.jobs, [&](std::size_t i) {
            ExperimentConfig config = base;
            config.window.hierarchy.lat_l3 = l3_lat[i];
            Experiment experiment(config);
            return experiment.run();
        });

    TextTable l3_table({"L3 latency (cycles)", "CPI"});
    for (std::size_t i = 0; i < l3_runs.size(); ++i) {
        const ExperimentResult &r = l3_runs[i];
        perf.addEvents(r.events_executed);
        l3_table.addRow(
            {std::to_string(l3_lat[i]),
             TextTable::num(windowMean(r.windows, WindowMetric::Cpi),
                            2)});
    }
    l3_table.print(std::cout);
    std::cout << "\nShape: CPI falls monotonically with a bigger L2 "
                 "and a faster L3.\n";
    perf.write(base.jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
