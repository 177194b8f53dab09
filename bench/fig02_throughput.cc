/** Reproduces Figure 2: per-type transaction throughput over a run. */

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig config =
        bench::configFromArgs(argc, argv, 600.0, bench::kNoWindows);
    bench::banner(std::cout, "Figure 2: Benchmark Throughput",
                  "Paper: four request-type rates stabilize within ~5 "
                  "minutes and stay flat for the rest of the run.");
    bench::PerfReport perf("fig02_throughput");

    // A single point: routed through the sweep runner anyway so this
    // bench shares the --jobs plumbing and perf accounting with the
    // real sweeps (jobs > 1 simply has nothing extra to do).
    const auto runs = par::runSweep(1, config.jobs, [&](std::size_t) {
        Experiment experiment(config);
        return experiment.run();
    });
    const ExperimentResult &result = runs[0];
    perf.addEvents(result.events_executed);

    std::vector<TimeSeries> series(result.throughput.begin(),
                                   result.throughput.end());
    ChartOptions options;
    options.zero_based = true;
    options.y_label = "transactions / second";
    renderChart(std::cout, series, options);

    printRunSummary(std::cout, config, result);

    TextTable table({"request type", "steady tx/s", "ramp tx/s",
                     "steady/ramp"});
    for (std::size_t t = 0; t < requestTypeCount; ++t) {
        const TimeSeries steady = result.throughput[t].slice(
            result.steady_from, result.steady_to);
        const TimeSeries ramp =
            result.throughput[t].slice(0, result.steady_from);
        table.addRow({requestTypeName(static_cast<RequestType>(t)),
                      TextTable::num(steady.mean(), 2),
                      TextTable::num(ramp.mean(), 2),
                      TextTable::num(ramp.mean() > 0
                                         ? steady.mean() / ramp.mean()
                                         : 0.0,
                                     2)});
    }
    table.print(std::cout);
    std::cout << "\nShape check: steady-state rates flat (low stddev "
                 "relative to mean):\n";
    for (std::size_t t = 0; t < requestTypeCount; ++t) {
        const TimeSeries steady = result.throughput[t].slice(
            result.steady_from, result.steady_to);
        std::cout << "  " << requestTypeName(static_cast<RequestType>(t))
                  << ": cv = "
                  << TextTable::num(
                         steady.mean() > 0
                             ? steady.stddev() / steady.mean()
                             : 0.0,
                         3)
                  << "\n";
    }
    perf.write(config.jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
