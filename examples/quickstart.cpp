/**
 * Quickstart: run a short characterization experiment and print the
 * headline numbers, mirroring the paper's methodology end to end.
 *
 *   ./quickstart [ir=40] [steady=120] [seed=42]
 */

#include <exception>
#include <iostream>

#include "core/experiment.h"
#include "core/figures.h"
#include "sim/config.h"
#include "stats/render.h"
#include "tprof/report.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);

    // 1. Describe the system under test and the run.
    ExperimentConfig config;
    config.sut.injection_rate = args.getDouble("ir", 40.0);
    config.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    config.ramp_up_s = args.getDouble("ramp", 60.0);
    config.steady_s = args.getDouble("steady", 120.0);
    config.window.sample_insts = 100000;
    args.rejectUnread();

    // 2. Run it: discrete-event system level + sampled microarchitecture.
    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    // 3. Read the results like the paper does.
    std::cout << "jasim quickstart: a SPECjAppServer2004-like workload "
                 "on a POWER4-like SUT\n\n";
    printRunSummary(std::cout, config, result);

    std::cout << "\nGC: every "
              << TextTable::num(result.gc.mean_interval_s, 1)
              << " s, pauses "
              << TextTable::num(result.gc.mean_pause_ms, 0) << " ms ("
              << TextTable::pct(result.gc.mark_fraction * 100.0, 0)
              << " mark), "
              << TextTable::pct(result.gc.gc_time_fraction * 100.0, 2)
              << " of runtime\n";

    std::cout << "CPI "
              << TextTable::num(
                     windowMean(result.windows, WindowMetric::Cpi), 2)
              << ", speculation rate "
              << TextTable::num(
                     windowMean(result.windows,
                                WindowMetric::SpeculationRate),
                     2)
              << ", L1D load miss "
              << TextTable::pct(
                     windowMean(result.windows,
                                WindowMetric::L1LoadMissRate) *
                     100.0)
              << "\n\n";

    printComponentBreakdown(std::cout, *result.profiler);
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
