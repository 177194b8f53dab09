/**
 * Tool session: drive the SUT and read it through the same lenses the
 * paper's authors used on AIX -- a verbosegc log, hpmstat group
 * reports, and a tprof profile -- in one sitting.
 *
 *   ./tool_session [ir=40] [steady=90]
 */

#include <exception>
#include <iostream>

#include "core/experiment.h"
#include "hpm/report.h"
#include "jvm/verbose_gc_format.h"
#include "sim/config.h"
#include "tprof/report.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    ExperimentConfig config;
    config.sut.injection_rate = args.getDouble("ir", 40.0);
    config.ramp_up_s = 45.0;
    config.steady_s = args.getDouble("steady", 90.0);
    config.window.sample_insts = 100000;
    args.rejectUnread();

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    std::cout << "===== verbosegc ==========================\n";
    printVerboseGcLog(std::cout, experiment.sut().collector().log(),
                      config.sut.gc.heap.size_bytes,
                      config.totalTime());

    std::cout << "\n===== hpmstat (per-event run report) =====\n";
    printRunReport(std::cout, *result.hpm);

    std::cout << "\n===== hpmstat (one group, last window) ===\n";
    if (!result.windows.empty()) {
        CounterSet counters;
        result.windows.back().stats.exportTo(counters);
        const HpmFacility facility(power4Groups());
        printGroupReport(std::cout, facility, 3 /* xlat */,
                         counters.snapshot());
    }

    std::cout << "\n===== tprof ==============================\n";
    printComponentBreakdown(std::cout, *result.profiler);
    std::cout << "\n";
    printFlatProfile(std::cout, *result.profiler, 8);
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
