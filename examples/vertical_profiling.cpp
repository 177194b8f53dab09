/**
 * Vertical profiling: correlate hardware counters with CPI across one
 * run, honouring the HPM's one-group-at-a-time restriction -- the
 * paper's Section 4.3 methodology as a reusable analysis.
 *
 *   ./vertical_profiling [steady=240]
 */

#include <exception>
#include <iostream>

#include "core/correlation_analysis.h"
#include "core/experiment.h"
#include "sim/config.h"
#include "stats/render.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    ExperimentConfig config;
    config.ramp_up_s = 60.0;
    config.steady_s = args.getDouble("steady", 240.0);
    args.rejectUnread();
    config.window.sample_insts = 120000;
    config.windows_per_group = 6;

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    std::cout << "Correlation of per-window event rates with CPI\n"
              << "(one 8-counter group active at a time; events can "
                 "only be cross-correlated within their group)\n\n";

    auto bars = computeCpiCorrelations(*result.hpm, figure10Events());
    std::sort(bars.begin(), bars.end(),
              [](const CorrelationBar &a, const CorrelationBar &b) {
                  return a.r > b.r;
              });
    std::vector<std::pair<std::string, double>> chart;
    for (const auto &bar : bars)
        chart.emplace_back(bar.label, bar.r);
    renderBarChart(std::cout, chart, -1.0, 1.0, 48);

    std::cout << "\nCross-group correlation attempts are refused, as "
                 "on the real HPM:\n";
    const auto refused = result.hpm->crossCorrelation(
        "PM_DERAT_MISS", "PM_BR_MPRED_CR");
    std::cout << "  r(DERAT miss, cond mispredict) = "
              << (refused ? TextTable::num(*refused, 2)
                          : std::string(
                                "(unavailable: different groups)"))
              << "\n";
    const auto allowed = result.hpm->crossCorrelation(
        "PM_BR_Cond", "PM_BR_MPRED_CR");
    if (allowed) {
        std::cout << "  r(cond branches, cond mispredict) = "
                  << TextTable::num(*allowed, 2)
                  << "  (same group: allowed)\n";
    }
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
