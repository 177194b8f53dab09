/** Reproduces Figure 10: statistical correlation of events with CPI. */

#include "bench_common.h"

#include "core/correlation_analysis.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    // Collect each counter group in one long contiguous stretch, as
    // hpmstat did; short rotations alias with the ~26 s GC cycle.
    const ExperimentConfig config = bench::configFromArgs(
        argc, argv, 560.0, {.wpg = 80, .min_wpg = 40});
    bench::banner(std::cout, "Figure 10: CPI Statistical Correlation",
                  "Paper: strong positive r for prefetch streams, "
                  "translation misses, conditional mispredictions, "
                  "SYNC, I-fetch from L2/L3; negative for cycles-with-"
                  "completion and L1I fetches; weak for L1D load/store "
                  "misses and the speculation rate.");
    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    const auto bars =
        computeCpiCorrelations(*result.hpm, figure10Events());
    std::vector<std::pair<std::string, double>> chart;
    for (const auto &bar : bars)
        chart.emplace_back(bar.label, bar.r);
    renderBarChart(std::cout, chart, -1.0, 1.0, 48);

    const AuxCorrelations aux = computeAuxCorrelations(*result.hpm);
    std::cout << "\nProse correlations (same-group pairs only, as the "
                 "HPM hardware allows):\n";
    TextTable table({"pair", "measured r", "paper"});
    table.addRow({"speculation rate vs L1D load miss",
                  TextTable::num(aux.spec_rate_vs_l1d_miss, 2), "0.1"});
    table.addRow({"branches vs target mispredictions",
                  TextTable::num(aux.branches_vs_target_mispredict, 2),
                  "-0.07"});
    table.addRow({"cond mispredictions vs branches",
                  TextTable::num(aux.cond_mispredict_vs_branches, 2),
                  "0.43"});
    table.print(std::cout);

    std::cout << "\nwindows sampled: " << result.hpm->windowsSeen()
              << " (one 8-counter group active at a time, rotated "
                 "every "
              << config.windows_per_group << " windows)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
