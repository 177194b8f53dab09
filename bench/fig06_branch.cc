/** Reproduces Figure 6: branch prediction over time. */

#include "bench_common.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig config =
        bench::configFromArgs(argc, argv, 300.0);
    bench::banner(std::cout, "Figure 6: Branch Prediction",
                  "Paper: ~6% conditional mispredictions, ~5% indirect "
                  "target mispredictions; GC periods show more "
                  "branches and fewer mispredictions.");

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    auto pct_series = [&](WindowMetric m, const char *name) {
        TimeSeries raw = windowSeries(result.windows, m, name);
        TimeSeries scaled(name);
        for (std::size_t i = 0; i < raw.size(); ++i)
            scaled.append(raw.time(i), raw.value(i) * 100.0);
        return scaled;
    };
    renderChart(
        std::cout,
        {pct_series(WindowMetric::CondMispredictRate,
                    "conditional mispredict %"),
         pct_series(WindowMetric::TargetMispredictRate,
                    "indirect target mispredict %"),
         pct_series(WindowMetric::BranchesPerInst, "branches/inst %")},
        ChartOptions{72, 14, true, "steady-state windows"});

    TextTable table({"metric", "all", "GC windows", "non-GC", "paper"});
    auto row = [&](const char *name, WindowMetric m,
                   const char *paper) {
        table.addRow(
            {name,
             TextTable::pct(windowMean(result.windows, m) * 100.0),
             TextTable::pct(windowMeanIf(result.windows, m, true) *
                            100.0),
             TextTable::pct(windowMeanIf(result.windows, m, false) *
                            100.0),
             paper});
    };
    row("conditional mispredict", WindowMetric::CondMispredictRate,
        "~6%; lower in GC");
    row("indirect target mispredict",
        WindowMetric::TargetMispredictRate, "~5%");
    row("branches per instruction", WindowMetric::BranchesPerInst,
        "higher in GC");
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
