/** Reproduces Figure 5: CPI, speculation rate and L1 misses/cycle. */

#include "bench_common.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig config =
        bench::configFromArgs(argc, argv, 300.0);
    bench::banner(std::cout,
                  "Figure 5: CPI, Speculation Rate, L1 Miss Rate",
                  "Paper: CPI ~3 on the loaded system (idle ~0.7); "
                  "~2.3 instructions dispatched per completion; no "
                  "strong CPI change during GC.");

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    const TimeSeries cpi =
        windowSeries(result.windows, WindowMetric::Cpi, "CPI");
    const TimeSeries spec = windowSeries(
        result.windows, WindowMetric::SpeculationRate,
        "dispatched/completed");
    TimeSeries l1 = windowSeries(result.windows,
                                 WindowMetric::L1MissesPerCycle,
                                 "L1D misses/cycle x100");
    TimeSeries l1_scaled(l1.name());
    for (std::size_t i = 0; i < l1.size(); ++i)
        l1_scaled.append(l1.time(i), l1.value(i) * 100.0);

    renderChart(std::cout, {cpi, spec, l1_scaled},
                ChartOptions{72, 16, true, "steady-state windows"});

    TextTable table({"metric", "measured", "paper"});
    table.addRow({"CPI (mean)",
                  TextTable::num(windowMean(result.windows,
                                            WindowMetric::Cpi),
                                 2),
                  "~3"});
    table.addRow({"idle CPI (penalty model base)",
                  TextTable::num(
                      ExperimentConfig{}.window.core.penalty.base_cpi,
                      2),
                  "~0.7"});
    table.addRow(
        {"speculation rate",
         TextTable::num(windowMean(result.windows,
                                   WindowMetric::SpeculationRate),
                        2),
         "~2.3 (5 dispatched : >2 retired)"});
    table.addRow({"CPI in GC windows",
                  TextTable::num(windowMeanIf(result.windows,
                                              WindowMetric::Cpi, true),
                                 2),
                  "no strong GC correlation"});
    table.addRow({"CPI in non-GC windows",
                  TextTable::num(windowMeanIf(result.windows,
                                              WindowMetric::Cpi, false),
                                 2),
                  "-"});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
