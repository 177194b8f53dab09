/** Reproduces Figure 8: L1 data cache performance over time. */

#include "bench_common.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig config =
        bench::configFromArgs(argc, argv, 300.0);
    bench::banner(std::cout, "Figure 8: L1 Data Cache Performance",
                  "Paper: ~1 miss per 12 loads, ~1 per 5 stores "
                  "(~14% overall); store miss rate drops during GC, "
                  "load miss rate roughly unchanged.");

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    auto pct_series = [&](WindowMetric m, const char *name) {
        TimeSeries raw = windowSeries(result.windows, m, name);
        TimeSeries scaled(name);
        for (std::size_t i = 0; i < raw.size(); ++i)
            scaled.append(raw.time(i), raw.value(i) * 100.0);
        return scaled;
    };
    renderChart(std::cout,
                {pct_series(WindowMetric::L1LoadMissRate,
                            "load miss %"),
                 pct_series(WindowMetric::L1StoreMissRate,
                            "store miss %")},
                ChartOptions{72, 14, true, "steady-state windows"});

    const double load =
        windowMean(result.windows, WindowMetric::L1LoadMissRate);
    const double store =
        windowMean(result.windows, WindowMetric::L1StoreMissRate);
    TextTable table({"metric", "all", "GC windows", "paper"});
    table.addRow({"load miss rate", TextTable::pct(load * 100.0),
                  TextTable::pct(
                      windowMeanIf(result.windows,
                                   WindowMetric::L1LoadMissRate, true) *
                      100.0),
                  "~8% (1/12); unchanged in GC"});
    table.addRow({"store miss rate", TextTable::pct(store * 100.0),
                  TextTable::pct(
                      windowMeanIf(result.windows,
                                   WindowMetric::L1StoreMissRate,
                                   true) *
                      100.0),
                  "~20% (1/5)"});
    const double loads =
        windowMean(result.windows, WindowMetric::LoadsPerInst);
    const double stores =
        windowMean(result.windows, WindowMetric::StoresPerInst);
    table.addRow({"overall miss rate",
                  TextTable::pct((load * loads + store * stores) /
                                 (loads + stores) * 100.0),
                  "", "~14%"});
    table.addRow({"retired insts per load",
                  TextTable::num(1.0 / loads, 1), "", "3.2"});
    table.addRow({"retired insts per store",
                  TextTable::num(1.0 / stores, 1), "", "4.5"});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
