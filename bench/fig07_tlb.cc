/** Reproduces Figure 7: ERAT/TLB miss frequency (Bezier-smoothed). */

#include "bench_common.h"

#include "stats/smoothing.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig config =
        bench::configFromArgs(argc, argv, 300.0);
    bench::banner(std::cout, "Figure 7: TLB Miss Frequency",
                  "Paper: DERAT/IERAT well above DTLB/ITLB (large "
                  "pages relieve the TLB, not the ERAT); during GC, "
                  "orders of magnitude fewer TLB misses but DERAT "
                  "peaks; the plot is Bezier-smoothed.");

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    auto smooth = [&](WindowMetric m, const char *name) {
        return bezierSmooth(
            windowSeries(result.windows, m, name), 72);
    };
    renderChart(std::cout,
                {smooth(WindowMetric::DeratMissPerInst, "DERAT/inst"),
                 smooth(WindowMetric::IeratMissPerInst, "IERAT/inst"),
                 smooth(WindowMetric::DtlbMissPerInst, "DTLB/inst"),
                 smooth(WindowMetric::ItlbMissPerInst, "ITLB/inst")},
                ChartOptions{72, 16, true,
                             "misses per instruction (smoothed)"});

    TextTable table({"structure", "all windows", "GC windows",
                     "paper shape"});
    auto row = [&](const char *name, WindowMetric m,
                   const char *paper) {
        auto fmt = [](double v) {
            return TextTable::num(v * 1000.0, 3) + "e-3";
        };
        table.addRow(
            {name, fmt(windowMean(result.windows, m)),
             fmt(windowMeanIf(result.windows, m, true)), paper});
    };
    row("DERAT miss/inst", WindowMetric::DeratMissPerInst,
        "highest; peaks in GC");
    row("IERAT miss/inst", WindowMetric::IeratMissPerInst,
        "below DERAT");
    row("DTLB miss/inst", WindowMetric::DtlbMissPerInst,
        "low (heap in 16MB pages); dips in GC");
    row("ITLB miss/inst", WindowMetric::ItlbMissPerInst,
        "lowest; dips in GC");
    table.print(std::cout);

    const double derat =
        windowMean(result.windows, WindowMetric::DeratMissPerInst);
    const double dtlb =
        windowMean(result.windows, WindowMetric::DtlbMissPerInst);
    std::cout << "\nTLB satisfies "
              << TextTable::pct((1.0 - dtlb / derat) * 100.0)
              << " of DERAT misses (paper: ~75%)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
