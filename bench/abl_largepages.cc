/** Ablation A1 (Section 4.2.2): large pages for heap and for code. */

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    bench::refuse(args, "abl_largepages", "point",
                  {"heap_large", "code_large"});
    const ExperimentConfig base = bench::configFromArgs(args, 180.0);
    args.rejectUnread();
    bench::banner(std::cout, "Ablation: Large Pages (4.2.2)",
                  "Paper: 16 MB pages for the heap raise DTLB hit "
                  "rates ~25% and ITLB ~15% (unified TLB relief); "
                  "placing JIT/executable code in large pages would "
                  "cut translation misses further.");
    bench::PerfReport perf("abl_largepages");

    struct Case
    {
        const char *name;
        bool heap;
        bool code;
    };
    const Case cases[] = {{"4K everywhere", false, false},
                          {"16M heap (study system)", true, false},
                          {"16M heap + code", true, true}};
    const std::size_t points = std::size(cases);

    const auto runs =
        par::runSweep(points, base.jobs, [&](std::size_t i) {
            ExperimentConfig config = base;
            config.window.heap_large_pages = cases[i].heap;
            config.window.code_large_pages = cases[i].code;
            Experiment experiment(config);
            return experiment.run();
        });

    TextTable table({"config", "DERAT/inst", "DTLB/inst", "ITLB/inst",
                     "IERAT/inst", "CPI"});
    double dtlb_small = 0.0, dtlb_large = 0.0;
    double itlb_small = 0.0, itlb_large = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Case &c = cases[i];
        const ExperimentResult &r = runs[i];
        perf.addEvents(r.events_executed);
        const double derat =
            windowMean(r.windows, WindowMetric::DeratMissPerInst);
        const double dtlb =
            windowMean(r.windows, WindowMetric::DtlbMissPerInst);
        const double itlb =
            windowMean(r.windows, WindowMetric::ItlbMissPerInst);
        const double ierat =
            windowMean(r.windows, WindowMetric::IeratMissPerInst);
        if (!c.heap) {
            dtlb_small = dtlb;
            itlb_small = itlb;
        } else if (!c.code) {
            dtlb_large = dtlb;
            itlb_large = itlb;
        }
        auto fmt = [](double v) {
            return TextTable::num(v * 1000.0, 3) + "e-3";
        };
        table.addRow({c.name, fmt(derat), fmt(dtlb), fmt(itlb),
                      fmt(ierat),
                      TextTable::num(
                          windowMean(r.windows, WindowMetric::Cpi),
                          2)});
    }
    table.print(std::cout);

    std::cout << "\nlarge heap pages cut DTLB misses by "
              << TextTable::pct(
                     dtlb_small > 0
                         ? (1.0 - dtlb_large / dtlb_small) * 100.0
                         : 0.0)
              << " and ITLB misses by "
              << TextTable::pct(
                     itlb_small > 0
                         ? (1.0 - itlb_large / itlb_small) * 100.0
                         : 0.0)
              << "  (paper: DTLB hits +25%, ITLB hits +15%)\n";
    perf.write(base.jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
