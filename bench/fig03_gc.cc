/** Reproduces Figure 3: garbage collection statistics. */

#include "bench_common.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig config =
        bench::configFromArgs(argc, argv, 600.0, bench::kNoWindows);
    bench::banner(std::cout, "Figure 3: Garbage Collection Statistics",
                  "Paper: GC every 25-28 s, 300-400 ms pauses, ~1.3% of "
                  "runtime; mark ~80% / sweep ~20%; no compaction; "
                  "used heap creeps up via dark matter.");

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    TimeSeries used("heap used after GC (MB)");
    TimeSeries live("live bytes (MB)");
    TimeSeries pause("GC pause (ms)");
    for (const auto &e : result.gc_events) {
        used.append(e.start, static_cast<double>(e.used_after) / 1e6);
        live.append(e.start, static_cast<double>(e.live_bytes) / 1e6);
        pause.append(e.start, e.pauseMs());
    }
    renderChart(std::cout, {used, pause},
                ChartOptions{72, 14, true, "per-collection series"});

    const GcSummary &gc = result.gc;
    TextTable table({"metric", "measured", "paper"});
    table.addRow({"time between GC (s)",
                  TextTable::num(gc.mean_interval_s, 1) + "  [" +
                      TextTable::num(gc.min_interval_s, 1) + ", " +
                      TextTable::num(gc.max_interval_s, 1) + "]",
                  "25-28"});
    table.addRow({"GC pause (ms)", TextTable::num(gc.mean_pause_ms, 0),
                  "300-400"});
    table.addRow({"% of runtime",
                  TextTable::pct(gc.gc_time_fraction * 100.0, 2),
                  "~1.3%"});
    table.addRow({"mark share of pause",
                  TextTable::pct(gc.mark_fraction * 100.0), ">80%"});
    table.addRow({"sweep share of pause",
                  TextTable::pct(gc.sweep_fraction * 100.0), "~20%"});
    table.addRow({"compactions", std::to_string(gc.compactions), "0"});
    table.addRow({"used-heap growth (MB/min)",
                  TextTable::num(gc.live_growth_bytes_per_min / 1e6, 2),
                  "~1"});
    if (!result.gc_events.empty()) {
        const auto &last = result.gc_events.back();
        table.addRow({"live at end (MB)",
                      TextTable::num(last.live_bytes / 1e6, 0),
                      "<200"});
        table.addRow({"dark matter at end (MB)",
                      TextTable::num(last.dark_bytes / 1e6, 2), "small"});
    }
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
