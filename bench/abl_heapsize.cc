/** Ablation A3 (Section 4.1.1): heap size vs GC overhead. */

#include <vector>

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    bench::refuse(args, "abl_heapsize", "point", {"heap_mb"});
    const ExperimentConfig base =
        bench::configFromArgs(args, 240.0, bench::kNoWindows);
    args.rejectUnread();
    bench::banner(std::cout, "Ablation: Heap Size vs GC Overhead",
                  "Paper: with a server-sized 1 GB heap, GC is <2% of "
                  "CPU time; prior studies saw large GC overheads "
                  "because their heaps were small.");
    bench::PerfReport perf("abl_heapsize");

    const std::vector<std::uint64_t> heap_mb{320, 512, 1024, 2048};
    const auto runs =
        par::runSweep(heap_mb.size(), base.jobs, [&](std::size_t i) {
            ExperimentConfig config = base;
            config.sut.gc.heap.size_bytes = heap_mb[i] << 20;
            Experiment experiment(config);
            return experiment.run();
        });

    TextTable table({"heap", "GC interval (s)", "pause (ms)",
                     "GC % of runtime", "collections"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const ExperimentResult &r = runs[i];
        perf.addEvents(r.events_executed);
        table.addRow({std::to_string(heap_mb[i]) + " MB",
                      TextTable::num(r.gc.mean_interval_s, 1),
                      TextTable::num(r.gc.mean_pause_ms, 0),
                      TextTable::pct(r.gc.gc_time_fraction * 100.0, 2),
                      std::to_string(r.gc.collections)});
    }
    table.print(std::cout);
    std::cout << "\nShape: smaller heaps collect far more often; the "
                 "1 GB study configuration keeps GC near ~1%.\n";
    perf.write(base.jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
