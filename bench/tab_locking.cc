/** Reproduces Section 4.2.4: locking, contention and SYNC cost. */

#include "bench_common.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig config =
        bench::configFromArgs(argc, argv, 240.0);
    bench::banner(std::cout,
                  "Table: Locking, Contentions, SYNC Cost (4.2.4)",
                  "Paper: LARX every ~600 user instructions; ~3% of "
                  "instructions acquiring locks; little contention; "
                  "SYNC-in-SRQ <1% of user cycles but ~7% for "
                  "privileged code; GC has far fewer SYNCs.");

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();
    const ExecStats &t = result.total;
    const double insts = static_cast<double>(t.completed);

    TextTable table({"metric", "measured", "paper"});
    table.addRow({"instructions per LARX",
                  TextTable::num(insts / t.larx, 0), "~600"});
    // ~20 extra instructions per acquisition (the paper's estimate).
    table.addRow({"est. % of insts acquiring locks",
                  TextTable::pct(t.larx * 20.0 / insts * 100.0, 2),
                  "~3%"});
    table.addRow({"STCX failure rate",
                  TextTable::pct(static_cast<double>(t.stcx_fail) /
                                     t.stcx * 100.0,
                                 2),
                  "little contention"});
    table.addRow({"kernel sleeps per 1M insts",
                  TextTable::num(t.kernel_sleeps / insts * 1e6, 2),
                  "rare"});
    table.addRow({"SYNC-in-SRQ cycles (overall)",
                  TextTable::pct(t.srq_sync_cycles / t.cycles * 100.0,
                                 2),
                  "<1% user / ~7% kernel"});
    table.print(std::cout);

    // Per-character windows: kernel-heavy vs GC-heavy windows.
    double kernel_frac = 0.0, kernel_cycles = 0.0;
    double gc_sync = 0.0, gc_cycles = 0.0;
    for (const auto &w : result.windows) {
        const double kf = w.mix.fraction[static_cast<std::size_t>(
            Component::Kernel)];
        if (kf > 0.20) {
            kernel_frac += w.stats.srq_sync_cycles;
            kernel_cycles += w.stats.cycles;
        }
        if (w.mix.gc_active) {
            gc_sync += w.stats.srq_sync_cycles;
            gc_cycles += w.stats.cycles;
        }
    }
    std::cout << "\nkernel-heavy windows SYNC-in-SRQ: "
              << TextTable::pct(kernel_cycles > 0
                                    ? kernel_frac / kernel_cycles *
                                          100.0
                                    : 0.0,
                                2)
              << "   GC windows: "
              << TextTable::pct(
                     gc_cycles > 0 ? gc_sync / gc_cycles * 100.0 : 0.0,
                     2)
              << "  (paper: GC contains far fewer SYNCs)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
