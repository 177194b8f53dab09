/** Reproduces Section 4.2.3's memory-intensity numbers. */

#include "bench_common.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig config =
        bench::configFromArgs(argc, argv, 240.0);
    bench::banner(std::cout, "Table: Memory Intensity (4.2.3)",
                  "Paper: a load or store every ~2 retired "
                  "instructions; 3.2 insts/load; 4.5 insts/store; an "
                  "L1 access every ~6 cycles.");

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();
    const ExecStats &t = result.total;
    const double insts = static_cast<double>(t.completed);

    TextTable table({"metric", "measured", "paper"});
    table.addRow({"retired insts per load",
                  TextTable::num(insts / t.loads, 2), "3.2"});
    table.addRow({"retired insts per store",
                  TextTable::num(insts / t.stores, 2), "4.5"});
    table.addRow({"retired insts per memory op",
                  TextTable::num(insts / (t.loads + t.stores), 2),
                  "~2"});
    table.addRow({"cycles per L1D access",
                  TextTable::num(t.cycles / (t.loads + t.stores), 2),
                  "~6"});
    table.addRow({"loads + stores as % of insts",
                  TextTable::pct((t.loads + t.stores) / insts * 100.0),
                  "~50%"});
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
