/** Extensions: the two software/hardware optimizations the paper
 *  proposes — devirtualizing indirect call sites (Section 4.2.1) and
 *  an instruction-friendly L2 replacement policy (Section 4.3). */

#include <vector>

#include "bench_common.h"

#include "hpm/events.h"
#include "par/sweep.h"

using namespace jasim;

namespace {

struct OptResult
{
    double cpi = 0.0;
    double mispredicts_per_kinst = 0.0; //!< indirect-target mispredicts
    double ifetch_beyond_l2 = 0.0;      //!< I-fetches from L3/memory
    std::uint64_t events = 0;           //!< kernel events executed
};

OptResult
runWith(ExperimentConfig config)
{
    Experiment experiment(config);
    const ExperimentResult r = experiment.run();
    OptResult out;
    out.cpi = windowMean(r.windows, WindowMetric::Cpi);
    out.events = r.events_executed;
    const ExecStats &t = r.total;
    out.mispredicts_per_kinst =
        static_cast<double>(t.target_mispredict) /
        static_cast<double>(t.completed) * 1000.0;
    double deep = 0.0, total = 0.0;
    for (std::size_t i = 0; i < t.ifetch_from.size(); ++i) {
        total += static_cast<double>(t.ifetch_from[i]);
        const auto src = static_cast<DataSource>(i);
        if (src == DataSource::L3 || src == DataSource::L3_5 ||
            src == DataSource::Memory)
            deep += static_cast<double>(t.ifetch_from[i]);
    }
    out.ifetch_beyond_l2 = total > 0 ? deep / total : 0.0;
    return out;
}

int
run(int argc, char **argv)
{
    const ExperimentConfig base =
        bench::configFromArgs(argc, argv, 180.0);
    bench::banner(std::cout,
                  "Ablation: Proposed Optimizations (4.2.1 / 4.3)",
                  "Paper proposals: convert indirect call sites to "
                  "relative branches (devirtualization); give "
                  "instruction entries a lower eviction probability "
                  "in the L2.");
    bench::PerfReport perf("abl_optimizations");

    ExperimentConfig devirt = base;
    devirt.window.devirtualized_fraction = 0.7;

    ExperimentConfig inst_friendly = base;
    inst_friendly.window.hierarchy.l2_instruction_friendly = true;

    ExperimentConfig both = base;
    both.window.devirtualized_fraction = 0.7;
    both.window.hierarchy.l2_instruction_friendly = true;

    const std::vector<std::pair<const char *, ExperimentConfig>>
        points{{"baseline", base},
               {"devirtualize 70% of sites", devirt},
               {"instruction-friendly L2", inst_friendly},
               {"both", both}};

    const auto runs =
        par::runSweep(points.size(), base.jobs, [&](std::size_t i) {
            return runWith(points[i].second);
        });

    TextTable table({"configuration", "CPI",
                     "target mispred / 1k inst", "I-fetch from L3/mem"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const OptResult &r = runs[i];
        perf.addEvents(r.events);
        table.addRow({points[i].first, TextTable::num(r.cpi, 2),
                      TextTable::num(r.mispredicts_per_kinst, 2),
                      TextTable::pct(r.ifetch_beyond_l2 * 100.0, 3)});
    }

    table.print(std::cout);
    std::cout << "\nReading: devirtualization removes indirect-target "
                 "mispredictions roughly in proportion to the "
                 "converted sites (the Section 4.2.1 proposal). The "
                 "instruction-friendly L2 is a NEGATIVE result in this "
                 "model: protecting instruction lines evicts hot data "
                 "instead, and the simulated mix is more data- than "
                 "instruction-bound at L2 -- the paper posed the "
                 "policy as a question ('may be interesting to "
                 "evaluate'), and the model answers it for this "
                 "workload shape.\n";
    perf.write(base.jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
