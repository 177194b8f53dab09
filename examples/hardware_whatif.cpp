/**
 * Hardware what-if analysis: use the microarchitectural model to ask
 * the questions the paper poses to hardware architects -- what would
 * a bigger L2, a faster L3 or a better indirect-branch predictor buy?
 *
 *   ./hardware_whatif [steady=120]
 */

#include <exception>
#include <iostream>

#include "core/experiment.h"
#include "core/figures.h"
#include "sim/config.h"
#include "stats/render.h"

using namespace jasim;

namespace {

double
cpiWith(double steady_s,
        const std::function<void(ExperimentConfig &)> &tweak)
{
    ExperimentConfig config;
    config.ramp_up_s = 45.0;
    config.steady_s = steady_s;
    config.window.sample_insts = 100000;
    tweak(config);
    Experiment experiment(config);
    const ExperimentResult r = experiment.run();
    return windowMean(r.windows, WindowMetric::Cpi);
}

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    const double steady_s = args.getDouble("steady", 120.0, 0.0, 1e9);
    args.rejectUnread();
    std::cout << "Hardware what-if sweep (CPI at IR40)\n\n";

    const double baseline = cpiWith(steady_s, [](ExperimentConfig &) {});

    TextTable table({"change", "CPI", "vs baseline"});
    auto row = [&](const char *name, double cpi) {
        table.addRow({name, TextTable::num(cpi, 2),
                      TextTable::pct((cpi / baseline - 1.0) * 100.0)});
    };
    row("baseline (study system)", baseline);
    row("2x L2 (3 MB)", cpiWith(steady_s, [](ExperimentConfig &c) {
            c.window.hierarchy.l2 = CacheGeometry{3072 * 1024, 128, 12};
        }));
    row("L3 at half latency", cpiWith(steady_s, [](ExperimentConfig &c) {
            c.window.hierarchy.lat_l3 = 50;
        }));
    row("4x count cache (indirect targets)",
        cpiWith(steady_s, [](ExperimentConfig &c) {
            c.window.core.branch.count_cache_entries = 16384;
        }));
    row("large pages for code too",
        cpiWith(steady_s, [](ExperimentConfig &c) {
            c.window.code_large_pages = true;
        }));
    row("no data prefetcher", cpiWith(steady_s, [](ExperimentConfig &c) {
            c.window.hierarchy.prefetch_enabled = false;
        }));
    row("devirtualize 70% of call sites",
        cpiWith(steady_s, [](ExperimentConfig &c) {
            c.window.devirtualized_fraction = 0.7;
        }));
    row("instruction-friendly L2 replacement",
        cpiWith(steady_s, [](ExperimentConfig &c) {
            c.window.hierarchy.l2_instruction_friendly = true;
        }));
    table.print(std::cout);

    std::cout << "\nReading: no single change is dramatic (the paper: "
                 "'difficult to identify any major components ... that "
                 "need drastic improvement'), but capacity and "
                 "translation changes all help a little.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A run that cannot go on (a heap too small for its live set, say)
    // ends with its message and exit code 2, not in std::terminate.
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 2;
    }
}
