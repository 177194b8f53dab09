/** Reproduces Figure 4: profile breakdown and the flat method profile. */

#include "bench_common.h"

#include "tprof/report.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    ExperimentConfig config = bench::configFromArgs(argc, argv, 300.0);
    bench::banner(std::cout,
                  "Figure 4: Profile Breakdown (% of runtime)",
                  "Paper: WAS ~2x (web + DB2); ~half of WAS time not "
                  "JITed; jas2004 code ~2% of cycles; hottest method "
                  "<1%; ~224 of 8500 methods cover 50% of JITed time.");

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    printComponentBreakdown(std::cout, *result.profiler);
    std::cout << "\n";
    printFlatProfile(std::cout, *result.profiler, 12);

    // jas2004 share of ALL cycles = its JITed-share x WasJit share.
    const auto shares = result.profiler->componentShares();
    const FlatProfileStats flat = result.profiler->flatProfile();
    const double jas_overall =
        flat.category_share[static_cast<std::size_t>(
            MethodCategory::Benchmark)] *
        shares[static_cast<std::size_t>(Component::WasJit)];
    std::cout << "\njas2004 benchmark code share of ALL cycles: "
              << TextTable::pct(jas_overall * 100.0, 1)
              << "  (paper: ~2%)\n";

    const double ws_ejs_lib =
        flat.category_share[static_cast<std::size_t>(
            MethodCategory::WebSphere)] +
        flat.category_share[static_cast<std::size_t>(
            MethodCategory::EnterpriseJavaServices)] +
        flat.category_share[static_cast<std::size_t>(
            MethodCategory::JavaLibrary)];
    std::cout << "WebSphere + EJS + Java Library share of JITed time: "
              << TextTable::pct(ws_ejs_lib * 100.0, 1)
              << "  (paper: ~76%)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
