/** Reproduces Figure 9: where L1D load misses are satisfied. */

#include "bench_common.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const ExperimentConfig config =
        bench::configFromArgs(argc, argv, 300.0);
    bench::banner(std::cout,
                  "Figure 9: Data Loaded From (after an L1 miss)",
                  "Paper: L2 ~75%; remainder mostly L3 and memory; a "
                  "little L2.75-shared and L3.5; almost no "
                  "L2.75-modified (hence little benefit from thread "
                  "co-scheduling). No L2.5: one live L2 per MCM.");

    Experiment experiment(config);
    const ExperimentResult result = experiment.run();

    const auto shares = loadSourceShares(result.total);
    std::vector<std::pair<std::string, double>> bars;
    const char *paper[] = {"-",      "~75%", "0 (one L2/MCM)",
                           "small",  "~0",   "~15%",
                           "small",  "rest"};
    TextTable table({"source", "share of L1D load misses", "paper"});
    for (std::size_t i = 1; i < shares.size(); ++i) {
        const auto source = static_cast<DataSource>(i);
        table.addRow({dataSourceName(source),
                      TextTable::pct(shares[i] * 100.0), paper[i]});
        bars.emplace_back(dataSourceName(source), shares[i]);
    }
    table.print(std::cout);
    std::cout << "\n";
    renderBarChart(std::cout, bars, 0.0, 1.0, 50);

    const double modified =
        shares[static_cast<std::size_t>(DataSource::L2_75Modified)];
    std::cout << "\nCo-scheduling check: modified cache-to-cache "
                 "transfers are "
              << TextTable::pct(modified * 100.0, 2)
              << " of L1 misses (paper: insignificant)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
