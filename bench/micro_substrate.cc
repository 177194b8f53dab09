/** google-benchmark microbenchmarks of the substrate itself. */

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "branch/direction_predictor.h"
#include "jvm/gc.h"
#include "mem/cache.h"
#include "sim/rng.h"
#include "stats/correlation.h"
#include "synth/component_profiles.h"
#include "was/application.h"
#include "xlat/erat.h"

namespace {

using namespace jasim;

void
BM_RngDraw(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_RngDraw);

void
BM_CacheAccess(benchmark::State &state)
{
    SetAssocCache cache(CacheGeometry{32 * 1024, 128, 2},
                        ReplacementPolicy::FIFO);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 20), true));
}
BENCHMARK(BM_CacheAccess);

void
BM_EratAccess(benchmark::State &state)
{
    Erat erat(128, 4);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(erat.access(rng.below(1 << 24)));
}
BENCHMARK(BM_EratAccess);

void
BM_TournamentPredict(benchmark::State &state)
{
    TournamentPredictor predictor(16384, 11);
    Rng rng(4);
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            predictor.predictAndUpdate(pc, rng.chance(0.7)));
        pc = 0x1000 + (rng.below(512) << 2);
    }
}
BENCHMARK(BM_TournamentPredict);

void
BM_GcFillAndCollect(benchmark::State &state)
{
    // One collector cycle as every workload runs it: allocate jbench's
    // per-transaction sizes into the default 1 GB heap, one
    // transaction every 8 simulated ms, until it refuses; then
    // collect.
    GarbageCollector gc(GcConfig{}, 5);
    const std::uint64_t kib[] = {300, 550, 500, 700};
    SimTime now = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        while (gc.allocate(kib[i++ % 4] << 10, now))
            now += millis(8);
        benchmark::DoNotOptimize(gc.collect(now));
    }
}
BENCHMARK(BM_GcFillAndCollect)->Unit(benchmark::kMillisecond);

void
BM_DbPopulate(benchmark::State &state)
{
    // The DB tier's set-up: bulk-load jas2004's five tables at the
    // given IR (5,700 rows per IR unit: 171,000 at 30, and 684,000 at
    // 120, cluster_steady's shared DB) and build its secondary
    // indexes, then drop the database.
    const double ir = static_cast<double>(state.range(0));
    for (auto _ : state) {
        Jas2004Application app(DbConfig{}, ir, 42);
        benchmark::DoNotOptimize(app.database().table(0).rowCount());
    }
}
BENCHMARK(BM_DbPopulate)->Arg(30)->Arg(120)->Unit(benchmark::kMillisecond);

void
BM_DbTransactionMix(benchmark::State &state)
{
    // 20,000 transactions of the four request types, drawn uniformly,
    // against a database populated at IR 30 once.
    Jas2004Application app(DbConfig{}, 30.0, 42);
    Rng rng(11);
    for (auto _ : state) {
        for (int i = 0; i < 20000; ++i) {
            benchmark::DoNotOptimize(app.runTransaction(
                static_cast<RequestType>(rng.below(requestTypeCount))));
        }
    }
}
BENCHMARK(BM_DbTransactionMix)->Unit(benchmark::kMillisecond);

void
BM_Pearson(benchmark::State &state)
{
    Rng rng(6);
    std::vector<double> x, y;
    for (int i = 0; i < 600; ++i) {
        x.push_back(rng.uniform());
        y.push_back(rng.uniform());
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(pearson(x, y));
}
BENCHMARK(BM_Pearson);

void
BM_StreamGeneratorNext(benchmark::State &state)
{
    WorkloadProfiles profiles(7);
    auto gen = profiles.makeGenerator(Component::WasJit, 0, 8);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen->next());
}
BENCHMARK(BM_StreamGeneratorNext);

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, [](int argc, char **argv) {
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
    });
}
