/**
 * @file
 * Golden-digest test for the window simulator.
 *
 * Runs a short experiment -- the exact loop the fig/tab benches drive
 * -- and folds every steady-state window's counters and the end-of-run
 * memory counters into a digest, pinned with window jobs overlapping
 * the DES and inline, so any moved window-simulator bit fails here.
 * The memory walk with and without its fast path both matched the pin;
 * the plain walk is now the differential reference in tests/mem and
 * tests/xlat.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/experiment.h"
#include "stats/digest.h"

namespace jasim {
namespace {

/**
 * goldenDigest() of digestConfig(), taken before window jobs could run
 * on helper threads. Change it only with a deliberate change to what
 * the window simulator computes.
 */
constexpr std::uint64_t pinnedDigest = 0x0326e9d2c8971a7full;

ExperimentConfig
digestConfig(bool overlap)
{
    ExperimentConfig config;
    config.sut.injection_rate = 6.0;
    config.sut.driver.ramp_up_s = 5.0;
    config.ramp_up_s = 8.0;
    config.steady_s = 20.0;
    config.ramp_down_s = 2.0;
    config.window_s = 1.0;
    config.window.sample_insts = 20000;
    config.windows_per_group = 2;
    config.seed = 11;
    config.window.overlap = overlap;
    return config;
}

void
mixDouble(Digest &digest, double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    digest.mix(bits);
}

void
mixStats(Digest &digest, const ExecStats &stats)
{
    mixDouble(digest, stats.cycles);
    mixDouble(digest, stats.dispatched);
    digest.mix(stats.completed);
    mixDouble(digest, stats.completion_cycles);
    digest.mix(stats.loads);
    digest.mix(stats.stores);
    digest.mix(stats.l1d_load_miss);
    digest.mix(stats.l1d_store_miss);
    for (const std::uint64_t v : stats.loads_from)
        digest.mix(v);
    digest.mix(stats.l1i_miss);
    for (const std::uint64_t v : stats.ifetch_from)
        digest.mix(v);
    digest.mix(stats.ierat_miss);
    digest.mix(stats.derat_miss);
    digest.mix(stats.itlb_miss);
    digest.mix(stats.dtlb_miss);
    digest.mix(stats.branches);
    digest.mix(stats.cond_branches);
    digest.mix(stats.cond_mispredict);
    digest.mix(stats.indirect_branches);
    digest.mix(stats.returns);
    digest.mix(stats.return_mispredict);
    digest.mix(stats.target_mispredict);
    digest.mix(stats.btb_miss);
    digest.mix(stats.larx);
    digest.mix(stats.stcx);
    digest.mix(stats.stcx_fail);
    digest.mix(stats.syncs);
    mixDouble(digest, stats.srq_sync_cycles);
    digest.mix(stats.kernel_sleeps);
    digest.mix(stats.l1d_prefetch);
    digest.mix(stats.l2_prefetch);
    digest.mix(stats.stream_alloc);
}

std::uint64_t
goldenDigest(const ExperimentResult &result)
{
    Digest digest;
    digest.mix(result.windows.size());
    for (const WindowRecord &window : result.windows) {
        digest.mix(static_cast<std::uint64_t>(window.end));
        mixStats(digest, window.stats);
        mixDouble(digest, window.mix.busy_us);
        mixDouble(digest, window.mix.idle_fraction);
        digest.mix(static_cast<std::uint64_t>(window.mix.gc_active));
        for (const double f : window.mix.fraction)
            mixDouble(digest, f);
    }
    mixStats(digest, result.total);
    digest.mix(result.mem_hot.snapshot());
    mixDouble(digest, result.jops);
    mixDouble(digest, result.cpu_utilization);
    return digest.value();
}

TEST(FastpathGoldenDigestTest, PinnedWithWindowJobsOverlappedAndInline)
{
    for (const bool overlap : {true, false}) {
        Experiment experiment(digestConfig(overlap));
        const ExperimentResult result = experiment.run();
        EXPECT_EQ(goldenDigest(result), pinnedDigest)
            << "overlap " << overlap;
        // The fast path engaged, so the pin covers it.
        EXPECT_GT(result.mru_data_hits + result.mru_inst_hits, 0u);
        EXPECT_GT(result.snoop_filter_skips, 0u);
    }
}

} // namespace
} // namespace jasim
