#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/window_simulator.h"

namespace jasim {
namespace {

WindowMix
uniformMix(double busy_us = 1e6)
{
    WindowMix mix;
    for (std::size_t c = 0; c < componentCount; ++c)
        mix.fraction[c] = 1.0 / componentCount;
    mix.busy_us = busy_us;
    mix.idle_fraction = 0.0;
    return mix;
}

class WindowSimulatorTest : public ::testing::Test
{
  protected:
    WindowSimulatorTest()
        : profiles_(std::make_shared<const WorkloadProfiles>(3))
    {
        config_.sample_insts = 30000;
    }

    std::shared_ptr<const WorkloadProfiles> profiles_;
    WindowSimConfig config_;
};

TEST_F(WindowSimulatorTest, BudgetApproximatelyHonored)
{
    WindowSimulator sim(config_, profiles_, 1);
    const ExecStats stats = sim.simulateWindow(uniformMix(), 200 << 20);
    EXPECT_NEAR(static_cast<double>(stats.completed),
                static_cast<double>(config_.sample_insts), 2000.0);
}

TEST_F(WindowSimulatorTest, IdleWindowProducesNothing)
{
    WindowSimulator sim(config_, profiles_, 1);
    WindowMix idle;
    const ExecStats stats = sim.simulateWindow(idle, 200 << 20);
    EXPECT_EQ(stats.completed, 0u);
}

TEST_F(WindowSimulatorTest, RatesInPlausibleBands)
{
    WindowSimulator sim(config_, profiles_, 1);
    ExecStats total;
    for (int w = 0; w < 6; ++w)
        total.merge(sim.simulateWindow(uniformMix(), 200 << 20));
    const double insts = static_cast<double>(total.completed);
    // Memory instructions: roughly one per two instructions (paper).
    const double mem_ops =
        static_cast<double>(total.loads + total.stores) / insts;
    EXPECT_GT(mem_ops, 0.30);
    EXPECT_LT(mem_ops, 0.65);
    EXPECT_GT(total.cpi(), 1.0);
    EXPECT_LT(total.cpi(), 30.0);
    EXPECT_GT(total.speculationRate(), 1.5);
    EXPECT_LT(total.speculationRate(), 4.0);
}

TEST_F(WindowSimulatorTest, ScaleBlowsUpToNominalCycles)
{
    WindowSimulator sim(config_, profiles_, 1);
    const ExecStats stats = sim.simulateWindow(uniformMix(2e6), 0);
    const double scale = sim.scaleFor(stats, 2e6);
    EXPECT_NEAR(scale * stats.cycles,
                2e6 * config_.freq_ghz * 1e3, 1.0);
}

TEST_F(WindowSimulatorTest, JitSamplesAccumulate)
{
    WindowSimulator sim(config_, profiles_, 1);
    sim.simulateWindow(uniformMix(), 200 << 20);
    const auto samples = sim.jitMethodSamples();
    EXPECT_EQ(samples.size(),
              profiles_->layout(Component::WasJit).count());
    std::uint64_t total = 0;
    for (const auto s : samples)
        total += s;
    EXPECT_GT(total, 0u);
}

TEST_F(WindowSimulatorTest, GcWindowsChangeCharacter)
{
    WindowSimulator sim(config_, profiles_, 1);
    // Warm with app-only windows.
    WindowMix app;
    app.fraction[static_cast<std::size_t>(Component::WasJit)] = 1.0;
    app.busy_us = 1e6;
    for (int w = 0; w < 4; ++w)
        sim.simulateWindow(app, 200 << 20);
    const ExecStats app_stats = sim.simulateWindow(app, 200 << 20);

    WindowMix gc;
    gc.fraction[static_cast<std::size_t>(Component::GcMark)] = 1.0;
    gc.busy_us = 1e6;
    gc.gc_active = true;
    for (int w = 0; w < 2; ++w)
        sim.simulateWindow(gc, 200 << 20);
    const ExecStats gc_stats = sim.simulateWindow(gc, 200 << 20);

    // Paper: during GC, 2-3 orders of magnitude fewer TLB misses
    // (compare against the 4 KB-paged DB2 component, which carries
    // the workload's DTLB pressure) and better-predicted branches.
    WindowMix db;
    db.fraction[static_cast<std::size_t>(Component::Db2)] = 1.0;
    db.busy_us = 1e6;
    for (int w = 0; w < 2; ++w)
        sim.simulateWindow(db, 200 << 20);
    const ExecStats db_stats = sim.simulateWindow(db, 200 << 20);
    const double db_dtlb = static_cast<double>(db_stats.dtlb_miss) /
        static_cast<double>(db_stats.completed);
    const double gc_dtlb = static_cast<double>(gc_stats.dtlb_miss) /
        static_cast<double>(gc_stats.completed);
    EXPECT_LT(gc_dtlb, db_dtlb / 5.0 + 1e-9);

    const double app_mispredict =
        static_cast<double>(app_stats.cond_mispredict) /
        static_cast<double>(app_stats.cond_branches);
    const double gc_mispredict =
        static_cast<double>(gc_stats.cond_mispredict) /
        static_cast<double>(gc_stats.cond_branches);
    EXPECT_LT(gc_mispredict, app_mispredict);
}

/** Every ExecStats field equal, bit for bit. */
void
expectSameStats(const ExecStats &a, const ExecStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dispatched, b.dispatched);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.completion_cycles, b.completion_cycles);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.l1d_load_miss, b.l1d_load_miss);
    EXPECT_EQ(a.l1d_store_miss, b.l1d_store_miss);
    EXPECT_EQ(a.loads_from, b.loads_from);
    EXPECT_EQ(a.l1i_miss, b.l1i_miss);
    EXPECT_EQ(a.ifetch_from, b.ifetch_from);
    EXPECT_EQ(a.ierat_miss, b.ierat_miss);
    EXPECT_EQ(a.derat_miss, b.derat_miss);
    EXPECT_EQ(a.itlb_miss, b.itlb_miss);
    EXPECT_EQ(a.dtlb_miss, b.dtlb_miss);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.cond_branches, b.cond_branches);
    EXPECT_EQ(a.cond_mispredict, b.cond_mispredict);
    EXPECT_EQ(a.indirect_branches, b.indirect_branches);
    EXPECT_EQ(a.returns, b.returns);
    EXPECT_EQ(a.return_mispredict, b.return_mispredict);
    EXPECT_EQ(a.target_mispredict, b.target_mispredict);
    EXPECT_EQ(a.btb_miss, b.btb_miss);
    EXPECT_EQ(a.larx, b.larx);
    EXPECT_EQ(a.stcx, b.stcx);
    EXPECT_EQ(a.stcx_fail, b.stcx_fail);
    EXPECT_EQ(a.syncs, b.syncs);
    EXPECT_EQ(a.srq_sync_cycles, b.srq_sync_cycles);
    EXPECT_EQ(a.kernel_sleeps, b.kernel_sleeps);
    EXPECT_EQ(a.l1d_prefetch, b.l1d_prefetch);
    EXPECT_EQ(a.l2_prefetch, b.l2_prefetch);
    EXPECT_EQ(a.stream_alloc, b.stream_alloc);
}

TEST_F(WindowSimulatorTest, OverlapBitIdenticalOnOneTwoAndFourCores)
{
    // abl_scaling's three topologies, through app, GC-active and
    // mixed windows (so the mark generators' live bytes change).
    struct Topology
    {
        std::size_t cores;
        std::size_t per_chip;
    };
    WindowMix app;
    app.fraction[static_cast<std::size_t>(Component::WasJit)] = 0.7;
    app.fraction[static_cast<std::size_t>(Component::Db2)] = 0.3;
    app.busy_us = 1e6;
    WindowMix gc = uniformMix();
    gc.fraction[static_cast<std::size_t>(Component::GcMark)] += 0.3;
    gc.gc_active = true;
    const WindowMix mixes[] = {app, gc, uniformMix(), gc, app};
    const std::uint64_t live[] = {200 << 20, 150 << 20, 0, 300 << 20,
                                  200 << 20};

    for (const Topology topo : {Topology{1, 1}, Topology{2, 2},
                                Topology{4, 2}}) {
        SCOPED_TRACE(testing::Message() << topo.cores << " cores");
        WindowSimConfig config = config_;
        config.sample_insts = 20000;
        config.hierarchy.cores = topo.cores;
        config.hierarchy.cores_per_chip = topo.per_chip;
        config.overlap = true;
        WindowSimulator on(config, profiles_, 7);
        config.overlap = false;
        WindowSimulator off(config, profiles_, 7);
        for (std::size_t w = 0; w < std::size(mixes); ++w) {
            SCOPED_TRACE(testing::Message() << "window " << w);
            const ExecStats a = on.simulateWindow(mixes[w], live[w]);
            const ExecStats b = off.simulateWindow(mixes[w], live[w]);
            EXPECT_GT(a.completed, 0u);
            expectSameStats(a, b);
        }
        EXPECT_EQ(on.jitMethodSamples(), off.jitMethodSamples());
    }
}

TEST_F(WindowSimulatorTest, DestroyedWithAWindowInFlightJoinsCleanly)
{
    // Destroy each simulator while its helpers are still waking for
    // the job (even rounds) or are somewhere inside it (odd rounds), so
    // the job and the stop signal meet in every order. Before the
    // destructor aborted the job, one helper could run its half alone
    // and block on the ring for good.
    config_.overlap = true;
    for (int round = 0; round < 300; ++round) {
        WindowSimulator sim(config_, profiles_, 1);
        sim.submit(uniformMix(), 200 << 20);
        if (round % 2 != 0)
            std::this_thread::sleep_for(std::chrono::microseconds(round));
    }
}

TEST_F(WindowSimulatorTest, EachSubmitNeedsOneCollect)
{
    for (const bool overlap : {true, false}) {
        config_.overlap = overlap;
        WindowSimulator sim(config_, profiles_, 1);
        EXPECT_THROW(sim.collect(), std::logic_error);
        sim.submit(uniformMix(), 200 << 20);
        EXPECT_THROW(sim.submit(uniformMix(), 200 << 20),
                     std::logic_error);
        EXPECT_GT(sim.collect().completed, 0u);
        EXPECT_THROW(sim.collect(), std::logic_error);
    }
}

TEST_F(WindowSimulatorTest, DeterministicForSeed)
{
    WindowSimulator a(config_, profiles_, 9);
    WindowSimulator b(config_, profiles_, 9);
    const ExecStats sa = a.simulateWindow(uniformMix(), 100 << 20);
    const ExecStats sb = b.simulateWindow(uniformMix(), 100 << 20);
    EXPECT_EQ(sa.completed, sb.completed);
    EXPECT_EQ(sa.l1d_load_miss, sb.l1d_load_miss);
    EXPECT_DOUBLE_EQ(sa.cycles, sb.cycles);
}

} // namespace
} // namespace jasim
