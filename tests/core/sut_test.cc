#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/sut.h"

namespace jasim {
namespace {

std::unique_ptr<SystemUnderTest>
makeSut(SutConfig config = SutConfig{}, std::uint64_t seed = 11)
{
    auto profiles = std::make_shared<const WorkloadProfiles>(seed);
    auto registry = std::make_shared<const MethodRegistry>(
        profiles->layout(Component::WasJit).count(), seed);
    return std::make_unique<SystemUnderTest>(config, profiles,
                                             registry, seed);
}

TEST(SutTest, ProcessesRequestsEndToEnd)
{
    SutConfig config;
    config.injection_rate = 5.0;
    config.driver.ramp_up_s = 1.0;
    auto sut = makeSut(config);
    sut->start(secs(30));
    sut->advanceTo(secs(30));
    EXPECT_GT(sut->tracker().totalCompleted(), 50u);
    EXPECT_GT(sut->scheduler().totalBusy(), 0u);
}

TEST(SutTest, CompletionsTrackArrivalsWhenUnderloaded)
{
    SutConfig config;
    config.injection_rate = 5.0;
    config.driver.ramp_up_s = 1.0;
    auto sut = makeSut(config);
    sut->start(secs(60));
    sut->advanceTo(secs(70)); // drain
    // ~8 ops/s x 60 s = 480 expected completions.
    EXPECT_NEAR(static_cast<double>(sut->tracker().totalCompleted()),
                480.0, 100.0);
}

TEST(SutTest, AllComponentsAccrueBusyTime)
{
    SutConfig config;
    config.injection_rate = 5.0;
    config.driver.ramp_up_s = 1.0;
    auto sut = makeSut(config);
    sut->start(secs(30));
    sut->advanceTo(secs(30));
    for (const Component c :
         {Component::WasJit, Component::WasOther, Component::Web,
          Component::Db2, Component::Kernel})
        EXPECT_GT(sut->scheduler().busyBy(c), 0u) << componentName(c);
}

TEST(SutTest, GcTriggersUnderSustainedLoad)
{
    SutConfig config;
    config.injection_rate = 5.0;
    config.driver.ramp_up_s = 1.0;
    config.gc.heap.size_bytes = 96ull * 1024 * 1024;
    config.gc.baseline_bytes = 24ull * 1024 * 1024;
    auto sut = makeSut(config);
    sut->start(secs(60));
    sut->advanceTo(secs(60));
    EXPECT_GE(sut->collector().log().events().size(), 1u);
    EXPECT_GT(sut->scheduler().busyBy(Component::GcMark), 0u);
}

TEST(SutTest, JitWarmsUpUnderLoad)
{
    SutConfig config;
    config.injection_rate = 5.0;
    config.driver.ramp_up_s = 1.0;
    auto sut = makeSut(config);
    sut->start(secs(30));
    sut->advanceTo(secs(30));
    EXPECT_GT(sut->jit().methodsAtOrAbove(CompileTier::Warm), 10u);
    EXPECT_GT(sut->jit().totalCompileUs(), 0.0);
}

TEST(SutTest, VmstatRowsAddUp)
{
    SutConfig config;
    config.injection_rate = 5.0;
    auto sut = makeSut(config);
    sut->start(secs(10));
    auto prev = sut->scheduler().busySnapshot();
    sut->advanceTo(secs(10));
    auto cur = sut->scheduler().busySnapshot();
    std::array<SimTime, componentCount> delta{};
    for (std::size_t c = 0; c < componentCount; ++c)
        delta[c] = cur[c] - prev[c];
    const VmStatRow row =
        sut->recordVmstatWindow(0, secs(10), delta, 0);
    EXPECT_NEAR(row.user_pct + row.system_pct + row.idle_pct +
                    row.iowait_pct,
                100.0, 1e-6);
    EXPECT_GT(row.user_pct, row.system_pct); // mostly user-level code
}

TEST(SutTest, AllocScaleSpeedsUpGcCycle)
{
    SutConfig slow, fast;
    slow.injection_rate = fast.injection_rate = 5.0;
    slow.driver.ramp_up_s = fast.driver.ramp_up_s = 1.0;
    slow.gc.heap.size_bytes = fast.gc.heap.size_bytes = 96ull << 20;
    slow.gc.baseline_bytes = fast.gc.baseline_bytes = 24ull << 20;
    fast.alloc_scale = 3.0;
    auto slow_sut = makeSut(slow);
    auto fast_sut = makeSut(fast);
    slow_sut->start(secs(60));
    fast_sut->start(secs(60));
    slow_sut->advanceTo(secs(60));
    fast_sut->advanceTo(secs(60));
    EXPECT_GT(fast_sut->collector().log().events().size(),
              slow_sut->collector().log().events().size());
}

TEST(SutTest, SpinningDisksCauseIoWait)
{
    SutConfig config;
    config.injection_rate = 8.0;
    config.driver.ramp_up_s = 1.0;
    config.disk.kind = DiskConfig::Kind::Spinning;
    config.disk.spindles = 2;
    auto sut = makeSut(config);
    sut->start(secs(30));
    sut->advanceTo(secs(30));
    EXPECT_GT(sut->diskBlockedUs(), 0u);
    EXPECT_GT(sut->disk().requestCount(), 0u);
}

TEST(SutTest, RamDiskKeepsBlockingNegligible)
{
    SutConfig ram, spin;
    ram.injection_rate = spin.injection_rate = 8.0;
    ram.driver.ramp_up_s = spin.driver.ramp_up_s = 1.0;
    spin.disk.kind = DiskConfig::Kind::Spinning;
    spin.disk.spindles = 2;
    auto ram_sut = makeSut(ram);
    auto spin_sut = makeSut(spin);
    ram_sut->start(secs(30));
    spin_sut->start(secs(30));
    ram_sut->advanceTo(secs(30));
    spin_sut->advanceTo(secs(30));
    EXPECT_LT(ram_sut->diskBlockedUs() * 10, spin_sut->diskBlockedUs());
}

TEST(SutTest, TooSmallHeapFailsLoudly)
{
    // One MB above the startup baseline: the live set soon fills the
    // heap, and an allocation fails right after a collection. The run
    // must stop with an error naming the heap's size.
    SutConfig config;
    config.gc.heap.size_bytes = 121ull << 20;
    config.driver.ramp_up_s = 5.0;
    auto sut = makeSut(config);
    sut->start(secs(15));
    try {
        sut->advanceTo(secs(15));
        ADD_FAILURE() << "no error";
    } catch (const std::runtime_error &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("(heap_mb=121) is too small"),
                  std::string::npos)
            << message;
    }
}

} // namespace
} // namespace jasim
