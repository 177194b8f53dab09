#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/experiment.h"
#include "core/figures.h"

namespace jasim {
namespace {

ExperimentConfig
quickConfig()
{
    ExperimentConfig config;
    config.sut.injection_rate = 6.0;
    config.sut.driver.ramp_up_s = 5.0;
    config.ramp_up_s = 10.0;
    config.steady_s = 30.0;
    config.ramp_down_s = 2.0;
    config.window_s = 1.0;
    config.window.sample_insts = 20000;
    config.windows_per_group = 2;
    config.seed = 5;
    return config;
}

TEST(ExperimentTest, RejectsLengthsThatHangOrWrap)
{
    // Each would hang run() (a zero window, a window of 2^64 - 1
    // instructions) or convert a time outside SimTime's range. The
    // constructor throws before run() can start.
    const auto rejects = [](auto edit) {
        ExperimentConfig config = quickConfig();
        edit(config);
        EXPECT_THROW(Experiment{config}, std::invalid_argument);
    };
    rejects([](ExperimentConfig &c) { c.window_s = 0.0; });
    rejects([](ExperimentConfig &c) { c.window_s = -1.0; });
    rejects([](ExperimentConfig &c) { c.window_s = 5e-7; });
    rejects([](ExperimentConfig &c) { c.window_s = NAN; });
    rejects([](ExperimentConfig &c) { c.window.sample_insts = 0; });
    rejects([](ExperimentConfig &c) { c.ramp_up_s = -1.0; });
    rejects([](ExperimentConfig &c) { c.steady_s = -1.0; });
    rejects([](ExperimentConfig &c) { c.ramp_down_s = -0.5; });
    rejects([](ExperimentConfig &c) { c.steady_s = INFINITY; });
    rejects([](ExperimentConfig &c) { c.ramp_up_s = 1e300; });
    rejects([](ExperimentConfig &c) { c.window_s = 2e9; });
}

TEST(ExperimentTest, RejectsRatesAndGroupsThatHangOrCrash)
{
    // ir=inf never ended its first window; ir=nan and ir=-5 ended in
    // std::bad_alloc; ir=0 ran a simulation with no load.
    for (const double ir : {0.0, -5.0, double(NAN), double(INFINITY)}) {
        ExperimentConfig config = quickConfig();
        config.sut.injection_rate = ir;
        EXPECT_THROW(config.validate(), std::invalid_argument) << ir;
    }
    ExperimentConfig config = quickConfig();
    config.windows_per_group = 0; // divided by zero choosing a group
    EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ExperimentTest, AcceptsZeroRampDownAndOneMicrosecondWindows)
{
    ExperimentConfig config = quickConfig();
    config.ramp_down_s = 0.0;
    config.window_s = 1e-6;
    EXPECT_NO_THROW(config.validate());
}

TEST(ExperimentTest, StartsNoWindowHelpersWithMicroOff)
{
    ExperimentConfig config = quickConfig();
    config.micro_enabled = false;
    EXPECT_FALSE(Experiment(config).windowSimulator().config().overlap);
    config.micro_enabled = true;
    EXPECT_TRUE(Experiment(config).windowSimulator().config().overlap);
}

TEST(ExperimentTest, ProducesSteadyStateWindows)
{
    Experiment experiment(quickConfig());
    const ExperimentResult result = experiment.run();
    EXPECT_NEAR(static_cast<double>(result.windows.size()), 30.0, 2.0);
    for (const auto &w : result.windows) {
        EXPECT_GT(w.stats.completed, 0u);
        EXPECT_GT(w.end, result.steady_from);
        EXPECT_LE(w.end, result.steady_to);
    }
}

TEST(ExperimentTest, SummariesPopulated)
{
    Experiment experiment(quickConfig());
    const ExperimentResult result = experiment.run();
    EXPECT_GT(result.jops, 0.0);
    EXPECT_GT(result.cpu_utilization, 0.0);
    EXPECT_LE(result.cpu_utilization, 1.0);
    EXPECT_NE(result.hpm, nullptr);
    EXPECT_NE(result.profiler, nullptr);
    EXPECT_GT(result.total.completed, 0u);
    for (const auto &series : result.throughput)
        EXPECT_GT(series.size(), 0u);
}

TEST(ExperimentTest, MicroDisabledSkipsWindows)
{
    ExperimentConfig config = quickConfig();
    config.micro_enabled = false;
    Experiment experiment(config);
    const ExperimentResult result = experiment.run();
    EXPECT_TRUE(result.windows.empty());
    EXPECT_GT(result.jops, 0.0); // system level still runs
}

TEST(ExperimentTest, ProfilerSeesComponentsAndMethods)
{
    Experiment experiment(quickConfig());
    const ExperimentResult result = experiment.run();
    const auto shares = result.profiler->componentShares();
    EXPECT_GT(shares[static_cast<std::size_t>(Component::WasJit)],
              0.1);
    EXPECT_GT(result.profiler->flatProfile().total_ticks, 0u);
}

TEST(ExperimentTest, WindowSeriesExtraction)
{
    Experiment experiment(quickConfig());
    const ExperimentResult result = experiment.run();
    const TimeSeries cpi =
        windowSeries(result.windows, WindowMetric::Cpi, "CPI");
    EXPECT_EQ(cpi.size(), result.windows.size());
    EXPECT_GT(cpi.mean(), 0.5);
    const double loads =
        windowMean(result.windows, WindowMetric::LoadsPerInst);
    EXPECT_GT(loads, 0.1);
    EXPECT_LT(loads, 0.6);
}

TEST(ExperimentTest, DeterministicForSeed)
{
    Experiment a(quickConfig());
    Experiment b(quickConfig());
    const ExperimentResult ra = a.run();
    const ExperimentResult rb = b.run();
    EXPECT_EQ(ra.windows.size(), rb.windows.size());
    EXPECT_DOUBLE_EQ(ra.jops, rb.jops);
    EXPECT_EQ(ra.total.completed, rb.total.completed);
}

TEST(ExperimentTest, LoadSourceSharesSumToOne)
{
    Experiment experiment(quickConfig());
    const ExperimentResult result = experiment.run();
    const auto shares = loadSourceShares(result.total);
    double sum = 0.0;
    for (const double s : shares)
        sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // The study system has no second chip per MCM: no L2.5 traffic.
    EXPECT_DOUBLE_EQ(
        shares[static_cast<std::size_t>(DataSource::L2_5)], 0.0);
}

} // namespace
} // namespace jasim
