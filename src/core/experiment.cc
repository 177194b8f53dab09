#include "core/experiment.h"

#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "hpm/counter_group.h"

namespace jasim {

void
ExperimentConfig::validate() const
{
    const auto require = [](bool ok, const char *key, auto value,
                            const char *rule) {
        if (ok)
            return;
        std::ostringstream message;
        message << key << "=" << value << ": " << rule;
        throw std::invalid_argument(message.str());
    };
    // Up to 1e9 s each, so their sum in microseconds fits SimTime.
    const auto length = [&](const char *key, double value) {
        require(value >= 0.0 && value <= 1e9, key, value,
                "a run length must be 0 to 1e9 seconds");
    };
    require(std::isfinite(sut.injection_rate) && sut.injection_rate > 0.0,
            "ir", sut.injection_rate,
            "the injection rate must be finite and above 0");
    length("ramp", ramp_up_s);
    length("steady", steady_s);
    length("rampdown", ramp_down_s);
    require(window_s >= 1e-6 && window_s <= 1e9, "window", window_s,
            "the HPM window must be 1 us to 1e9 seconds");
    require(window.sample_insts >= 1, "insts", window.sample_insts,
            "a window must sample at least 1 instruction");
    require(windows_per_group >= 1, "wpg", windows_per_group,
            "a counter group must stay for at least 1 window");
}

Experiment::Experiment(const ExperimentConfig &config) : config_(config)
{
    config_.validate();
    profiles_ =
        std::make_shared<const WorkloadProfiles>(config.seed ^ 0x9a0full);
    registry_ = std::make_shared<const MethodRegistry>(
        profiles_->layout(Component::WasJit).count(),
        config.seed ^ 0x3e9ull);
    sut_ = std::make_unique<SystemUnderTest>(config.sut, profiles_,
                                             registry_, config.seed);
    // No window job runs with the micro simulation off, so start no
    // helper threads for one.
    WindowSimConfig window = config.window;
    window.overlap = window.overlap && config.micro_enabled;
    window_sim_ = std::make_unique<WindowSimulator>(
        window, profiles_, config.seed ^ 0x51ull);
}

ExperimentResult
Experiment::run()
{
    ExperimentResult result;
    result.hpm = std::make_shared<HpmStat>(
        HpmFacility(power4Groups()), config_.windows_per_group);
    result.profiler = std::make_shared<Profiler>(registry_);

    const SimTime window = secs(config_.window_s);
    const SimTime steady_from = secs(config_.ramp_up_s);
    const SimTime steady_to =
        secs(config_.ramp_up_s + config_.steady_s);
    const SimTime total = config_.totalTime();
    result.steady_from = steady_from;
    result.steady_to = steady_to;

    sut_->start(total);

    auto prev_busy = sut_->scheduler().busySnapshot();
    SimTime prev_disk_blocked = sut_->diskBlockedUs();

    // A steady window's micro simulation is a job that runs while the
    // DES advances through the next window. It is collected, and
    // folded in window order, before the next job is submitted.
    bool in_flight = false;
    const auto fold = [&] {
        WindowRecord &record = result.windows.back();
        record.stats = window_sim_->collect();
        result.total.merge(record.stats);
        const double scale =
            window_sim_->scaleFor(record.stats, record.mix.busy_us);
        CounterSet counters;
        record.stats.exportTo(counters, scale);
        result.hpm->recordWindow(record.end, counters.snapshot());
        in_flight = false;
    };

    for (SimTime t = 0; t < total; t += window) {
        const SimTime window_end = std::min(t + window, total);
        sut_->advanceTo(window_end);
        if (in_flight)
            fold();

        const auto busy = sut_->scheduler().busySnapshot();
        std::array<SimTime, componentCount> busy_delta{};
        for (std::size_t c = 0; c < componentCount; ++c)
            busy_delta[c] = busy[c] - prev_busy[c];
        const SimTime disk_blocked = sut_->diskBlockedUs();
        const SimTime disk_delta = disk_blocked - prev_disk_blocked;

        const VmStatRow vm =
            sut_->recordVmstatWindow(t, window_end, busy_delta,
                                     disk_delta);

        const WindowMix mix = computeMix(prev_busy, busy,
                                         window_end - t,
                                         sut_->config().cpus);
        prev_busy = busy;
        prev_disk_blocked = disk_blocked;

        const bool in_steady =
            window_end > steady_from && window_end <= steady_to;
        if (in_steady) {
            for (std::size_t c = 0; c < componentCount; ++c) {
                result.profiler->addComponentTime(
                    static_cast<Component>(c), busy_delta[c]);
            }
            const SimTime capacity =
                (window_end - t) * sut_->config().cpus;
            SimTime busy_total = 0;
            for (const SimTime b : busy_delta)
                busy_total += b;
            if (capacity > busy_total)
                result.profiler->addIdleTime(capacity - busy_total);
        }

        if (config_.micro_enabled && in_steady && mix.busy_us > 0.0) {
            WindowRecord record;
            record.end = window_end;
            record.mix = mix;
            record.vm = vm;
            window_sim_->submit(mix, sut_->gcLiveBytes());
            result.windows.push_back(std::move(record));
            in_flight = true;
        }
    }
    if (in_flight)
        fold();

    // --- summaries ---------------------------------------------------
    if (config_.micro_enabled) {
        result.profiler->addMethodSamples(
            window_sim_->jitMethodSamples());
        const MemoryHierarchy &mem = window_sim_->hierarchy();
        mem.hotCounters().foldInto(result.mem_hot);
        result.mru_data_hits = mem.hotCounters().mruDataHits();
        result.mru_inst_hits = mem.hotCounters().mruInstHits();
        result.snoop_filter_skips = mem.snoopFilterSkips();
    }

    result.gc_events = sut_->collector().log().events();
    result.gc = sut_->collector().log().summarize(total);
    result.vm_mean = sut_->vmstat().mean(steady_from, steady_to);
    result.cpu_utilization =
        (result.vm_mean.user_pct + result.vm_mean.system_pct) / 100.0;
    result.jops = sut_->tracker().jops(steady_from, steady_to);
    result.jops_per_ir = result.jops / sut_->config().injection_rate;
    result.verdicts = sut_->tracker().verdicts();
    result.sla_pass = sut_->tracker().allPass();
    result.events_executed = sut_->queue().executed();
    for (std::size_t r = 0; r < requestTypeCount; ++r) {
        result.throughput[r] = sut_->tracker().throughputSeries(
            static_cast<RequestType>(r), total);
    }
    return result;
}

} // namespace jasim
