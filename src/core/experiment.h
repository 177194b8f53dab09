/**
 * @file
 * The experiment runner: couples the two simulation levels and
 * assembles everything a figure or table needs.
 *
 * Mirrors the paper's methodology: a ramp-up period is discarded,
 * steady-state windows are sampled with one HPM counter group active
 * at a time, tprof-style profiles accumulate over the steady state,
 * and the verbosegc log spans the whole run.
 */

#ifndef JASIM_CORE_EXPERIMENT_H
#define JASIM_CORE_EXPERIMENT_H

#include <memory>
#include <vector>

#include "core/mix_model.h"
#include "core/sut.h"
#include "core/window_simulator.h"
#include "hpm/hpmstat.h"
#include "stats/counter.h"
#include "tprof/profiler.h"

namespace jasim {

/** Full experiment parameters. */
struct ExperimentConfig
{
    SutConfig sut;
    WindowSimConfig window;

    bool micro_enabled = true;   //!< run the window simulator
    double ramp_up_s = 120.0;    //!< discarded warm-up
    double steady_s = 600.0;     //!< measured steady state
    double ramp_down_s = 30.0;
    double window_s = 1.0;       //!< HPM sample window length
    std::size_t windows_per_group = 12;
    std::uint64_t seed = 42;

    /**
     * Sweep worker count requested on the command line (`--jobs N`,
     * default 1 = serial). A single run ignores it; sweep-style
     * benches hand it to `jasim::par::runSweep` to run their points
     * concurrently.
     */
    std::size_t jobs = 1;

    SimTime totalTime() const
    {
        return secs(ramp_up_s + steady_s + ramp_down_s);
    }

    /**
     * Throw std::invalid_argument, naming the field as `key=value`,
     * when the injection rate is not finite and above 0, a ramp or
     * steady length is negative, NaN or over 1e9 s, the HPM window is
     * outside 1 us to 1e9 s, a window samples no instruction, or a
     * counter group stays for no window. A zero window never ends
     * run()'s loop, an infinite rate never ends its first window, no
     * window per group divides by zero, and a time outside SimTime's
     * range is undefined on conversion.
     */
    void validate() const;
};

/** One recorded steady-state window. */
struct WindowRecord
{
    SimTime end = 0;
    WindowMix mix;
    ExecStats stats; //!< raw (unscaled) micro statistics
    VmStatRow vm;
};

/** Everything a bench or example consumes after a run. */
struct ExperimentResult
{
    std::vector<WindowRecord> windows;

    GcSummary gc;
    std::vector<GcEvent> gc_events;

    VmStatRow vm_mean;           //!< steady-state mean
    double cpu_utilization = 0.0;
    double jops = 0.0;
    double jops_per_ir = 0.0;
    std::array<SlaVerdict, requestTypeCount> verdicts{};
    bool sla_pass = false;
    std::array<TimeSeries, requestTypeCount> throughput;

    ExecStats total;             //!< merged micro stats (steady state)

    /** Kernel events executed by the run (perf accounting). */
    std::uint64_t events_executed = 0;

    /**
     * Memory-path flat counters (PM_MEM_LD_SRC_* / PM_MEM_IF_SRC_*),
     * folded from the hierarchy's hot-loop arrays once at the end of
     * the run; equivalence digests include them.
     */
    CounterSet mem_hot;

    /** Fast-path telemetry: work avoided, not an outcome. */
    std::uint64_t mru_data_hits = 0;
    std::uint64_t mru_inst_hits = 0;
    std::uint64_t snoop_filter_skips = 0;

    std::shared_ptr<HpmStat> hpm;
    std::shared_ptr<Profiler> profiler;

    SimTime steady_from = 0;
    SimTime steady_to = 0;
};

/** Runs one configured experiment. */
class Experiment
{
  public:
    /** Throws std::invalid_argument for a config validate() rejects. */
    explicit Experiment(const ExperimentConfig &config);

    /**
     * Execute the full run and assemble the result. Each steady
     * window's micro simulation overlaps the DES's next window (see
     * WindowSimConfig::overlap); windows are folded in order.
     */
    ExperimentResult run();

    SystemUnderTest &sut() { return *sut_; }
    WindowSimulator &windowSimulator() { return *window_sim_; }
    const ExperimentConfig &config() const { return config_; }

  private:
    ExperimentConfig config_;
    std::shared_ptr<const WorkloadProfiles> profiles_;
    std::shared_ptr<const MethodRegistry> registry_;
    std::unique_ptr<SystemUnderTest> sut_;
    std::unique_ptr<WindowSimulator> window_sim_;
};

} // namespace jasim

#endif // JASIM_CORE_EXPERIMENT_H
