/**
 * @file
 * The microarchitectural window simulator.
 *
 * For each HPM sample window, runs a representative number of
 * synthetic instructions through the full simulated hardware (shared
 * cache hierarchy, per-core translation/branch/lock state), with the
 * instruction budget split across components according to the
 * window's execution mix and interleaved across the four cores in
 * small chunks so coherence traffic is realistic. Generator and
 * hardware state persist across windows, as on real hardware.
 *
 * A window is a job: submit() starts it and collect() returns its
 * statistics. With `WindowSimConfig::overlap` on, the job runs on two
 * helper threads, started once and kept for the simulator's lifetime,
 * while the caller goes on (Experiment::run() advances the DES through
 * the next window): one thread generates the instruction streams in
 * the interleave's order into a bounded ring, the other replays the
 * ring through the cores. The generators share no state with the
 * cores, hierarchy or DES, so every simulated bit is the same as the
 * inline loop's, which runs with `overlap` off.
 */

#ifndef JASIM_CORE_WINDOW_SIMULATOR_H
#define JASIM_CORE_WINDOW_SIMULATOR_H

#include <array>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "core/mix_model.h"
#include "cpu/core_model.h"
#include "synth/component_profiles.h"

namespace jasim {

namespace par {
template <typename T>
class SpscRing;
} // namespace par

/** Window-simulation parameters. */
struct WindowSimConfig
{
    HierarchyConfig hierarchy;
    CoreConfig core;

    /** Sample instructions simulated per window. */
    std::size_t sample_insts = 150000;
    /** Interleave chunk (instructions per core before rotating). */
    std::size_t chunk = 512;
    /** Nominal processor frequency for counter scaling. */
    double freq_ghz = 1.5;

    bool heap_large_pages = true;
    bool code_large_pages = false;

    /** Fraction of virtual-call sites the JIT devirtualizes. */
    double devirtualized_fraction = 0.0;

    /**
     * Run each window as a job on two helper threads (generation and
     * replay) that overlaps the caller; off runs the inline loop on
     * the calling thread. Same bits either way. The benches turn it
     * off when their `--jobs` workers fill every hardware thread,
     * where the helpers would find no idle core.
     */
    bool overlap = true;
};

/** The simulator. */
class WindowSimulator
{
  public:
    WindowSimulator(const WindowSimConfig &config,
                    std::shared_ptr<const WorkloadProfiles> profiles,
                    std::uint64_t seed);

    /** Aborts a job still in flight, drops its result, and joins
     *  the helper threads. */
    ~WindowSimulator();

    WindowSimulator(const WindowSimulator &) = delete;
    WindowSimulator &operator=(const WindowSimulator &) = delete;

    /**
     * Start simulating one window. With `overlap` off the window runs
     * here, before submit returns. Each submit must be followed by one
     * collect() before the next; throws std::logic_error if not.
     *
     * @param mix the window's execution mix.
     * @param gc_live_bytes current live-heap size (for the mark phase).
     */
    void submit(const WindowMix &mix, std::uint64_t gc_live_bytes);

    /**
     * Wait for the submitted window and return its raw (unscaled)
     * execution statistics. Rethrows an error the job raised; throws
     * std::logic_error if no window was submitted.
     */
    ExecStats collect();

    /** submit() then collect(): simulate one window synchronously. */
    ExecStats simulateWindow(const WindowMix &mix,
                             std::uint64_t gc_live_bytes);

    /**
     * Counter scale factor that blows the sampled window up to the
     * nominal hardware volume: nominal busy cycles / simulated cycles.
     */
    double scaleFor(const ExecStats &stats, double busy_us) const;

    /**
     * Per-method fetch samples from the JIT-code generators. Read
     * only after the last window was collected, as is hierarchy().
     */
    std::vector<std::uint64_t> jitMethodSamples() const;

    MemoryHierarchy &hierarchy() { return *hierarchy_; }
    const WindowSimConfig &config() const { return config_; }

  private:
    /** One stretch of the interleave: `count` instructions of one
     *  component on one core. */
    struct Run
    {
        std::size_t core;
        std::size_t component;
        std::size_t count;
    };

    /** The window's interleave, into plan_. */
    void plan(const WindowMix &mix);
    /** The inline loop: generate and execute plan_ on this thread. */
    void runInline();
    /** The two halves of a job, one per helper thread. */
    void generate();
    void replay();
    /** A helper thread's loop: run `half` once per submitted job. */
    void serve(void (WindowSimulator::*half)(), std::exception_ptr &error);
    /** Block until both halves of the submitted job have finished. */
    void wait();
    /** Stop the idle helper threads and join them. */
    void stop();

    WindowSimConfig config_;
    std::shared_ptr<const WorkloadProfiles> profiles_;
    AddressSpace space_;
    std::unique_ptr<MemoryHierarchy> hierarchy_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
    /** generators_[core][component] */
    std::vector<std::array<std::unique_ptr<StreamGenerator>,
                           componentCount>> generators_;

    std::vector<Run> plan_;
    ExecStats stats_;        //!< the submitted window's
    bool submitted_ = false; //!< a window awaits collect()

    // With `overlap` on only: the generation-to-replay handoff, the
    // helpers' errors, and their job signals.
    std::unique_ptr<par::SpscRing<Instr>> ring_;
    std::exception_ptr generate_error_;
    std::exception_ptr replay_error_;
    /** Jobs submitted so far; its maximum value stops the helpers. */
    std::atomic<std::uint64_t> jobs_{0};
    /** Halves of the submitted job still running. */
    std::atomic<std::uint32_t> running_{0};
    // Declared last: the helpers use every member above.
    std::thread generator_;
    std::thread replayer_;
};

} // namespace jasim

#endif // JASIM_CORE_WINDOW_SIMULATOR_H
