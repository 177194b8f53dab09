#include "core/window_simulator.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "par/spsc_ring.h"

namespace jasim {

namespace {

/**
 * Ring slots between generation and replay: 8192 48-byte instructions,
 * 384 KiB, reused across windows. Replay is the slower half, so the
 * ring runs full and its size only sets how often the generator
 * sleeps.
 */
constexpr std::size_t ringSlots = 8192;

/** `WindowSimulator::jobs_` value that stops the helper threads. */
constexpr std::uint64_t stopJobs = ~std::uint64_t{0};

} // namespace

WindowSimulator::WindowSimulator(
    const WindowSimConfig &config,
    std::shared_ptr<const WorkloadProfiles> profiles, std::uint64_t seed)
    : config_(config), profiles_(std::move(profiles)),
      space_(profiles_->makeAddressSpace(config.heap_large_pages,
                                         config.code_large_pages))
{
    Rng seeder(seed);
    // The first draw goes unused: taking it keeps every core and
    // generator seed, and so every pinned digest, where it was.
    seeder();
    hierarchy_ = std::make_unique<MemoryHierarchy>(config_.hierarchy);
    const std::size_t cores = config_.hierarchy.cores;
    generators_.resize(cores);
    for (std::size_t core = 0; core < cores; ++core) {
        cores_.push_back(std::make_unique<CoreModel>(
            core, config_.core, *hierarchy_, space_, seeder()));
        for (const Component c : allComponents) {
            auto generator = profiles_->makeGenerator(c, core, seeder());
            if (config_.devirtualized_fraction > 0.0) {
                generator->setDevirtualizedFraction(
                    config_.devirtualized_fraction);
            }
            generators_[core][static_cast<std::size_t>(c)] =
                std::move(generator);
        }
    }
    if (!config_.overlap)
        return;
    ring_ = std::make_unique<par::SpscRing<Instr>>(ringSlots);
    generator_ = std::thread(
        [this] { serve(&WindowSimulator::generate, generate_error_); });
    try {
        replayer_ = std::thread(
            [this] { serve(&WindowSimulator::replay, replay_error_); });
    } catch (...) {
        stop();
        throw;
    }
}

WindowSimulator::~WindowSimulator()
{
    // Abort a job still in flight and let both halves see it: a helper
    // that read the stop signal instead would leave the other blocked
    // on the ring for good.
    if (ring_) {
        ring_->abort();
        wait();
    }
    stop();
}

void
WindowSimulator::submit(const WindowMix &mix, std::uint64_t gc_live_bytes)
{
    if (submitted_) {
        throw std::logic_error(
            "WindowSimulator::submit: the previous window was not "
            "collected");
    }
    submitted_ = true;
    stats_ = ExecStats{};
    if (mix.busy_us <= 0.0)
        return;

    // Keep the mark-phase generators aware of the live-set size.
    if (mix.gc_active && gc_live_bytes > 0) {
        for (auto &per_core : generators_) {
            setGcLiveBytes(
                *per_core[static_cast<std::size_t>(Component::GcMark)],
                gc_live_bytes);
        }
    }
    plan(mix);

    if (!ring_) {
        runInline();
        return;
    }
    // Both helpers are idle: the last collect() waited for them.
    ring_->reset();
    running_.store(2, std::memory_order_relaxed);
    jobs_.fetch_add(1, std::memory_order_release);
    jobs_.notify_all();
}

ExecStats
WindowSimulator::collect()
{
    if (!submitted_) {
        throw std::logic_error(
            "WindowSimulator::collect: no window was submitted");
    }
    submitted_ = false;
    wait();
    const std::exception_ptr error =
        generate_error_ ? generate_error_ : replay_error_;
    generate_error_ = nullptr;
    replay_error_ = nullptr;
    if (error)
        std::rethrow_exception(error);
    return stats_;
}

ExecStats
WindowSimulator::simulateWindow(const WindowMix &mix,
                                std::uint64_t gc_live_bytes)
{
    submit(mix, gc_live_bytes);
    return collect();
}

void
WindowSimulator::serve(void (WindowSimulator::*half)(),
                       std::exception_ptr &error)
{
    std::uint64_t seen = 0;
    for (;;) {
        jobs_.wait(seen, std::memory_order_acquire);
        seen = jobs_.load(std::memory_order_acquire);
        if (seen == stopJobs)
            return;
        try {
            (this->*half)();
        } catch (...) {
            // Keep the error for collect(), and wake the other half.
            error = std::current_exception();
            ring_->abort();
        }
        if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            running_.notify_all();
    }
}

void
WindowSimulator::wait()
{
    for (std::uint32_t n; (n = running_.load(std::memory_order_acquire));)
        running_.wait(n, std::memory_order_acquire);
}

void
WindowSimulator::stop()
{
    jobs_.store(stopJobs, std::memory_order_release);
    jobs_.notify_all();
    if (generator_.joinable())
        generator_.join();
    if (replayer_.joinable())
        replayer_.join();
}

void
WindowSimulator::plan(const WindowMix &mix)
{
    const std::size_t cores = cores_.size();

    // Per-(core, component) instruction budgets.
    std::vector<std::array<std::size_t, componentCount>> budget(cores);
    for (std::size_t core = 0; core < cores; ++core) {
        for (std::size_t c = 0; c < componentCount; ++c) {
            budget[core][c] = static_cast<std::size_t>(
                mix.fraction[c] *
                static_cast<double>(config_.sample_insts) /
                static_cast<double>(cores));
        }
    }

    // Interleave across cores in chunks (as SMP hardware does), but
    // within a core run each component's whole budget contiguously:
    // an OS timeslice is millions of instructions, so per-window
    // component switches on one core are rare, not per-chunk.
    plan_.clear();
    bool work_left = true;
    std::array<std::size_t, 64> comp_cursor{};
    assert(cores <= comp_cursor.size());
    while (work_left) {
        work_left = false;
        for (std::size_t core = 0; core < cores; ++core) {
            // Stay on the current component until its budget drains.
            std::size_t c = comp_cursor[core];
            std::size_t probes = 0;
            while (probes < componentCount && budget[core][c] == 0) {
                c = (c + 1) % componentCount;
                ++probes;
            }
            if (probes == componentCount)
                continue;
            comp_cursor[core] = c;
            const std::size_t run =
                std::min(config_.chunk, budget[core][c]);
            plan_.push_back({core, c, run});
            budget[core][c] -= run;
            work_left = true;
        }
    }
}

void
WindowSimulator::runInline()
{
    for (const Run &run : plan_) {
        StreamGenerator &gen = *generators_[run.core][run.component];
        CoreModel &cpu = *cores_[run.core];
        for (std::size_t i = 0; i < run.count; ++i)
            cpu.execute(gen.next(), stats_);
    }
}

void
WindowSimulator::generate()
{
    par::SpscRing<Instr> &ring = *ring_;
    for (const Run &run : plan_) {
        StreamGenerator &gen = *generators_[run.core][run.component];
        for (std::size_t i = 0; i < run.count; ++i) {
            if (!ring.push(gen.next()))
                return;
        }
    }
    ring.flush();
}

void
WindowSimulator::replay()
{
    // Count into a local: stats_ shares cache lines with members the
    // generator thread reads for every instruction.
    par::SpscRing<Instr> &ring = *ring_;
    ExecStats stats;
    Instr inst;
    for (const Run &run : plan_) {
        CoreModel &cpu = *cores_[run.core];
        for (std::size_t i = 0; i < run.count; ++i) {
            if (!ring.pop(inst))
                return;
            cpu.execute(inst, stats);
        }
    }
    stats_ = stats;
}

double
WindowSimulator::scaleFor(const ExecStats &stats, double busy_us) const
{
    if (stats.cycles <= 0.0)
        return 1.0;
    const double nominal_cycles = busy_us * config_.freq_ghz * 1e3;
    return nominal_cycles / stats.cycles;
}

std::vector<std::uint64_t>
WindowSimulator::jitMethodSamples() const
{
    const std::size_t methods =
        profiles_->layout(Component::WasJit).count();
    std::vector<std::uint64_t> samples(methods, 0);
    for (const auto &per_core : generators_) {
        const auto &gen =
            per_core[static_cast<std::size_t>(Component::WasJit)];
        const auto &s = gen->segmentSamples();
        for (std::size_t m = 0; m < methods; ++m)
            samples[m] += s[m];
    }
    return samples;
}

} // namespace jasim
