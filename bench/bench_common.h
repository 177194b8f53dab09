/**
 * @file
 * Shared setup for the figure/table reproduction benches.
 *
 * Arguments are written `key=value` or GNU-style (`--key value` /
 * `--key=value`), and each bench reads only the keys it honours:
 *  - a box bench (configFromArgs): `ir=40 --seed 42 --jobs 1 ramp=90
 *    steady=300 rampdown=10 window=1 disk=ramdisk|spinning spindles=2
 *    heap_mb=1024 --arrival <spec> --admission <spec>`, plus the
 *    window keys `micro=1 insts=150000 wpg=8 heap_large=1
 *    code_large=0` unless it simulates no HPM window (fig02, fig03,
 *    tab_highlevel and abl_heapsize);
 *  - a cluster bench (ClusterRun): `--seed`, `--jobs`, `ir`,
 *    `heap_mb`, `ramp`, `steady`, `--nodes`, `--arrival` and
 *    `--admission`, with its own defaults, then its own keys
 *    (`db_pool`, `--faults`, ...); soak_chaos reads only `--seed`,
 *    `--jobs` and `seeds`.
 * `--seed N` pins every RNG stream; `--jobs N` (0 to 256) runs sweep
 * points on N workers, 0 meaning one per hardware thread (results
 * stay bit-identical to serial — see src/par/sweep.h).
 *
 * Every value must parse whole and lie in its range, booleans are
 * 1/0, true/false, yes/no or on/off, and enums take only their listed
 * words. After its last read, and before it prints anything, each
 * bench rejects every argument no read understood
 * (Config::rejectUnread), so a typo or a key the bench has no use for
 * exits 2 naming the token instead of changing nothing. So does a key
 * the bench sets for each point (refuse), and a `--faults` target its
 * largest cluster lacks (FaultSchedule::checkTargets).
 *
 * Benches that construct a PerfReport (fifteen of them: fig02, the
 * abl_* sweeps but abl_cosched, soak_chaos and the two chrono
 * micros) write a machine-readable perf record to
 * `out/BENCH_<name>.json` (schema documented on PerfReport below);
 * the summary line goes to stderr so stdout stays bit-comparable
 * across runs.
 */

#ifndef JASIM_BENCH_BENCH_COMMON_H
#define JASIM_BENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adm/admission.h"
#include "core/cluster.h"
#include "core/experiment.h"
#include "core/figures.h"
#include "driver/arrival.h"
#include "jvm/heap_worker.h"
#include "sim/config.h"
#include "stats/render.h"

namespace jasim::bench {

/** Whether `jobs` sweep workers leave a CPU for a point's helpers. */
inline bool
idleCpu(std::size_t jobs)
{
    return jobs <= 1 || jobs < std::thread::hardware_concurrency();
}

/**
 * The node keys of every run: `ir` (above 0), `heap_mb`, `--arrival`
 * and `--admission`; the heap worker is armed for `jobs` workers.
 */
inline SutConfig
nodeFromArgs(const Config &args, std::size_t jobs, double default_ir)
{
    SutConfig node;
    node.injection_rate = args.getDouble("ir", default_ir, kAboveZero);
    // The heap must hold the JVM's startup baseline (or the collector
    // cannot be built), and its byte count must fit 64 bits.
    const std::int64_t min_mb =
        static_cast<std::int64_t>(node.gc.baseline_bytes >> 20) + 1;
    node.gc.heap.size_bytes =
        static_cast<std::uint64_t>(
            args.getInt("heap_mb", 1024, min_mb, std::int64_t{1} << 40))
        << 20;
    // A cluster's heap worker, one more thread per sweep point, pays
    // beside an idle CPU: on a 4-CPU host it made an
    // abl_cluster_scaling nodes=4 ir=30 sweep 1.11x faster at --jobs
    // 1, 1.10x at --jobs 2 and 1.18x at --jobs 3, but 1.02x slower at
    // --jobs 4. It also needs a CPU besides the event loop's: confined
    // to one CPU, the default sweep ran 1.06x slower with it.
    node.heap_worker = idleCpu(jobs) && HeapWorker::hasSpareCpu();
    // Overload axis: `--arrival <spec>` shapes the open-loop rate,
    // `--admission <spec>` arms the shed/backpressure ladder. The
    // defaults leave both off and the run byte-identical to a
    // pre-overload build.
    node.driver.arrival = ArrivalSpec::parse(args.getString("arrival", ""));
    node.admission =
        adm::AdmissionConfig::parse(args.getString("admission", ""));
    return node;
}

/** Whether a box bench simulates HPM windows, and its `wpg` range. */
struct Windows
{
    bool simulated = true;
    std::int64_t wpg = 8;     //!< default
    std::int64_t min_wpg = 1; //!< floor
};
inline constexpr Windows kNoWindows{false};

/**
 * A box bench's keys (see the file header), read from `args`. Input
 * the run cannot honour throws std::invalid_argument naming the token
 * (bench::guardedMain turns it into exit code 2).
 */
inline ExperimentConfig
configFromArgs(const Config &args, double default_steady_s = 300.0,
               const Windows &windows = {})
{
    ExperimentConfig config;
    config.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    config.jobs = args.jobs();
    config.sut = nodeFromArgs(args, config.jobs, 40.0);
    config.ramp_up_s = args.getDouble("ramp", 90.0);
    config.steady_s = args.getDouble("steady", default_steady_s);
    config.ramp_down_s = args.getDouble("rampdown", 10.0);
    config.window_s = args.getDouble("window", 1.0);
    if (args.getChoice("disk", "ramdisk", {"ramdisk", "spinning"}) ==
        "spinning") {
        config.sut.disk.kind = DiskConfig::Kind::Spinning;
        config.sut.disk.spindles =
            static_cast<std::size_t>(args.getInt("spindles", 2, 1));
    }
    config.micro_enabled = windows.simulated && args.getBool("micro", true);
    if (windows.simulated) {
        config.window.sample_insts =
            static_cast<std::size_t>(args.getInt("insts", 150000, 1));
        config.windows_per_group = static_cast<std::size_t>(
            args.getInt("wpg", windows.wpg, windows.min_wpg));
        config.window.heap_large_pages = args.getBool("heap_large", true);
        config.window.code_large_pages = args.getBool("code_large", false);
        // Window jobs run on two helper threads per sweep point: on a
        // 4-CPU host they made an abl_l2size sweep 1.14x faster at
        // --jobs 2 and 1.11x at --jobs 3, but 1.16x slower at --jobs 4.
        config.window.overlap = idleCpu(config.jobs);
    }
    config.validate();
    return config;
}

/**
 * configFromArgs for a bench that takes only the box keys: it also
 * rejects every other argument (Config::rejectUnread).
 */
inline ExperimentConfig
configFromArgs(int argc, char **argv, double default_steady_s = 300.0,
               const Windows &windows = {})
{
    const Config args = Config::fromArgs(argc, argv);
    ExperimentConfig config = configFromArgs(args, default_steady_s, windows);
    args.rejectUnread();
    return config;
}

/**
 * Throw std::invalid_argument for the first of `keys` that `args`
 * gives, since `bench` sets it for each `point`: "ir=77: tab_highlevel
 * sets ir for each case". Call it before the reads.
 */
inline void
refuse(const Config &args, const std::string &bench,
       const std::string &point, std::initializer_list<const char *> keys)
{
    for (const std::string key : keys)
        if (args.has(key))
            throw std::invalid_argument(
                key + "=" + args.entries().at(key) + ": " + bench +
                " sets " + key + " for each " + point);
}

/**
 * A cluster bench's keys (see the file header) and its setup, shared
 * by every point: a base config of `--nodes` nodes, the profiles and
 * the method registry. A cluster runs no HPM window, and its nodes'
 * DB stages run on the DB tier, so no window or disk key is read.
 */
struct ClusterRun
{
    struct Defaults
    {
        std::int64_t nodes = 2;
        std::int64_t min_nodes = 1; //!< `--nodes` floor (ceiling 64)
        double ramp_s = 0.0;
        double steady_s = 0.0;
        double ir = 40.0; //!< per node
    };

    ClusterRun(const Config &args, const Defaults &defaults)
        : seed(static_cast<std::uint64_t>(args.getInt("seed", 42))),
          jobs(args.jobs()),
          ramp_s(args.getDouble("ramp", defaults.ramp_s, 0.0, 1e9)),
          steady_s(args.getDouble("steady", defaults.steady_s, 0.0, 1e9)),
          steady_from(secs(ramp_s)), steady_to(secs(ramp_s + steady_s))
    {
        base.nodes = static_cast<std::size_t>(
            args.getInt("nodes", defaults.nodes, defaults.min_nodes, 64));
        base.node = nodeFromArgs(args, jobs, defaults.ir);
        base.node.driver.ramp_up_s = ramp_s;
        profiles = std::make_shared<const WorkloadProfiles>(seed ^ 0x9a0full);
        registry = std::make_shared<const MethodRegistry>(
            profiles->layout(Component::WasJit).count(), seed ^ 0x3e9ull);
    }

    /** Simulate one cluster to the end of the steady state. */
    std::unique_ptr<ClusterUnderTest>
    run(const ClusterConfig &config) const
    {
        auto cluster = std::make_unique<ClusterUnderTest>(
            config, profiles, registry, seed);
        cluster->start(steady_to);
        cluster->advanceTo(steady_to);
        return cluster;
    }

    std::uint64_t seed;
    std::size_t jobs;
    double ramp_s;
    double steady_s;
    SimTime steady_from;
    SimTime steady_to;
    ClusterConfig base;
    std::shared_ptr<const WorkloadProfiles> profiles;
    std::shared_ptr<const MethodRegistry> registry;
};

/**
 * A bench's main: run `run(argc, argv)` and turn an exception into
 * exit code 2 with its message on stderr: an input configFromArgs or
 * another read rejects, or a run that cannot go on (a heap_mb its
 * live set outgrows, say), ends with that message, not in
 * std::terminate.
 */
template <typename Run>
int
guardedMain(int argc, char **argv, Run &&run)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 2;
    }
}

inline void
banner(std::ostream &os, const char *figure, const char *claim)
{
    os << "==============================================================\n"
       << figure << "\n" << claim << "\n"
       << "==============================================================\n";
}

/**
 * Wall-clock + simulated-event accounting for one bench process.
 *
 * Construct at the top of main (starts the clock), feed it each run's
 * `events_executed`, and call write() last: it emits
 * `out/BENCH_<name>.json` —
 *
 *   {
 *     "bench": "<name>",
 *     "jobs": <worker count>,
 *     "wall_seconds": <process wall clock>,
 *     "events_executed": <kernel events summed over all runs>,
 *     "events_per_sec": <events_executed / wall_seconds>,
 *     "metrics": { "<key>": <double>, ... }   // bench-specific
 *   }
 *
 * — and a one-line summary on stderr (stderr so that stdout remains
 * bit-identical between serial and parallel runs of the same seed,
 * which scripts/perf_smoke.sh diffs).
 */
class PerfReport
{
  public:
    explicit PerfReport(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {
    }

    /** Account one simulation run's executed kernel events. */
    void addEvents(std::uint64_t events) { events_ += events; }

    /** Attach a bench-specific metric to the JSON record. */
    void note(const std::string &key, double value)
    {
        metrics_.emplace_back(key, value);
    }

    double
    elapsedSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    /** Write out/BENCH_<name>.json and the stderr summary line. */
    void
    write(std::size_t jobs) const
    {
        const double wall = elapsedSeconds();
        const double eps =
            wall > 0.0 ? static_cast<double>(events_) / wall : 0.0;

        std::error_code ec;
        std::filesystem::create_directories("out", ec);
        const std::string path = "out/BENCH_" + name_ + ".json";
        {
            std::ofstream out(path);
            out.precision(6);
            out << std::fixed;
            out << "{\n"
                << "  \"bench\": \"" << name_ << "\",\n"
                << "  \"jobs\": " << jobs << ",\n"
                << "  \"wall_seconds\": " << wall << ",\n"
                << "  \"events_executed\": " << events_ << ",\n"
                << "  \"events_per_sec\": " << eps << ",\n"
                << "  \"metrics\": {";
            for (std::size_t i = 0; i < metrics_.size(); ++i) {
                out << (i ? ",\n    \"" : "\n    \"")
                    << metrics_[i].first << "\": " << metrics_[i].second;
            }
            out << (metrics_.empty() ? "}\n" : "\n  }\n") << "}\n";
        }

        std::cerr << "[perf] " << name_ << ": "
                  << TextTable::num(wall, 2) << " s wall, " << events_
                  << " events, " << TextTable::num(eps, 0)
                  << " events/s (jobs=" << jobs << ") -> " << path
                  << "\n";
    }

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t events_ = 0;
    std::vector<std::pair<std::string, double>> metrics_;
};

} // namespace jasim::bench

#endif // JASIM_BENCH_BENCH_COMMON_H
