/**
 * @file
 * Shared setup for the figure/table reproduction benches.
 *
 * Every bench accepts the same arguments, written either `key=value`
 * or GNU-style (`--key value` / `--key=value`):
 *   ir=40 --seed 42 ramp=90 steady=300 window=1
 *   insts=150000 disk=ramdisk|spinning spindles=2 heap_mb=1024
 *   heap_large=1 code_large=0
 * `--seed N` pins every RNG stream; `--jobs N` (0 to 256) runs sweep
 * points on N workers, 0 meaning one per hardware thread (results
 * stay bit-identical to serial — see src/par/sweep.h). Cluster-aware
 * benches read `--nodes N` as their node count (or sweep ceiling),
 * each with its own default and range; a single-box bench rejects it
 * like any other key it does not read.
 *
 * Every value must parse whole and lie in its range, booleans are
 * 1/0, true/false, yes/no or on/off, and enums take only their listed
 * words. After its last read, and before it prints anything, each
 * bench rejects every argument no read understood
 * (Config::rejectUnread), so a typo exits 2 naming the token instead
 * of running with a default.
 *
 * abl_cluster_scaling additionally accepts the replication axis (see
 * replFromArgs): `--shards N --replicas R --sync-mode {sync,async}`.
 * The defaults (1/0/async) are one unreplicated shard group, the
 * single shared DB box, and arm nothing replication needs: the
 * cluster stays byte-identical to a pre-repl build.
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
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adm/admission.h"
#include "core/experiment.h"
#include "core/figures.h"
#include "driver/arrival.h"
#include "jvm/heap_worker.h"
#include "repl/replicated_db.h"
#include "sim/config.h"
#include "stats/render.h"

namespace jasim::bench {

/**
 * The uniform replication axis: `--shards N` (1 to 64), `--replicas R`
 * (0 to 8) and `--sync-mode {sync,async}`. Assign the result to
 * ClusterConfig::repl; the defaults leave it disabled.
 */
inline repl::ReplConfig
replFromArgs(const Config &args)
{
    repl::ReplConfig repl;
    repl.shards = static_cast<std::size_t>(args.getInt("shards", 1, 1, 64));
    repl.replicas =
        static_cast<std::size_t>(args.getInt("replicas", 0, 0, 8));
    repl.sync =
        args.getChoice("sync-mode", "async", {"sync", "async"}) == "sync";
    return repl;
}

/**
 * The shared run keys (see the file header), read from `args`. Input
 * the run cannot honour throws std::invalid_argument naming the token
 * (bench::guardedMain turns it into exit code 2).
 */
inline ExperimentConfig
configFromArgs(const Config &args, double default_steady_s = 300.0)
{
    ExperimentConfig config;
    config.sut.injection_rate = args.getDouble("ir", 40.0);
    config.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    config.jobs = args.jobs();
    config.ramp_up_s = args.getDouble("ramp", 90.0);
    config.steady_s = args.getDouble("steady", default_steady_s);
    config.ramp_down_s = args.getDouble("rampdown", 10.0);
    config.window_s = args.getDouble("window", 1.0);
    config.window.sample_insts =
        static_cast<std::size_t>(args.getInt("insts", 150000, 1));
    config.windows_per_group =
        static_cast<std::size_t>(args.getInt("wpg", 8, 1));
    config.micro_enabled = args.getBool("micro", true);

    if (args.getChoice("disk", "ramdisk", {"ramdisk", "spinning"}) ==
        "spinning") {
        config.sut.disk.kind = DiskConfig::Kind::Spinning;
        config.sut.disk.spindles =
            static_cast<std::size_t>(args.getInt("spindles", 2, 1));
    }
    // The heap must hold the JVM's startup baseline (or the collector
    // cannot be built), and its byte count must fit 64 bits.
    const std::int64_t min_mb =
        static_cast<std::int64_t>(config.sut.gc.baseline_bytes >> 20) + 1;
    config.sut.gc.heap.size_bytes =
        static_cast<std::uint64_t>(
            args.getInt("heap_mb", 1024, min_mb, std::int64_t{1} << 40))
        << 20;
    config.window.heap_large_pages = args.getBool("heap_large", true);
    config.window.code_large_pages = args.getBool("code_large", false);
    // Window jobs run on two helper threads per sweep point, which pay
    // while a hardware thread is idle: on a 4-CPU host they made an
    // abl_l2size sweep 1.14x faster at --jobs 2 and 1.11x at --jobs 3,
    // but 1.16x slower at --jobs 4. A sweep whose workers fill every
    // hardware thread (--jobs 0 always does) runs its windows inline.
    const bool idle_cpu =
        config.jobs <= 1 || config.jobs < std::thread::hardware_concurrency();
    config.window.overlap = idle_cpu;
    // A cluster's heap worker, one more thread per sweep point, follows
    // the same rule: on the same host it made an abl_cluster_scaling
    // nodes=4 ir=30 sweep 1.11x faster at --jobs 1, 1.10x at --jobs 2
    // and 1.18x at --jobs 3, but 1.02x slower at --jobs 4. It also
    // needs a CPU besides the event loop's: confined to one CPU, the
    // default sweep ran 1.06x slower with it.
    config.sut.heap_worker = idle_cpu && HeapWorker::hasSpareCpu();

    // Overload axis: `--arrival <spec>` shapes the open-loop rate,
    // `--admission <spec>` arms the shed/backpressure ladder. The
    // defaults leave both off and the run byte-identical to a
    // pre-overload build.
    config.sut.driver.arrival =
        ArrivalSpec::parse(args.getString("arrival", ""));
    config.sut.admission =
        adm::AdmissionConfig::parse(args.getString("admission", ""));
    config.validate();
    return config;
}

/**
 * configFromArgs for a bench that takes only the shared keys: it also
 * rejects every other argument (Config::rejectUnread).
 */
inline ExperimentConfig
configFromArgs(int argc, char **argv, double default_steady_s = 300.0)
{
    const Config args = Config::fromArgs(argc, argv);
    ExperimentConfig config = configFromArgs(args, default_steady_s);
    args.rejectUnread();
    return config;
}

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
