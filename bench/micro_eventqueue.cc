/**
 * Event-kernel microbenchmark: events/sec of the production
 * `EventQueue` (InlineFunction callbacks + flat binary heap) against
 * the pre-optimization kernel (`std::function` callbacks in a
 * `std::priority_queue`), replicated here verbatim as the baseline.
 *
 * The workload mirrors the simulation's hot path: a ring of
 * self-rescheduling closures whose captures (~48 bytes: an object
 * pointer plus a small payload) match the SUT's dispatch lambdas.
 * `std::function` heap-allocates every one of them (its SSO buffer
 * is 16 bytes on libstdc++); InlineFunction stores them inline.
 *
 * `pumps` sets the number of concurrently pending events (the heap
 * depth). Instrumented jasim experiments hold ~4-6 pending events
 * (one per in-flight request plus timers); the default of 32 is
 * several times deeper than that, which is *conservative* for the
 * inline kernel — allocation savings dominate at realistic depths,
 * heap-sift costs converge at large ones.
 *
 *   ./micro_eventqueue [events=1500000] [pumps=32] [reps=5]
 *
 * Writes out/BENCH_micro_eventqueue.json with both events/sec
 * figures and the speedup (see bench_common.h for the schema).
 */

#include <chrono>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "bench_common.h"

#include "sim/event_queue.h"

using namespace jasim;

namespace {

/** The seed kernel, kept as the measured baseline. */
class LegacyQueue
{
  public:
    using Action = std::function<void()>;

    SimTime now() const { return now_; }

    void
    scheduleAfter(SimTime delay, Action action)
    {
        queue_.push(Entry{now_ + delay, next_sequence_++,
                          std::move(action)});
    }

    std::uint64_t
    runUntil(SimTime horizon)
    {
        std::uint64_t executed = 0;
        while (!queue_.empty() && queue_.top().when <= horizon) {
            Entry entry = queue_.top();
            queue_.pop();
            now_ = entry.when;
            entry.action();
            ++executed;
        }
        if (now_ < horizon)
            now_ = horizon;
        return executed;
    }

  private:
    struct Entry
    {
        SimTime when;
        std::uint64_t sequence;
        Action action;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.sequence > b.sequence;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
    SimTime now_ = 0;
    std::uint64_t next_sequence_ = 0;
};

/** Capture payload sized like a typical SUT dispatch closure. */
struct Blob
{
    std::uint64_t x[5] = {1, 2, 3, 4, 5};
};

volatile std::uint64_t sink; // defeats dead-code elimination

/** One self-rescheduling event chain. Strides are drawn from a
 *  per-pump LCG so timestamps are spread out like the SUT's random
 *  service times (identical sequence for both kernels). */
template <typename Queue>
struct Pump
{
    Queue *queue = nullptr;
    std::uint64_t *budget = nullptr;
    std::uint64_t lcg = 1;
    Blob blob;

    void
    arm()
    {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const SimTime stride =
            static_cast<SimTime>(1 + ((lcg >> 33) & 1023));
        queue->scheduleAfter(stride, [this, b = blob] {
            sink = sink + b.x[0];
            if (*budget > 0) {
                --*budget;
                arm();
            }
        });
    }
};

/** Run `events` events through a fresh Queue; returns seconds. */
template <typename Queue>
double
timedRun(std::uint64_t events, std::size_t pumps)
{
    Queue queue;
    std::uint64_t budget = events;
    std::vector<Pump<Queue>> ring(pumps);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pumps; ++i) {
        ring[i] = Pump<Queue>{&queue, &budget,
                              0x9e3779b97f4a7c15ULL * (i + 1), {}};
        ring[i].arm();
    }
    queue.runUntil(static_cast<SimTime>(-1));
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    const std::uint64_t events = static_cast<std::uint64_t>(
        args.getInt("events", 1500000, 1));
    const std::size_t pumps =
        static_cast<std::size_t>(args.getInt("pumps", 32, 1));
    const int reps = static_cast<int>(
        args.getInt("reps", 5, 1, std::numeric_limits<int>::max()));
    args.rejectUnread();
    bench::banner(std::cout, "Micro: event-kernel throughput",
                  "InlineFunction + flat-heap EventQueue vs the "
                  "std::function/priority_queue seed kernel, on "
                  "SUT-shaped 48-byte closures.");
    bench::PerfReport perf("micro_eventqueue");

    // Interleave the two kernels (A/B per rep) so a noise burst hits
    // both rather than biasing one; keep each kernel's best rep.
    double legacy_eps = 0.0, inline_eps = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double sl = timedRun<LegacyQueue>(events, pumps);
        if (sl > 0.0)
            legacy_eps = std::max(
                legacy_eps, static_cast<double>(events) / sl);
        const double si = timedRun<EventQueue>(events, pumps);
        if (si > 0.0)
            inline_eps = std::max(
                inline_eps, static_cast<double>(events) / si);
    }
    const double speedup =
        legacy_eps > 0.0 ? inline_eps / legacy_eps : 0.0;

    // Both variants executed events+pumps closures per rep.
    perf.addEvents(2 * static_cast<std::uint64_t>(reps) *
                   (events + pumps));

    TextTable table({"kernel", "events/sec", "speedup"});
    table.addRow({"std::function + priority_queue (seed)",
                  TextTable::num(legacy_eps, 0), "1.00"});
    table.addRow({"InlineFunction + flat heap",
                  TextTable::num(inline_eps, 0),
                  TextTable::num(speedup, 2)});
    table.print(std::cout);
    std::cout << "\nTarget: >= 1.5x over the std::function baseline "
                 "(ISSUE 2 acceptance).\n";

    perf.note("baseline_events_per_sec", legacy_eps);
    perf.note("inline_events_per_sec", inline_eps);
    perf.note("speedup", speedup);
    perf.write(1);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
