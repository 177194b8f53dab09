/** Extension (robustness): chaos soak. Each seed builds a
 *  randomized-but-valid fault schedule (partitions, primary and
 *  replica crashes, planned switchovers -- sequential windows so the
 *  schedule always passes the parser's validator) from its own RNG
 *  stream, runs the full cluster through it, and asserts the
 *  invariants that must hold under ANY schedule:
 *
 *    safety   - audit clean: nothing resurrected or duplicated, no
 *               durable loss, and sync-mode seeds lose ZERO acked
 *               commits no matter what the schedule did;
 *    fencing  - per-shard fencing tokens strictly increase across the
 *               failover history (no duplicate promotions, no stale
 *               primary ever re-acquires authority);
 *    liveness - once every fault heals, goodput recovers to at least
 *               90% of the pre-chaos healthy window;
 *    repro    - the first seed re-runs bit-identically.
 *
 *  Exit code 0 only if every seed holds every invariant. `seeds=N`
 *  scales the soak (default 20; scripts/soak.sh --quick passes 3). */

#include <algorithm>
#include <sstream>
#include <vector>

#include "bench_common.h"

#include "par/sweep.h"
#include "sim/rng.h"

using namespace jasim;

namespace {

// Fixed soak timeline (seconds): chaos happens strictly inside
// [kChaosFrom, kChaosTo], so [kRamp, kChaosFrom] is a clean healthy
// window and [kRecoverFrom, kHorizon] sees every fault healed.
constexpr double kRamp = 1.0;
constexpr double kChaosFrom = 6.0;
constexpr double kChaosTo = 18.0;
constexpr double kRecoverFrom = 24.0;
constexpr double kHorizon = 30.0;

/** One seed's schedule: the spec string plus what went into it. */
struct Plan
{
    std::string spec;
    bool sync = false;
    std::size_t events = 0;
};

/** Draw a validator-clean schedule: windows are sequential (each
 *  event's down/partition window closes before the next event fires),
 *  so no verb ever targets a down shard and partitions never overlap. */
Plan
drawPlan(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5eedull);
    Plan plan;
    plan.sync = rng.chance(0.5);
    std::ostringstream spec;
    double t = kChaosFrom + rng.uniform(0.0, 1.0);
    const std::size_t want = 2 + rng.below(3); // 2..4 events
    while (plan.events < want && t < kChaosTo) {
        const std::uint64_t kind = rng.below(4);
        const std::uint64_t shard = rng.below(2);
        const double dur = rng.uniform(1.0, 3.0);
        if (plan.events > 0)
            spec << ";";
        switch (kind) {
        case 0: // cut the shard's primary from nodes + its replicas
            spec << "partition@" << t << ":sides=db" << shard << "|0,1,"
                 << "db" << shard << ".0,db" << shard
                 << ".1,dur=" << dur;
            break;
        case 1: // primary crash, bounded outage (failover promotes)
            spec << "dbcrash@" << t << ":shard=" << shard
                 << ",restart=" << dur;
            break;
        case 2: // standby crash + resilver
            spec << "dbcrash@" << t << ":shard=" << shard
                 << ",replica=" << rng.below(2) << ",restart=" << dur;
            break;
        default: // planned handoff (no window at all)
            spec << "switchover@" << t << ":shard=" << shard;
            break;
        }
        ++plan.events;
        t += dur + rng.uniform(1.5, 3.0);
    }
    plan.spec = spec.str();
    return plan;
}

/** Everything one seed contributes to the verdict. */
struct SoakResult
{
    Plan plan;
    double healthy_jops = 0.0;
    double recovered_jops = 0.0;
    std::uint64_t promotions = 0;
    std::uint64_t lost_acked = 0;
    bool audit_clean = false;
    bool tokens_monotone = false;
    bool recovered = false;
    std::uint64_t events = 0;
    std::string digest;
};

std::string
digestOf(ClusterUnderTest &cluster)
{
    std::ostringstream os;
    os.precision(17);
    os << cluster.queue().executed() << '|'
       << cluster.tracker().totalCompleted() << '|'
       << cluster.tracker().errorCount() << '|'
       << cluster.staleRewindBytes() << '|'
       << cluster.fabric().partitionDrops();
    return os.str();
}

SoakResult
soakOne(std::uint64_t seed,
        const std::shared_ptr<const WorkloadProfiles> &profiles,
        const std::shared_ptr<const MethodRegistry> &registry)
{
    SoakResult r;
    r.plan = drawPlan(seed);

    ClusterConfig config;
    config.nodes = 2;
    config.node.injection_rate = 15.0;
    config.node.driver.ramp_up_s = kRamp;
    config.db_pool.max_connections = 16;
    config.db_recovery.checkpoint_interval_s = 5.0;
    config.repl.shards = 2;
    config.repl.replicas = 2;
    config.repl.sync = r.plan.sync;
    config.faults = FaultSchedule::parse(r.plan.spec);

    ClusterUnderTest cluster(config, profiles, registry, seed);
    cluster.start(secs(kHorizon));
    cluster.advanceTo(secs(kHorizon));

    // The healthy reference is the SAME seed and the SAME wall-clock
    // window from a fault-free twin, so GC/checkpoint periodicity
    // cancels out and the ratio isolates what the chaos left behind.
    ClusterConfig calm = config;
    calm.faults = FaultSchedule{};
    ClusterUnderTest baseline(calm, profiles, registry, seed);
    baseline.start(secs(kHorizon));
    baseline.advanceTo(secs(kHorizon));

    r.healthy_jops =
        baseline.jops(secs(kRecoverFrom), secs(kHorizon));
    r.recovered_jops = cluster.jops(secs(kRecoverFrom), secs(kHorizon));
    r.recovered = r.recovered_jops >= 0.9 * r.healthy_jops;

    const AuditReport audit = cluster.auditNow();
    r.lost_acked = audit.lost_acked;
    r.audit_clean = audit.resurrected == 0 && audit.duplicates == 0 &&
        audit.lost_durable == 0 &&
        (!r.plan.sync || audit.lost_acked == 0);

    // Fencing safety: within each shard, every token issued by a
    // promotion must be strictly above the previous one -- a repeat
    // or regression would mean a duplicate promotion or a stale
    // primary re-acquiring authority.
    r.tokens_monotone = true;
    std::vector<std::uint64_t> last(config.repl.shards, 0);
    for (const repl::FailoverOutcome &o :
         cluster.failoverController()->history()) {
        ++r.promotions;
        if (o.fencing_token == 0)
            continue; // unleased crash failover issues no token
        if (o.fencing_token <= last[o.shard])
            r.tokens_monotone = false;
        last[o.shard] = o.fencing_token;
    }

    r.events = cluster.queue().executed();
    r.digest = digestOf(cluster);
    return r;
}

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    const auto first_seed =
        static_cast<std::uint64_t>(args.getInt("seed", 42));
    const std::size_t jobs = args.jobs();
    const std::size_t n_seeds =
        static_cast<std::size_t>(args.getInt("seeds", 20));
    args.rejectUnread();
    bench::banner(std::cout,
                  "Chaos Soak: randomized fault schedules vs the "
                  "partition-tolerance invariants",
                  "Every seed draws its own mix of partitions, primary "
                  "and replica crashes, and planned switchovers, then "
                  "must keep the audit clean, fencing tokens monotone, "
                  "and recover goodput to >=90% of healthy after the "
                  "last heal. Same seed, same schedule, same run.");
    bench::PerfReport perf("soak_chaos");

    auto profiles =
        std::make_shared<const WorkloadProfiles>(first_seed ^ 0x50a4ull);
    auto registry = std::make_shared<const MethodRegistry>(
        profiles->layout(Component::WasJit).count(),
        first_seed ^ 0xc4a05ull);

    // Seed 0 runs twice: the extra lane is the determinism re-run.
    const auto results = par::runSweep(
        n_seeds + 1, jobs, [&](std::size_t i) {
            const std::uint64_t seed =
                first_seed + (i < n_seeds ? i : 0);
            return soakOne(seed, profiles, registry);
        });

    TextTable table({"seed", "mode", "faults", "promos", "healthy",
                     "recovered", "lost-ack", "verdict"});
    bool all_safe = true;
    bool all_monotone = true;
    bool all_recovered = true;
    for (std::size_t i = 0; i < n_seeds; ++i) {
        const SoakResult &r = results[i];
        perf.addEvents(r.events);
        const bool ok =
            r.audit_clean && r.tokens_monotone && r.recovered;
        all_safe = all_safe && r.audit_clean;
        all_monotone = all_monotone && r.tokens_monotone;
        all_recovered = all_recovered && r.recovered;
        table.addRow(
            {TextTable::num(static_cast<double>(first_seed + i), 0),
             r.plan.sync ? "sync" : "async",
             TextTable::num(static_cast<double>(r.plan.events), 0),
             TextTable::num(static_cast<double>(r.promotions), 0),
             TextTable::num(r.healthy_jops, 1),
             TextTable::num(r.recovered_jops, 1),
             TextTable::num(static_cast<double>(r.lost_acked), 0),
             ok ? "PASS" : "FAIL"});
        if (!ok)
            std::cout << "  seed " << first_seed + i
                      << " schedule: " << r.plan.spec << "\n";
    }
    table.print(std::cout);

    const bool deterministic =
        results[0].digest == results[n_seeds].digest;

    std::cout << "\nSoak over " << n_seeds
              << " randomized schedules. Audit clean: "
              << (all_safe ? "yes" : "NO")
              << "; fencing monotone: " << (all_monotone ? "yes" : "NO")
              << "; goodput recovered: "
              << (all_recovered ? "yes" : "NO")
              << "; deterministic re-run: "
              << (deterministic ? "yes" : "NO") << "\n";

    perf.note("seeds", static_cast<double>(n_seeds));
    perf.note("audit_clean", all_safe ? 1.0 : 0.0);
    perf.note("tokens_monotone", all_monotone ? 1.0 : 0.0);
    perf.note("recovered", all_recovered ? 1.0 : 0.0);
    perf.note("deterministic", deterministic ? 1.0 : 0.0);
    perf.write(jobs);
    return all_safe && all_monotone && all_recovered && deterministic
        ? 0
        : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
