/** Extension (robustness + scaling): sharded, replicated DB tier.
 *  The sweep drives a fixed app-server cluster at an offered load
 *  sized >= 10x the single-DB ceiling (the saturated shards=1,
 *  replicas=0 point measures that ceiling in-band) and varies shard
 *  count x replicas-per-shard x ack mode. Every point takes a
 *  scripted `dbcrash` against shard 0's primary: replicated shards
 *  fail over to their most-caught-up standby (a bounded, nonzero
 *  blackout window); unreplicated shards fall back to blocking ARIES
 *  recovery. Reported per point: JOPS, p99, failover blackout,
 *  FailoverWait errors, and the durability audit. Exit code gates:
 *  sync-mode points lose ZERO acked commits across the failover,
 *  every replicated point reports a nonzero blackout within bound,
 *  no point resurrects or duplicates an effect, and a replicated
 *  point re-run with the same seed is bit-identical. */

#include <algorithm>
#include <sstream>
#include <vector>

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

/** One sweep point on the shards x replicas x ack-mode grid. */
struct Point
{
    std::size_t shards = 1;
    std::size_t replicas = 0;
    bool sync = false;
};

/** Everything one point contributes to the report and the gates. */
struct ReplPoint
{
    double jops = 0.0;
    double p99_web = 0.0;
    std::uint64_t errors = 0;
    std::uint64_t failover_wait = 0;
    std::uint64_t recovery_wait = 0;
    std::uint64_t failovers = 0;
    double blackout_s = 0.0;
    double min_shard_avail = 1.0;
    std::uint64_t acked = 0;
    std::uint64_t lost_acked = 0;
    std::uint64_t lost_durable = 0;
    std::uint64_t resurrected = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t events = 0;
};

/** Full-precision digest for the fixed-seed determinism gate. */
std::string
digest(const ReplPoint &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.jops << '|' << r.p99_web << '|' << r.errors << '|'
       << r.failover_wait << '|' << r.failovers << '|' << r.blackout_s
       << '|' << r.acked << '|' << r.lost_acked << '|'
       << r.lost_durable << '|' << r.resurrected << '|'
       << r.duplicates << '|' << r.events;
    return os.str();
}

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    bench::PerfReport perf("abl_replication");
    // Per-node IR: the default aggregate (4 x 150) sits an order of
    // magnitude over the ~41 JOPS a single 1-CPU DB box serves when
    // saturated; the measured ratio is asserted below.
    bench::ClusterRun harness(
        args, {.nodes = 4, .ramp_s = 2.5, .steady_s = 8.0, .ir = 150.0});

    const std::size_t nodes = harness.base.nodes;
    harness.base.db_pool.max_connections =
        static_cast<std::size_t>(args.getInt("db_pool", 12, 1));
    // One CPU per DB box keeps the single-DB ceiling far below the app
    // tier's capacity, so shard scaling and the 10x overload ratio are
    // both visible.
    harness.base.db_cpus =
        static_cast<std::size_t>(args.getInt("db_cpus", 1, 1));
    harness.base.db_recovery.checkpoint_interval_s =
        args.getDouble("ckpt", 5.0);
    const double blackout_cap_s = args.getDouble("blackout_cap", 10.0);

    // Primary crash against shard 0 mid-steady. `restart=2` only
    // matters for unreplicated points (blocking ARIES fallback);
    // replicated shards reopen via promotion and ignore it.
    const double t_crash = harness.ramp_s + 0.5 * harness.steady_s;
    std::ostringstream chaos;
    chaos << "dbcrash@" << t_crash << ":shard=0,restart=2";
    const std::string spec = args.getString("faults", chaos.str());
    harness.base.faults = FaultSchedule::parse(spec);
    // The largest point below: 4 shards of 2 replicas.
    harness.base.faults.checkTargets(nodes, 4, 2);
    args.rejectUnread();

    bench::banner(std::cout,
                  "Ablation: Sharded Replication (jasim::repl)",
                  "Offered load >= 10x the single-DB ceiling, swept "
                  "over shards x replicas x ack mode with a scripted "
                  "primary crash: sharding scales JOPS past the "
                  "ceiling, log-shipping failover turns a blocking "
                  "recovery outage into a bounded blackout, and sync "
                  "acks survive primary loss with zero lost commits.");

    std::vector<Point> points = {
        {1, 0, false}, // single-DB ceiling (legacy box, ARIES)
        {2, 0, false}, {4, 0, false},           // sharding only
        {2, 1, false}, {2, 1, true},            // + 1 replica
        {4, 1, false}, {4, 1, true},
        {2, 2, true},  {4, 2, false}, {4, 2, true}, // + 2 replicas
    };
    const std::size_t determinism_of = 4; // (2,1,sync) re-run
    points.push_back(points[determinism_of]);

    const auto results =
        par::runSweep(points.size(), harness.jobs, [&](std::size_t i) {
            const Point &point = points[i];
            ClusterConfig config = harness.base;
            config.repl.shards = point.shards;
            config.repl.replicas = point.replicas;
            config.repl.sync = point.sync;
            const auto cluster = harness.run(config);

            const ResponseTracker &t = cluster->tracker();
            ReplPoint r;
            r.jops = cluster->jops(harness.steady_from, harness.steady_to);
            for (const SlaVerdict &v : t.verdicts()) {
                if (isWebRequest(v.type))
                    r.p99_web = std::max(r.p99_web, v.p99_seconds);
            }
            r.errors = t.errorCount();
            r.failover_wait = t.errorCount(ErrorKind::FailoverWait);
            r.recovery_wait = t.errorCount(ErrorKind::RecoveryWait);
            r.failovers = t.failoverCount();
            r.blackout_s = toSeconds(t.failoverBlackoutUs());
            for (std::size_t s = 0; s < point.shards; ++s) {
                r.min_shard_avail = std::min(
                    r.min_shard_avail,
                    t.shardAvailability(static_cast<std::uint32_t>(s),
                                        harness.steady_to));
            }
            const AuditReport audit = cluster->auditNow();
            r.acked = audit.acked_total;
            r.lost_acked = audit.lost_acked;
            r.lost_durable = audit.lost_durable;
            r.resurrected = audit.resurrected;
            r.duplicates = audit.duplicates;
            r.events = cluster->queue().executed();
            return r;
        });

    TextTable table({"shards", "repl", "mode", "JOPS", "x ceiling",
                     "p99 web (s)", "failovers", "blackout (s)",
                     "fo-wait", "acked", "lost-ack", "audit"});
    const double ceiling = results[0].jops;
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
        const Point &point = points[i];
        const ReplPoint &r = results[i];
        perf.addEvents(r.events);
        const bool sync_ok = !point.sync || r.lost_acked == 0;
        const bool clean = r.resurrected == 0 && r.duplicates == 0 &&
            r.lost_durable == 0;
        table.addRow(
            {TextTable::num(static_cast<double>(point.shards), 0),
             TextTable::num(static_cast<double>(point.replicas), 0),
             point.replicas == 0 ? "-"
                                 : (point.sync ? "sync" : "async"),
             TextTable::num(r.jops, 1),
             TextTable::num(ceiling > 0.0 ? r.jops / ceiling : 0.0, 2),
             TextTable::num(r.p99_web, 2),
             TextTable::num(static_cast<double>(r.failovers), 0),
             TextTable::num(r.blackout_s, 3),
             TextTable::num(static_cast<double>(r.failover_wait), 0),
             TextTable::num(static_cast<double>(r.acked), 0),
             TextTable::num(static_cast<double>(r.lost_acked), 0),
             sync_ok && clean ? "PASS" : "FAIL"});
    }
    table.print(std::cout);

    std::cout << "\nSchedule: " << spec << "\n";

    // ---- exit-code gates ----
    const double offered =
        harness.base.node.injection_rate * static_cast<double>(nodes);
    const double ratio = ceiling > 0.0 ? offered / ceiling : 0.0;
    bool sync_zero_loss = true;  // acked sync commits survive failover
    bool blackouts_bounded = true; // nonzero, and within bound
    bool clean_rewinds = true;   // nothing resurrected or duplicated
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
        const Point &point = points[i];
        const ReplPoint &r = results[i];
        if (point.sync && r.lost_acked != 0)
            sync_zero_loss = false;
        if (point.replicas > 0 &&
            (r.failovers == 0 || r.blackout_s <= 0.0 ||
             r.blackout_s > blackout_cap_s))
            blackouts_bounded = false;
        if (r.resurrected != 0 || r.duplicates != 0 ||
            r.lost_durable != 0)
            clean_rewinds = false;
    }
    const bool deterministic =
        digest(results[determinism_of]) == digest(results.back());

    std::cout
        << "\nShape: the saturated shards=1 point IS the single-DB "
           "ceiling; offered load is "
        << TextTable::num(ratio, 1)
        << "x it, so JOPS scales with the shard count until the app "
           "tier binds. Replicated shards replace the blocking "
           "recovery outage with a short promotion blackout; sync "
           "acks cost latency but survive the primary loss intact, "
           "async acks above the promotion watermark are counted as "
           "lost.\n"
        << "Offered >= 10x ceiling: " << (ratio >= 10.0 ? "yes" : "NO")
        << "; sync zero-loss: " << (sync_zero_loss ? "yes" : "NO")
        << "; blackouts nonzero+bounded: "
        << (blackouts_bounded ? "yes" : "NO")
        << "; clean rewinds: " << (clean_rewinds ? "yes" : "NO")
        << "; deterministic re-run: " << (deterministic ? "yes" : "NO")
        << "\n";

    perf.note("ceiling_jops", ceiling);
    perf.note("offered_over_ceiling", ratio);
    perf.note("sync_zero_loss", sync_zero_loss ? 1.0 : 0.0);
    perf.note("blackouts_bounded", blackouts_bounded ? 1.0 : 0.0);
    perf.note("clean_rewinds", clean_rewinds ? 1.0 : 0.0);
    perf.note("deterministic", deterministic ? 1.0 : 0.0);
    perf.write(harness.jobs);
    return sync_zero_loss && blackouts_bounded && clean_rewinds &&
            deterministic
        ? 0
        : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
