/** Extension (robustness): partition tolerance for the replicated
 *  DB tier. Every point drives the same 4-node, 2-shard, 2-replica
 *  cluster and cuts shard 0's primary away from every app node and
 *  both of its replicas (the quorum side), sweeping partition
 *  duration x lease length x ack mode; one extra point runs a planned
 *  switchover instead of a partition. Long-enough partitions make the
 *  primary's lease lapse and the lease monitor promote the quorum
 *  side behind a fresh fencing token; on heal the deposed primary's
 *  divergent WAL tail is fenced off and rewound. Exit-code gates:
 *  sync-mode points lose ZERO acked commits across partition + heal,
 *  every decisive partition (duration comfortably past the lease)
 *  promotes exactly once and rewinds the stale tail, at least one
 *  heal bounces a stale shipment off the fence, the switchover
 *  blackout stays under one lease interval, no point resurrects or
 *  duplicates an effect, and a same-seed re-run is bit-identical. */

#include <algorithm>
#include <sstream>
#include <vector>

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

/** One sweep point: a partition shape (or a switchover) + ack mode. */
struct Point
{
    double dur_s = 0.0;   //!< partition window; 0 = switchover point
    double lease_s = 2.0; //!< lease length (renew = lease / 4)
    bool sync = false;
};

/** Everything one point contributes to the report and the gates. */
struct PartPoint
{
    double jops = 0.0;
    double healed_jops = 0.0; //!< after the heal settles
    std::uint64_t errors = 0;
    std::uint64_t partitioned = 0;
    std::uint64_t partition_drops = 0;
    std::uint64_t promotions = 0;  //!< partition-kind failovers
    std::uint64_t switchovers = 0;
    std::uint64_t switchover_aborts = 0;
    double blackout_s = 0.0;
    std::uint64_t fenced = 0;
    std::uint64_t rewinds = 0;
    std::uint64_t rewind_bytes = 0;
    std::uint64_t acked = 0;
    std::uint64_t lost_acked = 0;
    std::uint64_t lost_durable = 0;
    std::uint64_t resurrected = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t events = 0;
};

/** Full-precision digest for the fixed-seed determinism gate. */
std::string
digest(const PartPoint &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.jops << '|' << r.healed_jops << '|' << r.errors << '|'
       << r.partitioned << '|' << r.partition_drops << '|'
       << r.promotions << '|' << r.blackout_s << '|' << r.fenced << '|'
       << r.rewinds << '|' << r.rewind_bytes << '|' << r.acked << '|'
       << r.lost_acked << '|' << r.events;
    return os.str();
}

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    bench::PerfReport perf("abl_partition");
    bench::ClusterRun harness(
        args, {.nodes = 4, .ramp_s = 2.0, .steady_s = 16.0, .ir = 150.0});

    const std::size_t nodes = harness.base.nodes;
    harness.base.db_pool.max_connections =
        static_cast<std::size_t>(args.getInt("db_pool", 12, 1));
    harness.base.db_cpus =
        static_cast<std::size_t>(args.getInt("db_cpus", 1, 1));
    harness.base.db_recovery.checkpoint_interval_s =
        args.getDouble("ckpt", 5.0);
    harness.base.repl.shards = 2;
    harness.base.repl.replicas = 2;
    args.rejectUnread();
    bench::banner(std::cout,
                  "Ablation: Partition Tolerance (jasim::fault x repl)",
                  "A scripted network partition cuts shard 0's primary "
                  "away from its replicas and every app node. Leases "
                  "lapse, the quorum side promotes behind a fencing "
                  "token, and the heal rewinds the deposed primary's "
                  "divergent tail -- swept over partition duration x "
                  "lease length x ack mode, plus a planned-switchover "
                  "point with ~zero blackout.");

    // The cut opens mid-steady; every partition heals well before the
    // horizon so post-heal recovery is measurable.
    const double t_cut = harness.ramp_s + 4.0;

    std::vector<Point> points = {
        {2.0, 0.5, false}, {2.0, 0.5, true},
        {2.0, 2.0, false}, {2.0, 2.0, true},
        {6.0, 0.5, false}, {6.0, 0.5, true},
        {6.0, 2.0, false}, {6.0, 2.0, true},
        {0.0, 2.0, true}, // planned switchover instead of a cut
    };
    const std::size_t determinism_of = 5; // (6s, 0.5s, sync) re-run
    points.push_back(points[determinism_of]);

    const auto results =
        par::runSweep(points.size(), harness.jobs, [&](std::size_t i) {
            const Point &point = points[i];
            std::ostringstream chaos;
            if (point.dur_s > 0.0) {
                // Shard 0's primary alone vs every node + its own
                // replicas; shard 1's tier is unlisted (untouched).
                chaos << "partition@" << t_cut << ":sides=db0|";
                for (std::size_t n = 0; n < nodes; ++n)
                    chaos << n << ",";
                chaos << "db0.0,db0.1,dur=" << point.dur_s;
            } else {
                chaos << "switchover@" << t_cut << ":shard=0";
            }

            ClusterConfig config = harness.base;
            config.faults = FaultSchedule::parse(chaos.str());
            config.repl.sync = point.sync;
            config.repl.lease.lease_s = point.lease_s;
            config.repl.lease.renew_s = point.lease_s / 4.0;
            const auto cluster = harness.run(config);

            const ResponseTracker &t = cluster->tracker();
            PartPoint r;
            r.jops = cluster->jops(harness.steady_from, harness.steady_to);
            const SimTime healed =
                secs(t_cut + point.dur_s + 1.0);
            r.healed_jops = cluster->jops(healed, harness.steady_to);
            r.errors = t.errorCount();
            r.partitioned = t.errorCount(ErrorKind::Partitioned);
            r.partition_drops = cluster->fabric().partitionDrops();
            for (const repl::FailoverOutcome &o :
                 cluster->failoverController()->history()) {
                if (o.kind == repl::FailoverKind::Partition)
                    ++r.promotions;
            }
            r.switchovers = t.switchoverCount();
            r.switchover_aborts =
                cluster->failoverController()->switchoverAborts();
            r.blackout_s = toSeconds(t.failoverBlackoutUs());
            r.fenced = cluster->shard(0).fencedWindows() +
                cluster->shard(1).fencedWindows();
            r.rewinds = cluster->staleRewinds();
            r.rewind_bytes = cluster->staleRewindBytes();
            const AuditReport audit = cluster->auditNow();
            r.acked = audit.acked_total;
            r.lost_acked = audit.lost_acked;
            r.lost_durable = audit.lost_durable;
            r.resurrected = audit.resurrected;
            r.duplicates = audit.duplicates;
            r.events = cluster->queue().executed();
            return r;
        });

    TextTable table({"cut (s)", "lease (s)", "mode", "JOPS",
                     "healed JOPS", "promos", "blackout (s)", "fenced",
                     "rewinds", "acked", "lost-ack", "audit"});
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
        const Point &point = points[i];
        const PartPoint &r = results[i];
        perf.addEvents(r.events);
        const bool sync_ok = !point.sync || r.lost_acked == 0;
        const bool clean = r.resurrected == 0 && r.duplicates == 0 &&
            r.lost_durable == 0;
        table.addRow(
            {point.dur_s > 0.0 ? TextTable::num(point.dur_s, 1)
                               : "switch",
             TextTable::num(point.lease_s, 1),
             point.sync ? "sync" : "async", TextTable::num(r.jops, 1),
             TextTable::num(r.healed_jops, 1),
             TextTable::num(static_cast<double>(r.promotions), 0),
             TextTable::num(r.blackout_s, 3),
             TextTable::num(static_cast<double>(r.fenced), 0),
             TextTable::num(static_cast<double>(r.rewinds), 0),
             TextTable::num(static_cast<double>(r.acked), 0),
             TextTable::num(static_cast<double>(r.lost_acked), 0),
             sync_ok && clean ? "PASS" : "FAIL"});
    }
    table.print(std::cout);

    // ---- exit-code gates ----
    bool sync_zero_loss = true;  // acked sync commits survive the cut
    bool decisive_promote = true; // long cuts promote + rewind once
    bool any_fenced = false;     // some stale tail bounced on heal
    bool clean_rewinds = true;   // nothing resurrected or duplicated
    bool switchover_ok = true;   // blackout under one lease interval
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
        const Point &point = points[i];
        const PartPoint &r = results[i];
        if (point.sync && r.lost_acked != 0)
            sync_zero_loss = false;
        // Decisive: the cut outlives lease + renew slack + detection,
        // so the monitor must have promoted the quorum side exactly
        // once and rewound the deposed tail on heal.
        if (point.dur_s >= 2.0 * point.lease_s + 1.0 &&
            (r.promotions != 1 || r.rewinds != 1))
            decisive_promote = false;
        if (r.fenced > 0)
            any_fenced = true;
        if (r.resurrected != 0 || r.duplicates != 0 ||
            r.lost_durable != 0)
            clean_rewinds = false;
        if (point.dur_s == 0.0 &&
            (r.switchovers != 1 || r.switchover_aborts != 0 ||
             r.blackout_s > point.lease_s))
            switchover_ok = false;
    }
    const bool deterministic =
        digest(results[determinism_of]) == digest(results.back());

    std::cout
        << "\nShape: cuts shorter than the lease ride it out (acks "
           "stall, nobody promotes); cuts past lease + detection "
           "promote the replica side behind a fresh fencing token, so "
           "service continues through the split. On heal the deposed "
           "primary's tail is fenced and rewound -- sync points lose "
           "zero acked commits either way, async points lose the "
           "unreplicated window. The planned switchover pays none of "
           "this: drain, handoff at the watermark, blackout under one "
           "lease.\n"
        << "Sync zero-loss: " << (sync_zero_loss ? "yes" : "NO")
        << "; decisive cuts promote+rewind: "
        << (decisive_promote ? "yes" : "NO")
        << "; stale tail fenced: " << (any_fenced ? "yes" : "NO")
        << "; clean rewinds: " << (clean_rewinds ? "yes" : "NO")
        << "; switchover under one lease: "
        << (switchover_ok ? "yes" : "NO")
        << "; deterministic re-run: " << (deterministic ? "yes" : "NO")
        << "\n";

    perf.note("sync_zero_loss", sync_zero_loss ? 1.0 : 0.0);
    perf.note("decisive_promote", decisive_promote ? 1.0 : 0.0);
    perf.note("any_fenced", any_fenced ? 1.0 : 0.0);
    perf.note("clean_rewinds", clean_rewinds ? 1.0 : 0.0);
    perf.note("switchover_ok", switchover_ok ? 1.0 : 0.0);
    perf.note("deterministic", deterministic ? 1.0 : 0.0);
    perf.write(harness.jobs);
    return sync_zero_loss && decisive_promote && any_fenced &&
            clean_rewinds && switchover_ok && deterministic
        ? 0
        : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
