/** Extension (robustness): crash-consistent DB tier. A fixed cluster
 *  takes a scripted DB-tier power-off plus a later torn-write crash,
 *  with ARIES-style recovery armed, and the sweep varies the fuzzy
 *  checkpoint interval on both a RAM-disk and a spinning-disk WAL
 *  device. Reported per point: throughput, time spent in recovery
 *  (the WAL replay the paper's disk model now has to pay for),
 *  redo/undo volume, RecoveryWait errors, and the durability audit
 *  (no acked commit lost, no aborted effect resurrected). The claim
 *  under test: recovery time shrinks monotonically with the
 *  checkpoint interval, trading steady-state checkpoint I/O for a
 *  shorter outage. */

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bench_common.h"

#include "par/sweep.h"

using namespace jasim;

namespace {

/** One sweep point: a WAL device and a checkpoint cadence. */
struct Point
{
    std::string disk;
    double interval_s = 0.0; //!< 0 = armed healthy baseline
    FaultSchedule faults;
};

/** Everything one point contributes to the report. */
struct RecoveryPoint
{
    double jops = 0.0;
    std::uint64_t errors = 0;
    std::uint64_t recovery_wait = 0;
    double recovery_s = 0.0;
    double replay_s = 0.0;
    std::uint64_t crashes = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t replay_bytes = 0;
    std::uint64_t redo = 0;
    std::uint64_t undo = 0;
    std::uint64_t losers = 0;
    std::uint64_t lost_acked = 0;
    std::uint64_t resurrected = 0;
    std::uint64_t duplicates = 0;
    bool audit_pass = true;
    std::uint64_t events = 0;
};

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    bench::PerfReport perf("abl_recovery");
    bench::ClusterRun harness(
        args, {.nodes = 2, .ramp_s = 15.0, .steady_s = 60.0});

    harness.base.db_pool.max_connections =
        static_cast<std::size_t>(args.getInt("db_pool", 12, 1));
    const auto spindles =
        static_cast<std::size_t>(args.getInt("spindles", 2, 1));
    const double ramp = harness.ramp_s;
    const double steady = harness.steady_s;

    // Crash times sit just before a common multiple of every swept
    // interval, so the replay window (time since the last fuzzy
    // checkpoint) is ~interval for each point: 47.9 s and 63.9 s
    // under the default ramp=15 steady=60. The torn write must land
    // after the crashed tier restarts, 1 s on.
    const double crash_at = 0.55;
    const double crash_lead = 0.1;
    const double torn_at = 0.815;
    const double t_crash = ramp + crash_at * steady - crash_lead;
    const double t_torn = ramp + torn_at * steady;
    const double min_steady = (1.0 - crash_lead) / (torn_at - crash_at);
    if (!args.has("faults") && steady < min_steady)
        throw std::invalid_argument(
            "steady=" + args.getString("steady", "") +
            ": the default fault schedule needs steady >= " +
            std::to_string(min_steady) +
            " s, or its torn write lands before the crashed DB restarts");
    std::ostringstream chaos;
    chaos << "dbcrash@" << t_crash << ":restart=1;tornwrite@" << t_torn
          << ":restart=1";
    const std::string spec = args.getString("faults", chaos.str());
    // The armed healthy baseline arms recovery like the chaos points
    // do, through a DB fault, but one that lands after the run ends.
    std::ostringstream past_end;
    past_end << std::fixed << "dbcrash@" << ramp + steady + 1.0;
    const FaultSchedule chaos_faults = FaultSchedule::parse(spec);
    chaos_faults.checkTargets(harness.base.nodes, 1, 0);
    const FaultSchedule baseline_faults =
        FaultSchedule::parse(past_end.str());
    args.rejectUnread();

    bench::banner(std::cout,
                  "Ablation: Crash Recovery (robustness)",
                  "DB-tier power-off and torn-write crashes against "
                  "ARIES-style WAL recovery: the checkpoint interval "
                  "trades steady-state flush I/O for replay time, and "
                  "the durability audit proves no acked commit is "
                  "lost and no aborted effect resurrected.");

    const std::vector<double> intervals = {2.0, 4.0, 8.0, 16.0};
    std::vector<Point> points;
    for (const char *disk : {"ramdisk", "spinning"}) {
        points.push_back({disk, 0.0, baseline_faults});
        for (const double interval : intervals)
            points.push_back({disk, interval, chaos_faults});
    }

    const auto results =
        par::runSweep(points.size(), harness.jobs, [&](std::size_t i) {
            const Point &point = points[i];
            ClusterConfig config = harness.base;
            if (point.disk == "spinning") {
                config.db_disk.kind = DiskConfig::Kind::Spinning;
                config.db_disk.spindles = spindles;
            }
            config.faults = point.faults;
            config.db_recovery.checkpoint_interval_s =
                point.interval_s > 0.0 ? point.interval_s : 8.0;
            const auto cluster = harness.run(config);

            const ResponseTracker &t = cluster->tracker();
            RecoveryPoint r;
            r.jops = cluster->jops(harness.steady_from, harness.steady_to);
            r.errors = t.errorCount();
            r.recovery_wait = t.errorCount(ErrorKind::RecoveryWait);
            r.recovery_s = toSeconds(t.dbRecoveryUs());
            r.replay_s = toSeconds(cluster->dbReplayUs());
            r.crashes = cluster->dbCrashCount();
            r.checkpoints = cluster->checkpointCount();
            r.replay_bytes = cluster->lastRecovery().replay_bytes;
            r.redo = cluster->lastRecovery().redo_records;
            r.undo = cluster->lastRecovery().undo_records;
            r.losers = cluster->lastRecovery().loser_txns;
            const AuditReport audit = cluster->auditNow();
            r.lost_acked = audit.lost_acked + audit.lost_durable;
            r.resurrected = audit.resurrected;
            r.duplicates = audit.duplicates;
            r.audit_pass = audit.pass();
            r.events = cluster->queue().executed();
            return r;
        });

    TextTable table({"disk", "ckpt (s)", "JOPS", "vs armed", "errors",
                     "rec-wait", "recovery (s)", "replay (s)",
                     "replay KB", "redo", "undo", "ckpts", "audit"});
    double armed_jops = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &point = points[i];
        const RecoveryPoint &r = results[i];
        perf.addEvents(r.events);
        if (point.interval_s == 0.0)
            armed_jops = r.jops;
        const double vs =
            armed_jops > 0.0 ? r.jops / armed_jops * 100.0 : 0.0;
        table.addRow(
            {point.disk,
             point.interval_s > 0.0
                 ? TextTable::num(point.interval_s, 0)
                 : "none",
             TextTable::num(r.jops, 1), TextTable::pct(vs),
             TextTable::num(static_cast<double>(r.errors), 0),
             TextTable::num(static_cast<double>(r.recovery_wait), 0),
             TextTable::num(r.recovery_s, 3),
             TextTable::num(r.replay_s, 4),
             TextTable::num(static_cast<double>(r.replay_bytes) /
                                1024.0,
                            1),
             TextTable::num(static_cast<double>(r.redo), 0),
             TextTable::num(static_cast<double>(r.undo), 0),
             TextTable::num(static_cast<double>(r.checkpoints), 0),
             r.audit_pass ? "PASS" : "FAIL"});
    }
    table.print(std::cout);

    std::cout << "\nSchedule: " << spec << "\n";

    bool monotone = true;
    bool audits = true;
    for (const char *disk : {"ramdisk", "spinning"}) {
        double prev = -1.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (points[i].disk != disk || points[i].interval_s == 0.0)
                continue;
            if (prev >= 0.0 && results[i].replay_s < prev)
                monotone = false;
            prev = results[i].replay_s;
        }
    }
    for (const RecoveryPoint &r : results)
        audits = audits && r.audit_pass;

    std::cout
        << "\nShape: a longer checkpoint interval leaves more WAL to "
           "replay, so the post-crash outage grows monotonically with "
           "it -- and a spinning WAL device pays seek+rotation per "
           "replayed batch where the RAM disk pays microseconds. "
           "RecoveryWait errors are the requests the cluster failed "
           "fast while the tier replayed.\n"
        << "Recovery-time monotone in interval: "
        << (monotone ? "yes" : "NO") << "; durability audits: "
        << (audits ? "all PASS" : "FAILURES") << "\n";

    perf.note("armed_jops", armed_jops);
    perf.note("monotone", monotone ? 1.0 : 0.0);
    perf.note("audits_pass", audits ? 1.0 : 0.0);
    perf.write(harness.jobs);
    return audits ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
