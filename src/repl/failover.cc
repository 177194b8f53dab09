#include "repl/failover.h"

#include <algorithm>
#include <memory>

#include "repl/replicated_db.h"
#include "sim/types.h"
#include "synth/component_profiles.h"

namespace jasim::repl {

const char *
failoverKindName(FailoverKind kind)
{
    switch (kind) {
      case FailoverKind::Crash: return "crash";
      case FailoverKind::Partition: return "partition";
      case FailoverKind::Switchover: return "switchover";
    }
    return "?";
}

void
FailoverController::promote(ShardGroup &group, FailoverOutcome out,
                            SimTime delay_us, Done done)
{
    queue_.scheduleAfter(delay_us, [this, &group, out, done]() mutable {
        // Promotion: rewind the shard to W, then charge the promoted
        // replica's catch-up -- replay its unapplied log gap, flush
        // the promotion checkpoint, burn the redo CPU.
        out.stats = group.database().failoverTo(out.watermark);
        SimTime ready = queue_.now();
        if (out.catchup_bytes > 0)
            ready = std::max(
                ready, group.disk()
                           .readSequential(ready, out.catchup_bytes)
                           .completion);
        const std::uint64_t flush_bytes =
            out.stats.pages_flushed * 4096 + out.stats.checkpoint_bytes;
        if (flush_bytes > 0)
            ready = std::max(
                ready, group.disk().write(ready, flush_bytes).completion);
        const double cpu =
            config_.promote_cpu_floor_us +
            config_.promote_cpu_us_per_kb * (out.catchup_bytes / 1024.0);
        ready = std::max(ready, group.scheduler()
                                    .run(ready, cpu, Component::Db2)
                                    .completion);
        queue_.scheduleAt(ready, [this, &group, out, done]() mutable {
            group.resyncReplicas(out.watermark);
            group.database().confirmWalDurable(
                group.database().wal().issuedLsn());
            if (out.kind == FailoverKind::Partition)
                group.setServingMember(out.promoted_member);
            if (group.leaseArmed())
                group.regrantLease();
            group.endBlackout();
            out.promoted_at = queue_.now();
            ++failovers_;
            history_.push_back(out);
            if (done)
                done(out);
        });
    });
}

bool
FailoverController::primaryCrashed(std::size_t shard, ShardGroup &group,
                                   Done done)
{
    if (group.down() || !group.anyLiveReplica())
        return false;

    FailoverOutcome out;
    out.shard = shard;
    out.kind = FailoverKind::Crash;
    out.crash_at = queue_.now();
    out.blackout_begin = queue_.now();
    out.watermark = group.maxLiveReplicaDurable();
    out.promoted_member = group.mostCaughtUpReplica();
    out.catchup_bytes = group.replica(out.promoted_member).unappliedBytes();
    if (group.leaseArmed()) {
        out.fencing_token = group.lease().issueToken();
        group.fenceReplicas(out.fencing_token);
    }

    group.beginBlackout();
    // Commits the promoted side holds durably survive, everything
    // above W is wiped with the deposed primary. Sync mode acked only
    // at or below W, so a lost *acked* commit here is a real bug.
    group.auditor().noteCrashOf(group.database(), out.watermark);
    promote(group, out, secs(config_.detect_s), done);
    return true;
}

bool
FailoverController::partitionPromote(std::size_t shard, ShardGroup &group,
                                     std::size_t candidate,
                                     std::uint64_t watermark, Done done)
{
    if (group.down())
        return false;

    FailoverOutcome out;
    out.shard = shard;
    out.kind = FailoverKind::Partition;
    out.crash_at = queue_.now();
    // The shard stopped acking when its lease lapsed; bill the
    // blackout from there, not from the (later) monitor decision.
    out.blackout_begin = queue_.now();
    if (group.leaseArmed())
        out.blackout_begin =
            std::min(out.blackout_begin, group.lease().expiry());
    out.watermark = watermark;
    out.promoted_member = candidate;
    out.catchup_bytes = group.replica(candidate).unappliedBytes();
    if (group.leaseArmed()) {
        out.fencing_token = group.lease().issueToken();
        group.fenceReplicas(out.fencing_token);
    }

    group.beginBlackout();
    group.auditor().noteCrashOf(group.database(), out.watermark);
    // Detection latency was already paid by the lease monitor's
    // cadence (lapse + detect before it may promote), so the
    // promotion work starts immediately.
    promote(group, out, 0, done);
    return true;
}

bool
FailoverController::plannedSwitchover(std::size_t shard,
                                      ShardGroup &group, Done done)
{
    if (group.down() || group.draining() || !group.anyLiveReplica())
        return false;
    if (group.leaseArmed() && !group.leaseValid())
        return false;

    group.beginDrain();
    auto finished = std::make_shared<bool>(false);

    // A wedged drain (replicas die mid-handoff, ack target never
    // reached) must not fail-fast the shard forever.
    queue_.scheduleAfter(secs(config_.switchover_timeout_s),
                         [this, &group, finished] {
                             if (*finished)
                                 return;
                             *finished = true;
                             group.endDrain();
                             ++switchover_aborts_;
                         });

    group.whenDrained([this, shard, &group, finished, done] {
        if (*finished)
            return;
        // Every client txn has settled; now wait until the handoff
        // target holds the full log durably (quorum-durably when a
        // lease is armed), i.e. the applied watermark of the new
        // timeline equals the old one.
        const std::uint64_t target = group.database().wal().durableLsn();
        group.whenAckDurable(target, [this, shard, &group, target,
                                      finished, done] {
            if (*finished)
                return;
            *finished = true;

            FailoverOutcome out;
            out.shard = shard;
            out.kind = FailoverKind::Switchover;
            out.crash_at = queue_.now();
            out.blackout_begin = queue_.now();
            out.watermark = target;
            out.promoted_member = group.mostCaughtUpReplica();
            out.catchup_bytes =
                group.replica(out.promoted_member).unappliedBytes();
            if (group.leaseArmed()) {
                out.fencing_token = group.lease().issueToken();
                group.fenceReplicas(out.fencing_token);
            }

            group.beginBlackout();
            group.auditor().noteCrashOf(group.database(), out.watermark);
            group.endDrain();
            promote(group, out, 0, done);
        });
    });
    return true;
}

} // namespace jasim::repl
