/**
 * @file
 * Primary leases and fencing tokens for the replicated DB tier.
 *
 * A shard's primary may only ack commits while it holds a
 * time-bounded lease. The lease is renewed by heartbeat rounds that
 * ride the same links as WAL shipments: the primary counts itself
 * plus every replica whose heartbeat ack returns, and a round that
 * reaches a majority of the replication group (primary + R replicas)
 * extends the lease to `sent + lease_s`. A partitioned primary stops
 * being able to renew, its lease lapses, and it stops acking — which
 * is what makes a quorum-side promotion safe: by the time the other
 * side promotes (at lapse + detect), no new acks can have happened.
 *
 * Promotion (crash failover, partition promotion, or planned
 * switchover) issues a monotonically increasing *fencing token*.
 * Every WAL shipment is stamped with the shipper's token; a replica
 * rejects any window carrying a token older than the newest it has
 * seen, so a deposed primary's post-partition writes bounce on heal
 * instead of corrupting the promoted timeline.
 *
 * Quorum math: with R replicas the group has R+1 members and a
 * majority needs floor((R+1)/2)+1 votes. When a lease is armed, a
 * sync-mode commit ack additionally requires `quorumAcks()` replicas
 * durable (majority minus the primary itself) so that any majority
 * that later promotes must intersect the ack set — the promoted
 * watermark can never be below an acked commit.
 */

#ifndef JASIM_REPL_LEASE_H
#define JASIM_REPL_LEASE_H

#include <cstdint>

#include "sim/types.h"

namespace jasim {

/** Lease tuning knobs (part of ReplConfig). */
struct LeaseConfig
{
    double lease_s = 2.0;         //!< lease length
    double renew_s = 0.5;         //!< heartbeat round interval
    double heartbeat_bytes = 64;  //!< per-heartbeat wire cost
};

/**
 * One shard's lease state: expiry, fencing token, quorum math, and
 * renewal/lapse counters. Heartbeat *scheduling* lives in ShardGroup
 * (it needs the event queue and the replica links); this class is the
 * pure bookkeeping, so it unit-tests without a simulation.
 */
class Lease
{
  public:
    explicit Lease(std::size_t replicas) : replicas_(replicas) {}

    /** Group size including the primary. */
    std::size_t members() const { return replicas_ + 1; }

    /** Votes a heartbeat round needs (primary included). */
    std::size_t majority() const { return members() / 2 + 1; }

    /**
     * Replicas (beyond the primary) that must hold a commit durable
     * before a sync ack, so every possible promoted majority
     * intersects the ack set. Zero when there are no replicas.
     */
    std::size_t quorumAcks() const { return majority() - 1; }

    /**
     * Extend the lease to `expiry` (monotone: a late-arriving ack for
     * an old round can never shorten it). Counts a renewal when it
     * actually extends.
     */
    void grant(SimTime expiry);

    /** Lease held at `now`? */
    bool valid(SimTime now) const { return now < expiry_; }
    SimTime expiry() const { return expiry_; }

    /** Count one observed valid→lapsed transition. */
    void noteLapse() { ++lapses_; }

    /** Newest fencing token issued for this shard. */
    std::uint64_t fencingToken() const { return token_; }

    /** Issue the next (strictly larger) fencing token. */
    std::uint64_t issueToken() { return ++token_; }

    std::uint64_t renewals() const { return renewals_; }
    std::uint64_t lapses() const { return lapses_; }

  private:
    std::size_t replicas_;
    SimTime expiry_ = 0;
    std::uint64_t token_ = 0;
    std::uint64_t renewals_ = 0;
    std::uint64_t lapses_ = 0;
};

} // namespace jasim

#endif // JASIM_REPL_LEASE_H
