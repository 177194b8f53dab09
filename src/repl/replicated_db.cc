#include "repl/replicated_db.h"

#include <algorithm>
#include <cassert>

namespace jasim::repl {

ShardGroup::ShardGroup(EventQueue &queue,
                       const ShardGroupConfig &config, std::uint64_t seed)
    : queue_(queue), config_(config),
      app_(config.db, config.injection_rate, seed),
      scheduler_(config.cpus), disk_(config.disk)
{
    // Shipping needs WAL retention and failover gates on the audit:
    // both are armed on every replicated primary. Audit first, so the
    // empty audit table is part of the stable baseline.
    assert(config.recovery || config.replicas == 0);
    if (config.recovery) {
        app_.enableAudit();
        app_.database().enableRecovery();
    }

    Rng seeder(seed ^ 0x4e95ull);
    for (std::size_t r = 0; r < config.replicas; ++r) {
        replicas_.push_back(std::make_unique<LogShipStream>(
            queue_, config.replica, seeder()));
        replicas_.back()->setDurableHook(
            [this](std::uint64_t) { onReplicaDurable(); });
    }
    if (!replicas_.empty())
        app_.database().setTruncationFloor(0);
}

void
ShardGroup::burst(double burst_us, std::function<void()> then)
{
    const SimTime now = queue_.now();
    if (burst_us <= config_.quantum_us) {
        queue_.scheduleAt(
            scheduler_.run(now, burst_us, Component::Db2).completion,
            std::move(then));
        return;
    }
    const SimTime slice_end =
        scheduler_.run(now, config_.quantum_us, Component::Db2)
            .completion;
    const double remaining = burst_us - config_.quantum_us;
    queue_.scheduleAt(slice_end,
                      [this, remaining, then = std::move(then)]() mutable {
                          burst(remaining, std::move(then));
                      });
}

void
ShardGroup::shipForced(std::uint64_t lsn, std::uint64_t bytes)
{
    if (down_)
        return;
    if (!lease_on_) {
        for (const auto &stream : replicas_)
            stream->ship(lsn, bytes);
        return;
    }
    // Leased shipments carry the current fencing token and fail
    // cross-side sends fast at the partition map -- no wire traffic.
    const std::uint64_t token = lease_.fencingToken();
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
        if (reachable_ && !reachable_(r)) {
            ++ship_blocked_;
            continue;
        }
        replicas_[r]->ship(lsn, bytes, token);
    }
}

void
ShardGroup::whenAckDurable(std::uint64_t lsn, AckFn done)
{
    if (replicas_.empty() || lsn <= ackDurableLsn()) {
        done();
        return;
    }
    ++ack_waits_;
    waiters_.push_back(Waiter{lsn, std::move(done)});
}

std::uint64_t
ShardGroup::ackDurableLsn() const
{
    if (!lease_on_)
        return maxLiveReplicaDurable();
    const std::size_t need = lease_.quorumAcks();
    if (need <= 1)
        return maxLiveReplicaDurable();
    std::vector<std::uint64_t> durable;
    durable.reserve(replicas_.size());
    for (const auto &stream : replicas_)
        if (stream->alive())
            durable.push_back(stream->durableLsn());
    if (durable.size() < need)
        return 0;
    std::sort(durable.begin(), durable.end(),
              std::greater<std::uint64_t>());
    return durable[need - 1];
}

void
ShardGroup::onReplicaDurable()
{
    app_.database().setTruncationFloor(minReplicaDurable());
    const std::uint64_t durable = ackDurableLsn();
    // Fire ripe waiters in FIFO order (deterministic ack order).
    std::vector<Waiter> ready;
    std::vector<Waiter> rest;
    for (Waiter &w : waiters_) {
        if (w.lsn <= durable)
            ready.push_back(std::move(w));
        else
            rest.push_back(std::move(w));
    }
    waiters_ = std::move(rest);
    for (Waiter &w : ready)
        w.done();
}

std::uint64_t
ShardGroup::maxLiveReplicaDurable() const
{
    std::uint64_t best = 0;
    for (const auto &stream : replicas_)
        if (stream->alive())
            best = std::max(best, stream->durableLsn());
    return best;
}

std::uint64_t
ShardGroup::minReplicaDurable() const
{
    std::uint64_t floor = ~0ull;
    for (const auto &stream : replicas_)
        floor = std::min(floor, stream->durableLsn());
    return floor == ~0ull ? 0 : floor;
}

bool
ShardGroup::anyLiveReplica() const
{
    for (const auto &stream : replicas_)
        if (stream->alive())
            return true;
    return false;
}

std::size_t
ShardGroup::mostCaughtUpReplica() const
{
    std::size_t best = 0;
    std::uint64_t best_lsn = 0;
    bool found = false;
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
        if (!replicas_[r]->alive())
            continue;
        if (!found || replicas_[r]->durableLsn() > best_lsn) {
            best = r;
            best_lsn = replicas_[r]->durableLsn();
            found = true;
        }
    }
    return best;
}

void
ShardGroup::resyncReplicas(std::uint64_t lsn)
{
    for (const auto &stream : replicas_)
        if (stream->alive())
            stream->resyncTo(lsn);
    if (!replicas_.empty())
        app_.database().setTruncationFloor(minReplicaDurable());
}

void
ShardGroup::beginBlackout()
{
    down_ = true;
    ++generation_;
    waiters_.clear();
}

void
ShardGroup::endBlackout()
{
    down_ = false;
}

void
ShardGroup::armLease(const LeaseConfig &config, ReachFn reachable)
{
    lease_on_ = true;
    lease_config_ = config;
    lease_ = Lease(replicas_.size());
    reachable_ = std::move(reachable);
    lease_us_ = secs(config.lease_s);
    // A zero renew interval would spin the queue; floor at 1 ms.
    renew_us_ = std::max<SimTime>(secs(config.renew_s), 1000);
    hb_bytes_ = static_cast<std::uint64_t>(config.heartbeat_bytes);
}

void
ShardGroup::startLease()
{
    if (!lease_on_)
        return;
    // The primary starts holding the lease (it was granted before
    // traffic began); heartbeat rounds keep it alive from here.
    lease_.grant(queue_.now() + lease_us_);
    hb_last_valid_ = true;
    queue_.scheduleAfter(renew_us_, [this] { heartbeatTick(); });
}

void
ShardGroup::heartbeatTick()
{
    if (!lease_on_)
        return;
    const SimTime now = queue_.now();
    if (!down_) {
        const bool valid = lease_.valid(now);
        if (!valid && hb_last_valid_)
            lease_.noteLapse();
        hb_last_valid_ = valid;

        const SimTime sent = now;
        if (lease_.majority() <= 1) {
            // Degenerate single-member group: self-vote renews.
            lease_.grant(sent + lease_us_);
        } else {
            auto votes = std::make_shared<std::size_t>(1); // self
            for (std::size_t r = 0; r < replicas_.size(); ++r) {
                LogShipStream &stream = *replicas_[r];
                if (!stream.alive())
                    continue;
                if (reachable_ && !reachable_(r)) {
                    ++hb_blocked_;
                    continue;
                }
                ++hb_sent_;
                const SimTime arrive =
                    stream.link().deliver(now, hb_bytes_);
                queue_.scheduleAt(arrive, [this, r, votes, sent] {
                    LogShipStream &st = *replicas_[r];
                    if (!st.alive())
                        return;
                    // The ack leaves the replica *now*; a partition
                    // that opened mid-round blocks it here.
                    if (reachable_ && !reachable_(r)) {
                        ++hb_blocked_;
                        return;
                    }
                    const SimTime back =
                        st.link().deliver(queue_.now(), hb_bytes_);
                    queue_.scheduleAt(back, [this, votes, sent] {
                        ++*votes;
                        if (*votes >= lease_.majority() && !down_)
                            lease_.grant(sent + lease_us_);
                    });
                });
            }
        }
    }
    queue_.scheduleAfter(renew_us_, [this] { heartbeatTick(); });
}

void
ShardGroup::fenceReplicas(std::uint64_t token)
{
    for (const auto &stream : replicas_)
        stream->setFenceToken(token);
}

std::uint64_t
ShardGroup::fencedWindows() const
{
    std::uint64_t total = 0;
    for (const auto &stream : replicas_)
        total += stream->fencedWindows();
    return total;
}

void
ShardGroup::inflightEnd()
{
    if (inflight_ > 0)
        --inflight_;
    if (inflight_ != 0 || drain_waiters_.empty())
        return;
    std::vector<std::function<void()>> ready;
    ready.swap(drain_waiters_);
    for (auto &done : ready)
        done();
}

void
ShardGroup::whenDrained(std::function<void()> done)
{
    if (inflight_ == 0) {
        done();
        return;
    }
    drain_waiters_.push_back(std::move(done));
}

} // namespace jasim::repl
