#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

#include "driver/response_tracker.h"

namespace jasim {
namespace {

using enum OutageKind;
constexpr std::uint32_t kNone = Outage::kNoTarget;

/** One outage window; to == 0 leaves it open. */
Outage
window(OutageKind kind, std::uint32_t target, SimTime from, SimTime to = 0)
{
    return Outage{.kind = kind, .target = target, .from = from, .to = to};
}

Request
makeRequest(std::uint64_t id, RequestType type, SimTime arrival)
{
    Request r;
    r.id = id;
    r.type = type;
    r.arrival = arrival;
    return r;
}

TEST(ResponseTrackerTest, CountsPerType)
{
    ResponseTracker tracker;
    tracker.complete(makeRequest(1, RequestType::Browse, 0), secs(1));
    tracker.complete(makeRequest(2, RequestType::Browse, 0), secs(1));
    tracker.complete(makeRequest(3, RequestType::Purchase, 0), secs(1));
    EXPECT_EQ(tracker.completedCount(RequestType::Browse), 2u);
    EXPECT_EQ(tracker.totalCompleted(), 3u);
}

TEST(ResponseTrackerTest, SlaPassAndFail)
{
    ResponseTracker tracker;
    // 10 browses: 9 fast, 1 slow -> p90 = fast => pass.
    for (int i = 0; i < 9; ++i)
        tracker.complete(
            makeRequest(static_cast<std::uint64_t>(i),
                        RequestType::Browse, 0),
            millis(500));
    tracker.complete(makeRequest(99, RequestType::Browse, 0), secs(30));
    const auto verdicts = tracker.verdicts();
    const auto &browse =
        verdicts[static_cast<std::size_t>(RequestType::Browse)];
    EXPECT_TRUE(browse.pass);
    EXPECT_NEAR(browse.p90_seconds, 0.5, 1e-9);

    ResponseTracker failing;
    for (int i = 0; i < 10; ++i)
        failing.complete(
            makeRequest(static_cast<std::uint64_t>(i),
                        RequestType::Browse, 0),
            secs(3));
    EXPECT_FALSE(failing.allPass());
}

TEST(ResponseTrackerTest, RmiGetsLooserBound)
{
    ResponseTracker tracker;
    for (int i = 0; i < 10; ++i)
        tracker.complete(
            makeRequest(static_cast<std::uint64_t>(i),
                        RequestType::CreateWorkOrder, 0),
            secs(4));
    EXPECT_TRUE(tracker.allPass()); // 4 s < 5 s RMI bound
}

TEST(ResponseTrackerTest, EmptyTypePasses)
{
    ResponseTracker tracker;
    EXPECT_TRUE(tracker.allPass());
}

TEST(ResponseTrackerTest, ThroughputSeriesBucketsCompletions)
{
    ResponseTracker tracker(10.0); // 10-second buckets
    for (int i = 0; i < 40; ++i)
        tracker.complete(
            makeRequest(static_cast<std::uint64_t>(i),
                        RequestType::Browse, 0),
            secs(5)); // all in bucket 0
    const TimeSeries series =
        tracker.throughputSeries(RequestType::Browse, secs(30));
    ASSERT_EQ(series.size(), 3u);
    EXPECT_DOUBLE_EQ(series.value(0), 4.0); // 40 / 10 s
    EXPECT_DOUBLE_EQ(series.value(1), 0.0);
}

TEST(ResponseTrackerTest, JopsOverWindow)
{
    ResponseTracker tracker;
    for (int i = 0; i < 100; ++i)
        tracker.complete(makeRequest(static_cast<std::uint64_t>(i),
                                     RequestType::Manage, 0),
                         secs(10) + i);
    EXPECT_NEAR(tracker.jops(secs(10), secs(11)), 100.0, 1.0);
    EXPECT_DOUBLE_EQ(tracker.jops(secs(20), secs(30)), 0.0);
}

TEST(ResponseTrackerTest, P99SitsAtTheTail)
{
    ResponseTracker tracker;
    // 99 fast completions and one 30 s straggler: p90 stays fast,
    // p99 (nearest-rank over 100 samples) still reads fast, and the
    // straggler only shows at p100-equivalent ranks.
    for (int i = 0; i < 99; ++i)
        tracker.complete(makeRequest(static_cast<std::uint64_t>(i),
                                     RequestType::Browse, 0),
                         millis(500));
    tracker.complete(makeRequest(99, RequestType::Browse, 0), secs(30));
    const auto verdicts = tracker.verdicts();
    const auto &browse =
        verdicts[static_cast<std::size_t>(RequestType::Browse)];
    EXPECT_NEAR(browse.p90_seconds, 0.5, 1e-9);
    EXPECT_NEAR(browse.p99_seconds, 0.5, 1e-9);
    EXPECT_GE(browse.p99_seconds, browse.p90_seconds);
    EXPECT_NEAR(tracker.p99ResponseSeconds(RequestType::Browse), 0.5,
                1e-9);
}

TEST(ResponseTrackerTest, NodeLabelsAttributeCompletions)
{
    ResponseTracker tracker;
    tracker.complete(makeRequest(1, RequestType::Browse, 0), secs(1),
                     0);
    tracker.complete(makeRequest(2, RequestType::Browse, 0), secs(2),
                     1);
    tracker.complete(makeRequest(3, RequestType::Manage, 0), secs(2),
                     1);
    EXPECT_EQ(tracker.completedOnNode(0), 1u);
    EXPECT_EQ(tracker.completedOnNode(1), 2u);
    EXPECT_EQ(tracker.completedOnNode(2), 0u);
    EXPECT_NEAR(tracker.nodeJops(1, 0, secs(4)), 0.5, 1e-9);
    EXPECT_EQ(tracker.totalCompleted(), 3u);
}

TEST(ResponseTrackerTest, MeanResponse)
{
    ResponseTracker tracker;
    tracker.complete(makeRequest(1, RequestType::Browse, 0), secs(1));
    tracker.complete(makeRequest(2, RequestType::Browse, 0), secs(3));
    EXPECT_DOUBLE_EQ(tracker.meanResponseSeconds(RequestType::Browse),
                     2.0);
}

TEST(ResponseTrackerTest, EmptyPercentilesReportSentinelNotZero)
{
    ResponseTracker tracker;
    EXPECT_DOUBLE_EQ(tracker.meanResponseSeconds(RequestType::Browse),
                     ResponseTracker::kNoSamples);
    EXPECT_DOUBLE_EQ(tracker.p99ResponseSeconds(RequestType::Browse),
                     ResponseTracker::kNoSamples);
    // One completion of another type must not unstick Browse.
    tracker.complete(makeRequest(1, RequestType::Manage, 0), secs(1));
    EXPECT_DOUBLE_EQ(tracker.p99ResponseSeconds(RequestType::Browse),
                     ResponseTracker::kNoSamples);
    EXPECT_GE(tracker.p99ResponseSeconds(RequestType::Manage), 0.0);
}

TEST(ResponseTrackerTest, ErrorsCountPerKindAndNode)
{
    ResponseTracker tracker;
    tracker.error(makeRequest(1, RequestType::Browse, 0), secs(1), 0,
                  ErrorKind::NodeDown);
    tracker.error(makeRequest(2, RequestType::Manage, 0), secs(2), 0,
                  ErrorKind::DbTimeout);
    tracker.error(makeRequest(3, RequestType::Browse, 0), secs(2),
                  ResponseTracker::kNoNode, ErrorKind::NoBackend);
    EXPECT_EQ(tracker.errorCount(), 3u);
    EXPECT_EQ(tracker.errorCount(ErrorKind::NodeDown), 1u);
    EXPECT_EQ(tracker.errorCount(ErrorKind::DbTimeout), 1u);
    EXPECT_EQ(tracker.errorCount(ErrorKind::PoolTimeout), 0u);
    EXPECT_EQ(tracker.errorsOnNode(0), 2u);
    EXPECT_EQ(tracker.errorsOnNode(ResponseTracker::kNoNode), 1u);
    EXPECT_EQ(tracker.errorsOnNode(5), 0u);
    // Errors stay out of completions and percentiles.
    EXPECT_EQ(tracker.totalCompleted(), 0u);
    EXPECT_DOUBLE_EQ(tracker.p99ResponseSeconds(RequestType::Browse),
                     ResponseTracker::kNoSamples);
}

TEST(ResponseTrackerTest, ErrorRateMixesErrorsAndCompletions)
{
    ResponseTracker tracker;
    EXPECT_DOUBLE_EQ(tracker.errorRate(), 0.0);
    for (int i = 0; i < 3; ++i)
        tracker.complete(makeRequest(static_cast<std::uint64_t>(i),
                                     RequestType::Browse, 0),
                         secs(1));
    tracker.error(makeRequest(9, RequestType::Browse, 0), secs(1), 0,
                  ErrorKind::NodeDown);
    EXPECT_DOUBLE_EQ(tracker.errorRate(), 0.25);
}

TEST(ResponseTrackerTest, RetriesCountPerCause)
{
    ResponseTracker tracker;
    tracker.recordRetry(ErrorKind::DbTimeout);
    tracker.recordRetry(ErrorKind::DbTimeout);
    tracker.recordRetry(ErrorKind::PoolTimeout);
    EXPECT_EQ(tracker.retryCount(), 3u);
    EXPECT_EQ(tracker.retryCount(ErrorKind::DbTimeout), 2u);
    EXPECT_EQ(tracker.retryCount(ErrorKind::PoolTimeout), 1u);
    EXPECT_EQ(tracker.retryCount(ErrorKind::DbCircuitOpen), 0u);
}

TEST(ResponseTrackerTest, AvailabilityClipsDownIntervals)
{
    ResponseTracker tracker;
    EXPECT_DOUBLE_EQ(tracker.availability(0, secs(100)), 1.0);
    tracker.noteOutage(window(NodeDown, 0, secs(10)));
    tracker.noteNodeUp(0, secs(30));
    EXPECT_DOUBLE_EQ(tracker.availability(0, secs(100)), 0.8);
    // A still-open outage counts up to the horizon.
    tracker.noteOutage(window(NodeDown, 1, secs(90)));
    EXPECT_DOUBLE_EQ(tracker.availability(1, secs(100)), 0.9);
    // Horizon before the outage started: fully up.
    EXPECT_DOUBLE_EQ(tracker.availability(1, secs(50)), 1.0);
}

TEST(ResponseTrackerTest, DegradedSummaryMergesOverlappingWindows)
{
    ResponseTracker tracker;
    EXPECT_EQ(tracker.degradedSummary(secs(100)).intervals, 0u);
    tracker.noteOutage(window(Degraded, kNone, secs(10), secs(30)));
    // Overlaps the first.
    tracker.noteOutage(window(Degraded, kNone, secs(20), secs(40)));
    tracker.noteOutage(window(NodeDown, 0, secs(70)));
    tracker.noteNodeUp(0, secs(80));
    const DegradedSummary summary = tracker.degradedSummary(secs(100));
    EXPECT_EQ(summary.intervals, 2u); // [10,40) and [70,80)
    EXPECT_EQ(summary.degraded_us, secs(40));
    EXPECT_DOUBLE_EQ(summary.degraded_fraction, 0.4);
}

TEST(ResponseTrackerTest, FailoverBlackoutsCountPerShard)
{
    ResponseTracker tracker;
    EXPECT_EQ(tracker.failoverCount(), 0u);
    EXPECT_EQ(tracker.failoverBlackoutUs(), 0u);
    tracker.noteOutage(window(Failover, 0, secs(10), secs(12)));
    tracker.noteOutage(window(Failover, 1, secs(40), secs(41)));
    EXPECT_EQ(tracker.failoverCount(), 2u);
    EXPECT_EQ(tracker.failoverBlackoutUs(), secs(3));
    EXPECT_EQ(tracker.failoverBlackoutUs(0), secs(2));
    EXPECT_EQ(tracker.failoverBlackoutUs(1), secs(1));
    EXPECT_EQ(tracker.failoverBlackoutUs(7), 0u); // untouched shard
}

TEST(ResponseTrackerTest, ShardAvailabilityClipsBlackouts)
{
    ResponseTracker tracker;
    EXPECT_DOUBLE_EQ(tracker.shardAvailability(0, secs(100)), 1.0);
    tracker.noteOutage(window(Failover, 0, secs(10), secs(30)));
    EXPECT_DOUBLE_EQ(tracker.shardAvailability(0, secs(100)), 0.8);
    EXPECT_DOUBLE_EQ(tracker.shardAvailability(1, secs(100)), 1.0);
    // A still-open blackout (to == 0) counts up to the horizon.
    tracker.noteOutage(window(Failover, 1, secs(90), 0));
    EXPECT_DOUBLE_EQ(tracker.shardAvailability(1, secs(100)), 0.9);
    // Horizon before the blackout started: fully up.
    EXPECT_DOUBLE_EQ(tracker.shardAvailability(1, secs(50)), 1.0);
}

TEST(ResponseTrackerTest, DegradedSummaryMergesFailoverBlackouts)
{
    // Blackouts join the degraded union exactly like degraded
    // windows and node-down intervals: overlaps merge, gaps count.
    ResponseTracker tracker;
    tracker.noteOutage(window(Degraded, kNone, secs(10), secs(30)));
    tracker.noteOutage(window(Failover, 0, secs(20), secs(40))); // overlaps
    tracker.noteOutage(window(Failover, 1, secs(70), secs(80))); // disjoint
    const DegradedSummary summary = tracker.degradedSummary(secs(100));
    EXPECT_EQ(summary.intervals, 2u); // [10,40) and [70,80)
    EXPECT_EQ(summary.degraded_us, secs(40));
    EXPECT_DOUBLE_EQ(summary.degraded_fraction, 0.4);
}

TEST(ResponseTrackerTest, AllBlackoutWindowStillReportsSentinel)
{
    // A window that is 100% blackout completes nothing: percentile
    // queries must report the explicit no-samples sentinel, never a
    // fake zero latency.
    ResponseTracker tracker;
    tracker.noteOutage(window(Failover, 0, 0, secs(100)));
    EXPECT_DOUBLE_EQ(tracker.p99ResponseSeconds(RequestType::Purchase),
                     ResponseTracker::kNoSamples);
    EXPECT_DOUBLE_EQ(tracker.meanResponseSeconds(RequestType::Purchase),
                     ResponseTracker::kNoSamples);
    EXPECT_DOUBLE_EQ(tracker.jops(0, secs(100)), 0.0);
    EXPECT_DOUBLE_EQ(tracker.shardAvailability(0, secs(100)), 0.0);
}

TEST(ResponseTrackerTest, FailoverWaitErrorsCountLikeAnyKind)
{
    ResponseTracker tracker;
    tracker.error(makeRequest(1, RequestType::Purchase, 0), secs(1), 0,
                  ErrorKind::FailoverWait);
    EXPECT_EQ(tracker.errorCount(ErrorKind::FailoverWait), 1u);
    EXPECT_EQ(tracker.errorCount(), 1u);
    EXPECT_STREQ(errorKindName(ErrorKind::FailoverWait),
                 "failover-wait");
}

TEST(ResponseTrackerTest, ErrorKindNamesAreStable)
{
    EXPECT_STREQ(errorKindName(ErrorKind::None), "none");
    EXPECT_STREQ(errorKindName(ErrorKind::NodeDown), "node-down");
    EXPECT_STREQ(errorKindName(ErrorKind::NoBackend), "no-backend");
    EXPECT_STREQ(errorKindName(ErrorKind::DbTimeout), "db-timeout");
    EXPECT_STREQ(errorKindName(ErrorKind::DbCircuitOpen),
                 "db-circuit-open");
    EXPECT_STREQ(errorKindName(ErrorKind::PoolTimeout),
                 "pool-timeout");
    EXPECT_STREQ(errorKindName(ErrorKind::DbRetriesExhausted),
                 "db-retries-exhausted");
    EXPECT_STREQ(errorKindName(ErrorKind::RecoveryWait),
                 "recovery-wait");
}

TEST(ResponseTrackerTest, RecoveryWaitErrorsCountLikeAnyKind)
{
    ResponseTracker tracker;
    tracker.error(makeRequest(1, RequestType::Purchase, 0), secs(1), 0,
                  ErrorKind::RecoveryWait);
    EXPECT_EQ(tracker.errorCount(ErrorKind::RecoveryWait), 1u);
    EXPECT_EQ(tracker.errorCount(), 1u);
}

TEST(ResponseTrackerTest, DbRecoveryIntervalsSummed)
{
    ResponseTracker tracker;
    EXPECT_EQ(tracker.dbRecoveryCount(), 0u);
    EXPECT_EQ(tracker.dbRecoveryUs(), 0u);
    tracker.noteOutage(window(DbRecovery, 0, secs(10), secs(13)));
    tracker.noteOutage(window(DbRecovery, 0, secs(20), secs(22)));
    EXPECT_EQ(tracker.dbRecoveryCount(), 2u);
    EXPECT_EQ(tracker.dbRecoveryUs(), secs(5));
}

TEST(ResponseTrackerTest, AvailabilityMergesOverlappingWindows)
{
    // A failover blackout overlapping a crash window must be billed
    // once: 10..20 and 15..30 cover 20 s, not 25.
    ResponseTracker tracker;
    tracker.noteOutage(window(NodeDown, 3, secs(10)));
    tracker.noteNodeUp(3, secs(20));
    // Overlapping observation.
    tracker.noteOutage(window(NodeDown, 3, secs(15)));
    tracker.noteNodeUp(3, secs(30));
    tracker.noteOutage(window(NodeDown, 3, secs(40)));
    tracker.noteNodeUp(3, secs(45));
    // Windows: 10..20, 15..30, 40..45 → merged 20 + 5 = 25 s.
    EXPECT_DOUBLE_EQ(tracker.availability(3, secs(100)), 0.75);
}

TEST(ResponseTrackerTest, ShardAvailabilityMergesOverlaps)
{
    ResponseTracker tracker;
    tracker.noteOutage(window(Failover, 0, secs(10), secs(20)));
    // Inside the first.
    tracker.noteOutage(window(Switchover, 0, secs(15), secs(18)));
    tracker.noteOutage(window(Failover, 0, secs(40), secs(50)));
    // Merged downtime: 10 + 10 = 20 s of 100.
    EXPECT_DOUBLE_EQ(tracker.shardAvailability(0, secs(100)), 0.8);
    // Counted separately: one switchover among three windows.
    EXPECT_EQ(tracker.switchoverCount(), 1u);
    EXPECT_EQ(tracker.failoverCount(), 3u);
}

TEST(ResponseTrackerTest, PartitionWindowsTracked)
{
    ResponseTracker tracker;
    EXPECT_EQ(tracker.partitionCount(), 0u);
    EXPECT_EQ(tracker.partitionUs(secs(100)), 0u);
    tracker.noteOutage(window(Partition, kNone, secs(10), secs(30)));
    tracker.noteOutage(window(Partition, kNone, secs(90), 0)); // never healed
    EXPECT_EQ(tracker.partitionCount(), 2u);
    // Open window runs to the horizon; both clip at it.
    EXPECT_EQ(tracker.partitionUs(secs(100)), secs(30));
    EXPECT_EQ(tracker.partitionUs(secs(20)), secs(10));
}

TEST(ResponseTrackerTest, OutageQueriesMatchAPerSecondModel)
{
    // 200 seeded random scripts of whole-second windows: every kind
    // and target, open and zero-length windows, windows starting past
    // the horizon, overlaps within and across kinds, node-downs of a
    // node already down and restarts of one that is up. Every query
    // is checked against a model built here: a per-second coverage
    // array for the merged queries, plain sums and counts otherwise.
    struct Window
    {
        OutageKind kind;
        std::uint32_t target;
        std::uint64_t from = 0; //!< seconds
        std::uint64_t to = 0;   //!< seconds; 0 = still open
    };
    constexpr std::uint32_t kTargets = 3; // one more is never hit
    std::mt19937_64 rng(20261018);
    const auto draw = [&rng](std::uint64_t n) { return rng() % n; };
    std::size_t ignored_downs = 0, open = 0, past_horizon = 0;

    for (int script = 0; script < 200; ++script) {
        ResponseTracker tracker;
        std::vector<Window> model;
        // Each node's open node-down window in `model`, if any.
        std::array<std::optional<std::size_t>, kTargets> down;
        std::uint64_t now = 1;
        const std::uint64_t steps = draw(24);
        for (std::uint64_t i = 0; i < steps; ++i, now += draw(4)) {
            const std::uint64_t action = draw(7); // six kinds + restart
            const auto target = static_cast<std::uint32_t>(draw(kTargets));
            if (action == 6) {
                tracker.noteNodeUp(target, secs(now));
                if (down[target]) {
                    model[*down[target]].to = now;
                    down[target].reset();
                }
                continue;
            }
            const auto kind = static_cast<OutageKind>(action);
            if (kind == NodeDown) {
                tracker.noteOutage(window(NodeDown, target, secs(now)));
                if (down[target]) {
                    ++ignored_downs;
                    continue;
                }
                down[target] = model.size();
                model.push_back({NodeDown, target, now, 0});
                continue;
            }
            const std::uint32_t on =
                kind == Degraded || kind == Partition ? kNone : target;
            const std::uint64_t to = draw(4) == 0 ? 0 : now + draw(12);
            tracker.noteOutage(window(kind, on, secs(now), secs(to)));
            model.push_back({kind, on, now, to});
        }

        // Counts and unmerged sums of closed windows.
        const auto count = [&model](auto in) {
            return static_cast<std::size_t>(
                std::count_if(model.begin(), model.end(), in));
        };
        const auto closedUs = [&model](auto in) {
            std::uint64_t total = 0;
            for (const Window &w : model) {
                if (in(w) && w.to != 0)
                    total += w.to - w.from;
            }
            return secs(static_cast<double>(total));
        };
        const auto is = [](OutageKind kind) {
            return [kind](const Window &w) { return w.kind == kind; };
        };
        const auto blackout = [](std::uint32_t shard) {
            return [shard](const Window &w) {
                return (w.kind == Failover || w.kind == Switchover) &&
                    (shard == kNone || w.target == shard);
            };
        };
        EXPECT_EQ(tracker.dbRecoveryCount(), count(is(DbRecovery)));
        EXPECT_EQ(tracker.dbRecoveryUs(), closedUs(is(DbRecovery)));
        EXPECT_EQ(tracker.failoverCount(), count(blackout(kNone)));
        EXPECT_EQ(tracker.failoverBlackoutUs(), closedUs(blackout(kNone)));
        EXPECT_EQ(tracker.partitionCount(), count(is(Partition)));
        EXPECT_EQ(tracker.switchoverCount(), count(is(Switchover)));
        for (std::uint32_t shard = 0; shard <= kTargets; ++shard) {
            EXPECT_EQ(tracker.failoverBlackoutUs(shard),
                      closedUs(blackout(shard)));
        }
        open += count([](const Window &w) { return w.to == 0; });

        for (int k = 0; k < 3; ++k) {
            const std::uint64_t h = draw(now + 8);
            const SimTime horizon = secs(static_cast<double>(h));
            past_horizon +=
                count([h](const Window &w) { return w.from >= h; });
            // Seconds of [0, h) some accepted window covers, and the
            // runs of covered seconds.
            const auto cover = [&model, h](auto in) {
                std::vector<bool> covered(h, false);
                for (const Window &w : model) {
                    const std::uint64_t end =
                        w.to == 0 ? h : std::min(w.to, h);
                    for (std::uint64_t t = w.from; in(w) && t < end; ++t)
                        covered[t] = true;
                }
                std::uint64_t seconds = 0;
                std::size_t runs = 0;
                for (std::uint64_t t = 0; t < h; ++t) {
                    seconds += covered[t];
                    runs += covered[t] && (t == 0 || !covered[t - 1]);
                }
                return std::pair{secs(static_cast<double>(seconds)), runs};
            };
            const auto fraction = [horizon](SimTime us) {
                if (horizon == 0)
                    return 0.0;
                return static_cast<double>(us) /
                    static_cast<double>(horizon);
            };
            for (std::uint32_t t = 0; t <= kTargets; ++t) {
                const auto node = cover([t](const Window &w) {
                    return w.kind == NodeDown && w.target == t;
                });
                EXPECT_DOUBLE_EQ(tracker.availability(t, horizon),
                                 1.0 - fraction(node.first));
                EXPECT_DOUBLE_EQ(
                    tracker.shardAvailability(t, horizon),
                    1.0 - fraction(cover(blackout(t)).first));
            }
            EXPECT_EQ(tracker.partitionUs(horizon),
                      cover(is(Partition)).first);
            const auto [degraded_us, runs] = cover(
                [](const Window &w) { return w.kind != Partition; });
            const DegradedSummary summary =
                tracker.degradedSummary(horizon);
            EXPECT_EQ(summary.intervals, runs) << "script " << script;
            EXPECT_EQ(summary.degraded_us, degraded_us);
            EXPECT_DOUBLE_EQ(summary.degraded_fraction,
                             fraction(degraded_us));
        }
    }
    // The scripts reached the edge cases they are meant to.
    EXPECT_GT(ignored_downs, 0u);
    EXPECT_GT(open, 0u);
    EXPECT_GT(past_horizon, 0u);
}

TEST(ResponseTrackerTest, PartitionedErrorsCountLikeAnyKind)
{
    ResponseTracker tracker;
    tracker.error(makeRequest(1, RequestType::Purchase, 0), secs(1), 0,
                  ErrorKind::Partitioned);
    EXPECT_EQ(tracker.errorCount(ErrorKind::Partitioned), 1u);
    EXPECT_EQ(tracker.errorCount(), 1u);
    EXPECT_STREQ(errorKindName(ErrorKind::Partitioned), "partitioned");
}

} // namespace
} // namespace jasim
