#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "fault/schedule.h"

namespace jasim {
namespace {

TEST(FaultScheduleTest, EmptySpecYieldsEmptySchedule)
{
    EXPECT_TRUE(FaultSchedule::parse("").empty());
    EXPECT_TRUE(FaultSchedule::parse("   \t ").empty());
    EXPECT_TRUE(FaultSchedule::parse(" ; ; ").empty());
}

TEST(FaultScheduleTest, ParsesCrashWithRestart)
{
    const FaultSchedule s =
        FaultSchedule::parse("crash@60:node=0,restart=30");
    ASSERT_EQ(s.size(), 1u);
    const FaultEvent &e = s.events()[0];
    EXPECT_EQ(e.kind, FaultKind::NodeCrash);
    EXPECT_EQ(e.at, secs(60.0));
    EXPECT_EQ(e.node, 0u);
    EXPECT_EQ(e.restart_after, secs(30.0));
}

TEST(FaultScheduleTest, CrashWithoutRestartStaysDown)
{
    const FaultSchedule s = FaultSchedule::parse("crash@5:node=2");
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.events()[0].restart_after, 0u);
}

TEST(FaultScheduleTest, ParsesDegradeWithAllFields)
{
    const FaultSchedule s = FaultSchedule::parse(
        "degrade@90:node=1,lat=4,drop=0.05,dur=20");
    ASSERT_EQ(s.size(), 1u);
    const FaultEvent &e = s.events()[0];
    EXPECT_EQ(e.kind, FaultKind::LinkDegrade);
    EXPECT_EQ(e.at, secs(90.0));
    EXPECT_EQ(e.node, 1u);
    EXPECT_DOUBLE_EQ(e.latency_mult, 4.0);
    EXPECT_DOUBLE_EQ(e.drop_probability, 0.05);
    EXPECT_EQ(e.duration, secs(20.0));
}

TEST(FaultScheduleTest, DegradeDefaultsToAllNodesAndForever)
{
    const FaultSchedule s = FaultSchedule::parse("degrade@1:lat=2");
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.events()[0].node, FaultEvent::kAllNodes);
    EXPECT_EQ(s.events()[0].duration, 0u);
    EXPECT_EQ(FaultSchedule::parse("degrade@1:node=all,lat=2")
                  .events()[0]
                  .node,
              FaultEvent::kAllNodes);
}

TEST(FaultScheduleTest, ParsesDbSlowAndPoolKill)
{
    const FaultSchedule s = FaultSchedule::parse(
        "dbslow@120:mult=8,dur=30;poolkill@150:node=0");
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.events()[0].kind, FaultKind::DbSlow);
    EXPECT_DOUBLE_EQ(s.events()[0].disk_mult, 8.0);
    EXPECT_EQ(s.events()[0].duration, secs(30.0));
    EXPECT_EQ(s.events()[1].kind, FaultKind::PoolKill);
    EXPECT_EQ(s.events()[1].node, 0u);
}

TEST(FaultScheduleTest, EventsSortByTimeStableOnTies)
{
    const FaultSchedule s = FaultSchedule::parse(
        "dbslow@30:mult=2;crash@10:node=0;poolkill@30:node=1");
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.events()[0].kind, FaultKind::NodeCrash);
    // Same-time events keep spec order: dbslow was written first.
    EXPECT_EQ(s.events()[1].kind, FaultKind::DbSlow);
    EXPECT_EQ(s.events()[2].kind, FaultKind::PoolKill);
}

TEST(FaultScheduleTest, FractionalTimesAndWhitespaceAccepted)
{
    const FaultSchedule s =
        FaultSchedule::parse(" crash@0.5 : node=1 , restart=0.25 ");
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.events()[0].at, secs(0.5));
    EXPECT_EQ(s.events()[0].restart_after, secs(0.25));
}

TEST(FaultScheduleTest, SummaryJoinsDescriptions)
{
    const FaultSchedule s = FaultSchedule::parse(
        "crash@60:node=0,restart=30;dbslow@120:mult=8");
    EXPECT_EQ(s.summary(),
              "crash@60s node=0 restart=30s; dbslow@120s mult=8x");
}

TEST(FaultScheduleTest, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultSchedule::parse("explode@10:node=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("crash:node=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("crash@abc:node=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("crash@-5:node=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("crash@10"), // missing node
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("poolkill@10"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("crash@10:node=0,bogus=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("crash@10:node"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("degrade@10:lat=0.5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("degrade@10:drop=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("dbslow@10:mult=0.5"),
                 std::invalid_argument);
    // Keys are kind-scoped: restart only applies to crash.
    EXPECT_THROW(FaultSchedule::parse("dbslow@10:restart=5"),
                 std::invalid_argument);
}

TEST(FaultScheduleTest, NodeAllIsDegradeOnly)
{
    // A crash or poolkill acts on one node's stack or pool, so it must
    // name one; the rejection names the offending token.
    for (const char *spec :
         {"crash@5:node=all,restart=1", "poolkill@5:node=all"}) {
        try {
            FaultSchedule::parse(spec);
            ADD_FAILURE() << spec << " parsed";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(FaultSchedule::parse("degrade@5:node=all").events()[0].node,
              FaultEvent::kAllNodes);
}

TEST(FaultScheduleTest, DescribeNamesEveryKind)
{
    EXPECT_STREQ(faultKindName(FaultKind::NodeCrash), "crash");
    EXPECT_STREQ(faultKindName(FaultKind::LinkDegrade), "degrade");
    EXPECT_STREQ(faultKindName(FaultKind::DbSlow), "dbslow");
    EXPECT_STREQ(faultKindName(FaultKind::PoolKill), "poolkill");
    EXPECT_STREQ(faultKindName(FaultKind::DbCrash), "dbcrash");
    EXPECT_STREQ(faultKindName(FaultKind::DbTornWrite), "tornwrite");
}

TEST(FaultScheduleTest, ParsesDbCrashAndTornWrite)
{
    const FaultSchedule s = FaultSchedule::parse(
        "dbcrash@60:restart=2;tornwrite@80:restart=1.5");
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.events()[0].kind, FaultKind::DbCrash);
    EXPECT_EQ(s.events()[0].at, secs(60.0));
    EXPECT_EQ(s.events()[0].restart_after, secs(2.0));
    EXPECT_EQ(s.events()[1].kind, FaultKind::DbTornWrite);
    EXPECT_EQ(s.events()[1].restart_after, secs(1.5));
    EXPECT_TRUE(s.hasDbFault());
}

TEST(FaultScheduleTest, DbVerbsNeedNoNode)
{
    // The DB tier is shared: the verbs take no node= key.
    const FaultSchedule s = FaultSchedule::parse("dbcrash@10");
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.events()[0].restart_after, 0u); // stays down
}

TEST(FaultScheduleTest, HasDbFaultFalseWithoutDbVerbs)
{
    EXPECT_FALSE(FaultSchedule::parse("").hasDbFault());
    EXPECT_FALSE(FaultSchedule::parse("crash@10:node=0,restart=5")
                     .hasDbFault());
    EXPECT_FALSE(
        FaultSchedule::parse("dbslow@10:mult=4").hasDbFault());
}

TEST(FaultScheduleTest, RejectsMalformedDbVerbs)
{
    EXPECT_THROW(FaultSchedule::parse("dbcrash@10:restart=abc"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("tornwrite@10:restart="),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("dbcrash@abc:restart=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("dbcrash@-3"),
                 std::invalid_argument);
    // Keys are kind-scoped: dbcrash has no duration or node.
    EXPECT_THROW(FaultSchedule::parse("dbcrash@10:dur=5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("tornwrite@10:node=0"),
                 std::invalid_argument);
}

TEST(FaultScheduleTest, ParsesShardScopedDbCrash)
{
    const FaultSchedule s =
        FaultSchedule::parse("dbcrash@60:shard=1,restart=2");
    ASSERT_EQ(s.size(), 1u);
    const FaultEvent &e = s.events()[0];
    EXPECT_EQ(e.kind, FaultKind::DbCrash);
    EXPECT_EQ(e.shard, 1u);
    EXPECT_EQ(e.replica, FaultEvent::kNoTarget); // primary by default
    EXPECT_EQ(e.restart_after, secs(2.0));
    EXPECT_TRUE(s.hasDbFault());
}

TEST(FaultScheduleTest, ShardDefaultsToUnspecified)
{
    // No shard key: the injector targets shard 0 (and the legacy
    // single-box tier ignores the scoping entirely).
    const FaultSchedule s = FaultSchedule::parse("dbcrash@60");
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.events()[0].shard, FaultEvent::kNoTarget);
    EXPECT_EQ(s.events()[0].replica, FaultEvent::kNoTarget);
}

TEST(FaultScheduleTest, ParsesReplicaScopedDbCrash)
{
    const FaultSchedule s = FaultSchedule::parse(
        "dbcrash@60:shard=1,replica=0,restart=5");
    ASSERT_EQ(s.size(), 1u);
    const FaultEvent &e = s.events()[0];
    EXPECT_EQ(e.shard, 1u);
    EXPECT_EQ(e.replica, 0u);
    EXPECT_EQ(e.restart_after, secs(5.0));
}

TEST(FaultScheduleTest, TornWriteTakesShardButNotReplica)
{
    // A torn write is a primary WAL-device event: shard= scopes it,
    // replica= is meaningless and rejected.
    const FaultSchedule s =
        FaultSchedule::parse("tornwrite@80:shard=2,restart=1");
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.events()[0].shard, 2u);
    EXPECT_THROW(FaultSchedule::parse("tornwrite@80:replica=0"),
                 std::invalid_argument);
}

TEST(FaultScheduleTest, ShardAndReplicaKeysAreKindScoped)
{
    EXPECT_THROW(FaultSchedule::parse("crash@10:node=0,shard=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("dbslow@10:mult=2,shard=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("degrade@10:lat=2,replica=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("poolkill@10:node=0,shard=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("dbcrash@10:shard=abc"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("dbcrash@10:replica="),
                 std::invalid_argument);
}

TEST(FaultScheduleTest, DescribeCarriesShardAndReplicaScope)
{
    EXPECT_EQ(FaultSchedule::parse("dbcrash@60:shard=1,restart=2")
                  .summary(),
              "dbcrash@60s shard=1 restart=2s");
    EXPECT_EQ(
        FaultSchedule::parse("dbcrash@60:shard=1,replica=0,restart=5")
            .summary(),
        "dbcrash@60s shard=1 replica=0 restart=5s");
}

TEST(FaultScheduleTest, ReplicaCrashStillCountsAsDbFault)
{
    // hasDbFault() stays honest under scoping: a replica-only crash
    // is still a DB-tier event (the cluster arms audit/recovery).
    EXPECT_TRUE(FaultSchedule::parse("dbcrash@5:shard=0,replica=0")
                    .hasDbFault());
}

TEST(FaultScheduleTest, MixedVerbsSortStablyByTime)
{
    // Distinct shards: same-time DB verbs on one shard would trip the
    // already-down validation.
    const FaultSchedule s = FaultSchedule::parse(
        "tornwrite@30:restart=1;crash@10:node=0,restart=5;"
        "dbcrash@30:shard=1,restart=1");
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.events()[0].kind, FaultKind::NodeCrash);
    // Same-time events keep spec order: tornwrite was written first.
    EXPECT_EQ(s.events()[1].kind, FaultKind::DbTornWrite);
    EXPECT_EQ(s.events()[2].kind, FaultKind::DbCrash);
}

// ---- partition / switchover verbs ----

TEST(FaultScheduleTest, ParsesPartitionWithSides)
{
    const FaultSchedule s = FaultSchedule::parse(
        "partition@60:sides=0,1,db0|2,db0.0,dur=20");
    ASSERT_EQ(s.size(), 1u);
    const FaultEvent &e = s.events()[0];
    EXPECT_EQ(e.kind, FaultKind::Partition);
    EXPECT_EQ(e.at, secs(60.0));
    EXPECT_EQ(e.duration, secs(20.0));
    ASSERT_EQ(e.sides.size(), 2u);
    ASSERT_EQ(e.sides[0].size(), 3u);
    EXPECT_EQ(e.sides[0][0], NetEndpoint::node(0));
    EXPECT_EQ(e.sides[0][1], NetEndpoint::node(1));
    EXPECT_EQ(e.sides[0][2], NetEndpoint::dbPrimary(0));
    ASSERT_EQ(e.sides[1].size(), 2u);
    EXPECT_EQ(e.sides[1][0], NetEndpoint::node(2));
    EXPECT_EQ(e.sides[1][1], NetEndpoint::dbReplica(0, 0));
    EXPECT_TRUE(s.hasPartition());
    EXPECT_FALSE(s.hasSwitchover());
    EXPECT_FALSE(s.hasDbFault());
}

TEST(FaultScheduleTest, PartitionWithoutDurIsPermanent)
{
    const FaultSchedule s =
        FaultSchedule::parse("partition@10:sides=0|db0.0");
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.events()[0].duration, 0u);
}

TEST(FaultScheduleTest, ParsesSwitchover)
{
    const FaultSchedule s =
        FaultSchedule::parse("switchover@45:shard=1");
    ASSERT_EQ(s.size(), 1u);
    EXPECT_EQ(s.events()[0].kind, FaultKind::Switchover);
    EXPECT_EQ(s.events()[0].shard, 1u);
    EXPECT_TRUE(s.hasSwitchover());
    EXPECT_FALSE(s.hasPartition());

    // shard= may be omitted; the cluster defaults it to shard 0.
    const FaultSchedule d = FaultSchedule::parse("switchover@45");
    EXPECT_EQ(d.events()[0].shard, FaultEvent::kNoTarget);
}

TEST(FaultScheduleTest, RejectsMalformedPartitionSpecs)
{
    // sides= is mandatory.
    EXPECT_THROW(FaultSchedule::parse("partition@60:dur=5"),
                 std::invalid_argument);
    // At least two sides.
    EXPECT_THROW(FaultSchedule::parse("partition@60:sides=0,1"),
                 std::invalid_argument);
    // No empty side.
    EXPECT_THROW(FaultSchedule::parse("partition@60:sides=0|"),
                 std::invalid_argument);
    // Endpoint grammar: nodes take no suffix, db wants digits.
    EXPECT_THROW(FaultSchedule::parse("partition@60:sides=0.1|db0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("partition@60:sides=dbx|0"),
                 std::invalid_argument);
    // An endpoint cannot sit on both sides of a split.
    EXPECT_THROW(
        FaultSchedule::parse("partition@60:sides=0,db0|db0,1"),
        std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("partition@60:sides=0,0|1"),
                 std::invalid_argument);
}

TEST(FaultScheduleTest, PartitionAndSwitchoverKeysAreKindScoped)
{
    // sides= belongs to partition alone.
    EXPECT_THROW(FaultSchedule::parse("crash@5:node=0,sides=0|1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("switchover@5:sides=0|1"),
                 std::invalid_argument);
    // switchover takes shard= but not node=, restart=, or replica=.
    EXPECT_THROW(FaultSchedule::parse("switchover@5:node=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("switchover@5:restart=2"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("switchover@5:replica=0"),
                 std::invalid_argument);
    // partition takes dur= but not shard= or restart=.
    EXPECT_THROW(
        FaultSchedule::parse("partition@5:sides=0|1,shard=0"),
        std::invalid_argument);
    EXPECT_THROW(
        FaultSchedule::parse("partition@5:sides=0|1,restart=2"),
        std::invalid_argument);
}

TEST(FaultScheduleTest, DescribeCarriesSidesAndSwitchoverShard)
{
    const FaultSchedule s = FaultSchedule::parse(
        "partition@60:sides=0,db0|1,db0.1,dur=20;switchover@90:shard=2");
    EXPECT_EQ(s.events()[0].describe(),
              "partition@60s sides=0,db0|1,db0.1 dur=20s");
    EXPECT_EQ(s.events()[1].describe(), "switchover@90s shard=2");
    EXPECT_NE(s.summary().find("partition@60s"), std::string::npos);
}

// ---- whole-schedule validation ----

TEST(FaultScheduleTest, RejectsExactDuplicateEvents)
{
    EXPECT_THROW(FaultSchedule::parse(
                     "crash@10:node=2,restart=5;crash@10:node=2"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse(
                     "switchover@30:shard=1;switchover@30:shard=1"),
                 std::invalid_argument);
    // Same time, different target: fine.
    EXPECT_NO_THROW(FaultSchedule::parse(
        "crash@10:node=1,restart=5;crash@10:node=2,restart=5"));
}

TEST(FaultScheduleTest, RejectsVerbsAgainstDownNode)
{
    // Inside the [at, at+restart) window.
    EXPECT_THROW(FaultSchedule::parse(
                     "crash@10:node=0,restart=30;poolkill@20:node=0"),
                 std::invalid_argument);
    // A restart-less crash keeps the node down forever.
    EXPECT_THROW(FaultSchedule::parse(
                     "crash@10:node=0;crash@500:node=0"),
                 std::invalid_argument);
    // After the restart: fine.
    EXPECT_NO_THROW(FaultSchedule::parse(
        "crash@10:node=0,restart=5;poolkill@20:node=0"));
    // Different node: fine.
    EXPECT_NO_THROW(FaultSchedule::parse(
        "crash@10:node=0,restart=30;poolkill@20:node=1"));
}

TEST(FaultScheduleTest, RejectsVerbsAgainstDownShard)
{
    EXPECT_THROW(FaultSchedule::parse(
                     "dbcrash@10:shard=1,restart=30;"
                     "switchover@20:shard=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse(
                     "dbcrash@10:restart=30;tornwrite@20:restart=1"),
                 std::invalid_argument);
    // A downed replica does not block a primary-side verb.
    EXPECT_NO_THROW(FaultSchedule::parse(
        "dbcrash@10:shard=1,replica=0,restart=30;"
        "switchover@20:shard=1"));
    // But the same replica twice inside its window is rejected.
    EXPECT_THROW(FaultSchedule::parse(
                     "dbcrash@10:shard=1,replica=0,restart=30;"
                     "dbcrash@20:shard=1,replica=0"),
                 std::invalid_argument);
}

TEST(FaultScheduleTest, RejectsOverlappingPartitionWindows)
{
    EXPECT_THROW(FaultSchedule::parse(
                     "partition@10:sides=0|1,dur=30;"
                     "partition@20:sides=0|2,dur=5"),
                 std::invalid_argument);
    // A permanent partition blocks any later one.
    EXPECT_THROW(FaultSchedule::parse(
                     "partition@10:sides=0|1;"
                     "partition@900:sides=0|2,dur=5"),
                 std::invalid_argument);
    // Sequential windows are fine.
    EXPECT_NO_THROW(FaultSchedule::parse(
        "partition@10:sides=0|1,dur=5;partition@20:sides=0|2,dur=5"));
}

TEST(FaultScheduleTest, TargetsAreIntegers)
{
    // node, shard and replica were read as doubles and cast: node=1.7
    // crashed node 1, and the cast of 1e30 was undefined.
    for (const char *spec :
         {"crash@1:node=1.7", "dbcrash@1:shard=2.5", "crash@1:node=1e30",
          "dbcrash@1:replica=0.5", "poolkill@1:node=-1"}) {
        try {
            FaultSchedule::parse(spec);
            ADD_FAILURE() << spec << " parsed";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            const std::string item =
                std::string(spec).substr(std::string(spec).find(':') + 1);
            EXPECT_NE(what.find("--faults"), std::string::npos) << what;
            EXPECT_NE(what.find(item), std::string::npos) << what;
        }
    }
    // Base 0, like every other integer the program reads.
    EXPECT_EQ(FaultSchedule::parse("crash@1:node=0x10").events()[0].node,
              16u);
}

TEST(FaultScheduleTest, TimesStayInsideSimTime)
{
    EXPECT_THROW(FaultSchedule::parse("crash@2e9:node=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("crash@1:node=0,restart=1e300"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSchedule::parse("dbslow@1:mult=2,dur=inf"),
                 std::invalid_argument);
    EXPECT_EQ(FaultSchedule::parse("dbslow@1e9:mult=2").events()[0].at,
              secs(1e9));
}

TEST(FaultScheduleTest, CheckTargetsNamesWhatTheLargestClusterLacks)
{
    // Two nodes and two shards of one replica each.
    const auto check = [](const char *spec) {
        FaultSchedule::parse(spec).checkTargets(2, 2, 1);
    };
    for (const char *spec :
         {"crash@1:node=1", "degrade@1:node=all,lat=2", "poolkill@1:node=0",
          "dbcrash@1:shard=1,replica=0", "tornwrite@1", "dbslow@1:mult=2",
          "switchover@1:shard=1", "partition@1:sides=0,db1|1,db1.0"})
        EXPECT_NO_THROW(check(spec)) << spec;

    for (const auto &[spec, target] :
         {std::pair{"crash@1:node=2", "node=2"},
          std::pair{"degrade@1:node=5,lat=2", "node=5"},
          std::pair{"poolkill@1:node=16", "node=16"},
          std::pair{"dbcrash@1:shard=2", "shard=2"},
          std::pair{"tornwrite@1:shard=3", "shard=3"},
          std::pair{"switchover@1:shard=2", "shard=2"},
          std::pair{"dbcrash@1:replica=1", "replica=1"},
          std::pair{"partition@1:sides=0|2", "endpoint 2"},
          std::pair{"partition@1:sides=0|db2", "endpoint db2"},
          std::pair{"partition@1:sides=0|db1.1", "endpoint db1.1"}}) {
        try {
            check(spec);
            ADD_FAILURE() << spec << " passed";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("--faults"), std::string::npos) << what;
            EXPECT_NE(what.find(target), std::string::npos) << what;
        }
    }
    // No replica at all: a replica crash has no target.
    EXPECT_THROW(
        FaultSchedule::parse("dbcrash@1:replica=0").checkTargets(2, 1, 0),
        std::invalid_argument);
}

TEST(FaultScheduleTest, PartitionRejectsAnEndpointIndexThatOverflows)
{
    // The endpoint digit loop wrapped: db18446744073709551617 became
    // shard 1.
    EXPECT_THROW(
        FaultSchedule::parse("partition@1:sides=db18446744073709551617|0"),
        std::invalid_argument);
}

} // namespace
} // namespace jasim
