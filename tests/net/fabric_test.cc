#include <gtest/gtest.h>

#include "net/fabric.h"

namespace jasim {
namespace {

TEST(FabricTest, BuildsStarTopology)
{
    NetworkFabric fabric(FabricConfig{}, 4, 9);
    EXPECT_EQ(fabric.nodeCount(), 4u);
    fabric.clientLb().deliver(0, 100);
    fabric.lbNode(3).deliver(0, 100);
    fabric.nodeDb(0).deliver(0, 100);
    EXPECT_EQ(fabric.totalBytes(), 300u);
}

TEST(FabricTest, ZeroCostFabricDeliversInstantly)
{
    NetworkFabric fabric(FabricConfig::zeroCost(), 2, 9);
    EXPECT_EQ(fabric.clientLb().deliver(123, 1 << 20), 123u);
    EXPECT_EQ(fabric.nodeDb(1).deliver(456, 1 << 20), 456u);
}

TEST(FabricTest, SameSeedSameDeliveries)
{
    FabricConfig config; // LAN links with jitter
    config.node_db.jitter_sigma = 0.3;
    NetworkFabric a(config, 3, 77), b(config, 3, 77);
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(a.nodeDb(1).deliver(0, 1000),
                  b.nodeDb(1).deliver(0, 1000));
        EXPECT_EQ(a.lbNode(2).deliver(0, 1000),
                  b.lbNode(2).deliver(0, 1000));
    }
}

TEST(FabricTest, LinksJitterIndependently)
{
    FabricConfig config;
    config.node_db.jitter_sigma = 0.3;
    NetworkFabric fabric(FabricConfig(config), 2, 77);
    bool differ = false;
    for (int i = 0; i < 32; ++i) {
        differ |= fabric.nodeDb(0).deliver(0, 1) !=
            fabric.nodeDb(1).deliver(0, 1);
    }
    EXPECT_TRUE(differ);
}

// ---- partition map ----

TEST(FabricTest, UnpartitionedFabricReachesEverything)
{
    NetworkFabric fabric(FabricConfig::zeroCost(), 3, 1);
    EXPECT_FALSE(fabric.partitioned());
    EXPECT_TRUE(fabric.reachable(NetEndpoint::node(0),
                                 NetEndpoint::dbPrimary(1)));
    EXPECT_TRUE(fabric.reachable(NetEndpoint::dbReplica(0, 1),
                                 NetEndpoint::dbPrimary(0)));
}

TEST(FabricTest, PartitionSplitsCrossSideTrafficOnly)
{
    NetworkFabric fabric(FabricConfig::zeroCost(), 3, 1);
    fabric.setPartition({{NetEndpoint::node(0),
                          NetEndpoint::dbPrimary(0)},
                         {NetEndpoint::node(1),
                          NetEndpoint::dbReplica(0, 0)}});
    EXPECT_TRUE(fabric.partitioned());

    // Same side: reachable both ways.
    EXPECT_TRUE(fabric.reachable(NetEndpoint::node(0),
                                 NetEndpoint::dbPrimary(0)));
    EXPECT_TRUE(fabric.reachable(NetEndpoint::dbReplica(0, 0),
                                 NetEndpoint::node(1)));
    // Cross side: cut, symmetric.
    EXPECT_FALSE(fabric.reachable(NetEndpoint::node(0),
                                  NetEndpoint::dbReplica(0, 0)));
    EXPECT_FALSE(fabric.reachable(NetEndpoint::dbReplica(0, 0),
                                  NetEndpoint::node(0)));
    EXPECT_FALSE(fabric.reachable(NetEndpoint::dbPrimary(0),
                                  NetEndpoint::node(1)));
}

TEST(FabricTest, UnlistedEndpointsStayReachableFromEveryone)
{
    NetworkFabric fabric(FabricConfig::zeroCost(), 3, 1);
    fabric.setPartition(
        {{NetEndpoint::node(0)}, {NetEndpoint::node(1)}});
    // Node 2 and the whole DB tier are on no side.
    EXPECT_TRUE(fabric.reachable(NetEndpoint::node(0),
                                 NetEndpoint::node(2)));
    EXPECT_TRUE(fabric.reachable(NetEndpoint::node(1),
                                 NetEndpoint::dbPrimary(0)));
    EXPECT_TRUE(fabric.reachable(NetEndpoint::dbPrimary(0),
                                 NetEndpoint::dbReplica(0, 1)));
    // The listed pair is still cut.
    EXPECT_FALSE(fabric.reachable(NetEndpoint::node(0),
                                  NetEndpoint::node(1)));
}

TEST(FabricTest, ClearPartitionHealsTheFabric)
{
    NetworkFabric fabric(FabricConfig::zeroCost(), 2, 1);
    fabric.setPartition(
        {{NetEndpoint::node(0)}, {NetEndpoint::node(1)}});
    EXPECT_FALSE(fabric.reachable(NetEndpoint::node(0),
                                  NetEndpoint::node(1)));
    fabric.clearPartition();
    EXPECT_FALSE(fabric.partitioned());
    EXPECT_TRUE(fabric.reachable(NetEndpoint::node(0),
                                 NetEndpoint::node(1)));
}

TEST(FabricTest, CountsPartitionDrops)
{
    NetworkFabric fabric(FabricConfig::zeroCost(), 2, 1);
    EXPECT_EQ(fabric.partitionDrops(), 0u);
    fabric.notePartitionDrop();
    fabric.notePartitionDrop();
    EXPECT_EQ(fabric.partitionDrops(), 2u);
}

TEST(FabricTest, ParsesEndpointTokens)
{
    bool ok = false;
    EXPECT_EQ(parseNetEndpoint("3", ok), NetEndpoint::node(3));
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseNetEndpoint("db1", ok), NetEndpoint::dbPrimary(1));
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseNetEndpoint("db1.2", ok),
              NetEndpoint::dbReplica(1, 2));
    EXPECT_TRUE(ok);
    for (const char *bad : {"", "db", "x3", "3.1", "db1.", "db1.2.3"}) {
        parseNetEndpoint(bad, ok);
        EXPECT_FALSE(ok) << bad;
    }
    EXPECT_EQ(describeNetEndpoint(NetEndpoint::node(3)), "3");
    EXPECT_EQ(describeNetEndpoint(NetEndpoint::dbPrimary(1)), "db1");
    EXPECT_EQ(describeNetEndpoint(NetEndpoint::dbReplica(1, 2)),
              "db1.2");
}

TEST(FabricTest, RejectsEndpointIndicesThatDoNotFit)
{
    // A digit loop used to wrap: db18446744073709551617 was shard 1.
    bool ok = true;
    for (const char *bad :
         {"db18446744073709551617", "18446744073709551617",
          "db1.18446744073709551617", "db0x1", "-1", "db+1", " 1"}) {
        parseNetEndpoint(bad, ok);
        EXPECT_FALSE(ok) << bad;
    }
    // Indices stay decimal: a leading zero does not mean octal.
    EXPECT_EQ(parseNetEndpoint("db010", ok), NetEndpoint::dbPrimary(10));
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseNetEndpoint("08", ok), NetEndpoint::node(8));
    EXPECT_TRUE(ok);
    EXPECT_EQ(parseNetEndpoint("db0.00", ok), NetEndpoint::dbReplica(0, 0));
    EXPECT_TRUE(ok);
}

} // namespace
} // namespace jasim
