/**
 * @file
 * Unit tests for the torus and crossbar networks: routing correctness,
 * wraparound shortest paths, latency composition, link contention, and
 * per-path FIFO ordering.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "noc/crossbar.hh"
#include "noc/torus.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace ccsvm::noc
{
namespace
{

class TorusTest : public ::testing::Test
{
  protected:
    TorusConfig
    makeConfig(int w, int h)
    {
        TorusConfig cfg;
        cfg.width = w;
        cfg.height = h;
        cfg.linkBandwidthGBps = 12.0;
        cfg.hopLatency = 2;
        cfg.clockPeriod = 1000;
        return cfg;
    }

    sim::EventQueue eq;
    sim::StatRegistry stats;
};

TEST_F(TorusTest, HopCountsUseWraparound)
{
    TorusNetwork net(eq, stats, "noc", makeConfig(4, 4));
    // Same node.
    EXPECT_EQ(net.hopCount(0, 0), 0);
    // Adjacent.
    EXPECT_EQ(net.hopCount(0, 1), 1);
    // Wraparound in X: 0 -> 3 is one hop on a 4-ring.
    EXPECT_EQ(net.hopCount(0, 3), 1);
    // Opposite corner: 2 in X (either way) + 2 in Y.
    EXPECT_EQ(net.hopCount(0, 10), 4);
    // Wraparound in Y: node 0 -> node 12 (row 3) is one hop.
    EXPECT_EQ(net.hopCount(0, 12), 1);
}

TEST_F(TorusTest, XyRoutingGoesXFirst)
{
    TorusNetwork net(eq, stats, "noc", makeConfig(4, 4));
    // From 0 to 5 (x=1, y=1): first hop must change X.
    EXPECT_EQ(net.nextHop(0, 5), 1);
    // Then Y.
    EXPECT_EQ(net.nextHop(1, 5), 5);
}

TEST_F(TorusTest, DeliveryLatencyMatchesHops)
{
    TorusNetwork net(eq, stats, "noc", makeConfig(4, 4));
    Tick arrived = 0;
    // 0 -> 2: two X hops. Each hop: serialization of 8 B at 12 GB/s
    // (666 ps -> under one cycle) + 2-cycle hop latency.
    net.send(0, 2, VNet::Request, 8, [&] { arrived = eq.now(); });
    eq.run();
    EXPECT_GT(arrived, 0u);
    // Two hops, each at least 2 NoC cycles: >= 4 ns.
    EXPECT_GE(arrived, 4000u);
    // And well under a microsecond.
    EXPECT_LT(arrived, 10000u);
}

TEST_F(TorusTest, AllPairsDeliver)
{
    TorusNetwork net(eq, stats, "noc", makeConfig(5, 4));
    int delivered = 0;
    for (int s = 0; s < net.numNodes(); ++s) {
        for (int d = 0; d < net.numNodes(); ++d)
            net.send(s, d, VNet::Response, 72, [&] { ++delivered; });
    }
    eq.run();
    EXPECT_EQ(delivered, net.numNodes() * net.numNodes());
}

TEST_F(TorusTest, SamePathFifoOrder)
{
    TorusNetwork net(eq, stats, "noc", makeConfig(4, 4));
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        net.send(0, 2, VNet::Request, 72,
                 [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(TorusTest, ContentionDelaysSharedLink)
{
    TorusNetwork net(eq, stats, "noc", makeConfig(4, 1));
    // Two large packets over the same 0->1 link: the second must
    // arrive at least one serialization time after the first.
    Tick first = 0, second = 0;
    net.send(0, 1, VNet::Response, 4096, [&] { first = eq.now(); });
    net.send(0, 1, VNet::Response, 4096, [&] { second = eq.now(); });
    eq.run();
    // 4096 B at 12 GB/s = ~341 ns serialization.
    EXPECT_GE(second - first, 340000u);
}

TEST_F(TorusTest, DisjointPathsDoNotInterfere)
{
    TorusNetwork net(eq, stats, "noc", makeConfig(4, 4));
    Tick a = 0, b = 0;
    net.send(0, 1, VNet::Request, 72, [&] { a = eq.now(); });
    net.send(8, 9, VNet::Request, 72, [&] { b = eq.now(); });
    eq.run();
    EXPECT_EQ(a, b) << "independent links must not contend";
}

TEST_F(TorusTest, LocalDeliveryStillCostsARouterHop)
{
    TorusNetwork net(eq, stats, "noc", makeConfig(4, 4));
    Tick arrived = 0;
    net.send(3, 3, VNet::Response, 72, [&] { arrived = eq.now(); });
    eq.run();
    EXPECT_EQ(arrived, 2000u);
}

TEST_F(TorusTest, StatsAccumulate)
{
    TorusNetwork net(eq, stats, "noc", makeConfig(4, 4));
    net.send(0, 2, VNet::Request, 8, [] {});
    net.send(0, 1, VNet::Response, 72, [] {});
    eq.run();
    EXPECT_EQ(stats.get("noc.packets"), 2u);
    EXPECT_EQ(stats.get("noc.bytes"), 80u);
    EXPECT_EQ(stats.get("noc.hops"), 3u);
}

TEST_F(TorusTest, LargeDeliveryClosureArrivesIntact)
{
    // A delivery closure the size of a coherence message: 160 bytes
    // of payload held inline by the packet. Many packets in flight at
    // once grow (and so relocate) the packet pool under them.
    TorusNetwork net(eq, stats, "noc", makeConfig(4, 4));
    using Payload = std::array<std::uint8_t, 160>;
    std::vector<int> seen(32, 0);
    for (int i = 0; i < 32; ++i) {
        Payload data;
        for (std::size_t b = 0; b < data.size(); ++b)
            data[b] = static_cast<std::uint8_t>(i * 7 + b);
        net.send(i % 16, (i * 5) % 16, VNet::Response, 72,
                 [&seen, i, data] {
                     for (std::size_t b = 0; b < data.size(); ++b)
                         ASSERT_EQ(data[b],
                                   static_cast<std::uint8_t>(i * 7 + b));
                     ++seen[i];
                 });
    }
    eq.run();
    EXPECT_EQ(seen, std::vector<int>(32, 1));
}

TEST(CrossbarTest, DeliversWithFixedLatency)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    CrossbarConfig cfg;
    cfg.nodes = 4;
    cfg.latency = 4 * tickNs;
    cfg.bandwidthGBps = 24.0;
    CrossbarNetwork net(eq, stats, "xbar", cfg);
    Tick arrived = 0;
    net.send(0, 3, VNet::Request, 8, [&] { arrived = eq.now(); });
    eq.run();
    // serialization (~0.3ns -> 1 tick floor) + 4ns latency
    EXPECT_GE(arrived, 4 * tickNs);
    EXPECT_LT(arrived, 5 * tickNs);
}

TEST(CrossbarTest, PerPortOccupancySerializes)
{
    sim::EventQueue eq;
    sim::StatRegistry stats;
    CrossbarConfig cfg;
    cfg.nodes = 4;
    cfg.latency = 1 * tickNs;
    cfg.bandwidthGBps = 1.0; // 1 byte per ns
    CrossbarNetwork net(eq, stats, "xbar", cfg);
    std::vector<Tick> arrivals;
    net.send(0, 2, VNet::Request, 1000,
             [&] { arrivals.push_back(eq.now()); });
    net.send(1, 2, VNet::Request, 1000,
             [&] { arrivals.push_back(eq.now()); });
    // Different destination: not serialized against the above.
    net.send(1, 3, VNet::Request, 1000,
             [&] { arrivals.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    std::sort(arrivals.begin(), arrivals.end());
    // Port-2 packets: ~1001ns and ~2002ns; port-3 packet: ~1001ns.
    EXPECT_GE(arrivals[2] - arrivals[0], 990 * tickNs);
}

} // namespace
} // namespace ccsvm::noc
