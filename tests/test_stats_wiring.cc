/**
 * @file
 * Tests for the counters the network components keep (router, NI
 * and link) and for larger mesh shapes than the paper's 2x2.
 */

#include <gtest/gtest.h>

#include "network/network.hh"
#include "traffic/stream.hh"

namespace {

using namespace mediaworm;
using namespace mediaworm::sim;
using namespace mediaworm::network;

traffic::MessageDesc
simpleMessage(int src, int dst)
{
    traffic::MessageDesc desc;
    desc.stream = StreamId(src * 100 + dst);
    desc.dest = NodeId(dst);
    desc.cls = router::TrafficClass::Vbr;
    desc.vcLane = 0;
    desc.vtick = microseconds(8);
    desc.numFlits = 5;
    desc.endOfFrame = true;
    return desc;
}

/** Flits sent over the link named @p name; fails if there is none. */
std::uint64_t
linkFlits(const Network& net, const std::string& name)
{
    for (const auto& link : net.links()) {
        if (link->name() == name)
            return link->flitsSent();
    }
    ADD_FAILURE() << "no link named " << name;
    return 0;
}

TEST(StatsWiring, SingleSwitchRegistryTracksTraffic)
{
    Simulator simulator;
    config::RouterConfig router_cfg;
    config::NetworkConfig net_cfg;
    MetricsHub metrics;
    Rng rng(1);
    Network net(simulator, router_cfg, net_cfg, metrics, rng);

    // One router, 8 NIs, an injection and an ejection link per node.
    ASSERT_EQ(net.numRouters(), 1);
    ASSERT_EQ(net.numNodes(), 8);
    EXPECT_EQ(net.links().size(), 16u);
    const router::WormholeRouter& sw = net.router(0);
    EXPECT_EQ(sw.flitsForwarded(), 0u);

    net.ni(0).injectMessage(simpleMessage(0, 5));
    simulator.runToCompletion();

    EXPECT_EQ(sw.flitsForwarded(), 5u);
    EXPECT_EQ(sw.headersRouted(), 1u);
    EXPECT_EQ(sw.allocationWaits(), 0u);
    EXPECT_EQ(net.ni(0).flitsInjected(), 5u);
    EXPECT_EQ(net.ni(0).backlogFlits(), 0u);
    EXPECT_EQ(linkFlits(net, "inj0"), 5u);
    EXPECT_EQ(linkFlits(net, "ej5"), 5u);
    for (int node = 0; node < net.numNodes(); ++node) {
        if (node != 0) {
            EXPECT_EQ(net.ni(node).flitsInjected(), 0u) << node;
        }
        EXPECT_EQ(sw.outputLoad(node), 0) << node;
    }
}

TEST(StatsWiring, FatMeshRegistersEveryRouter)
{
    Simulator simulator;
    config::RouterConfig router_cfg;
    config::NetworkConfig net_cfg;
    net_cfg.topology = config::TopologyKind::FatMesh;
    MetricsHub metrics;
    Rng rng(1);
    Network net(simulator, router_cfg, net_cfg, metrics, rng);

    // Node 0 (switch 0) to node 15 (switch 3) crosses the diagonal:
    // the source, one intermediate and the destination router each
    // forward the message, and switch 1 or 2 stays idle.
    ASSERT_EQ(net.numRouters(), 4);
    net.ni(0).injectMessage(simpleMessage(0, 15));
    simulator.runToCompletion();

    std::uint64_t forwarded = 0;
    std::uint64_t routed = 0;
    for (int r = 0; r < 4; ++r) {
        forwarded += net.router(r).flitsForwarded();
        routed += net.router(r).headersRouted();
    }
    EXPECT_EQ(net.router(0).flitsForwarded(), 5u);
    EXPECT_EQ(net.router(3).flitsForwarded(), 5u);
    EXPECT_EQ(forwarded, 15u);
    EXPECT_EQ(routed, 3u);
    EXPECT_EQ(linkFlits(net, "inj0"), 5u);
    EXPECT_EQ(linkFlits(net, "ej15"), 5u);
}

TEST(LargerMesh, ThreeByThreeThinMeshDelivers)
{
    // Beyond the paper: a 3x3 mesh with single (thin) inter-switch
    // links fits the 8-port router with 4 endpoints per switch.
    Simulator simulator;
    config::RouterConfig router_cfg;
    config::NetworkConfig net_cfg;
    net_cfg.topology = config::TopologyKind::FatMesh;
    net_cfg.meshWidth = 3;
    net_cfg.meshHeight = 3;
    net_cfg.fatFactor = 1;
    net_cfg.endpointsPerSwitch = 4;
    MetricsHub metrics;
    Rng rng(1);
    Network net(simulator, router_cfg, net_cfg, metrics, rng);

    EXPECT_EQ(net.numNodes(), 36);
    EXPECT_EQ(net.numRouters(), 9);

    // Corner to corner crosses four hops of XY routing.
    net.ni(0).injectMessage(simpleMessage(0, 35));
    // And a reverse-direction message exercises west/north ports.
    net.ni(35).injectMessage(simpleMessage(35, 0));
    simulator.runToCompletion();

    EXPECT_EQ(metrics.frames().framesDelivered(), 2u);
    for (int r = 0; r < 9; ++r)
        net.router(r).checkInvariants();
}

TEST(LargerMesh, RectangularMeshDelivers)
{
    // 4x2 mesh, fat factor 1: row-interior switches have 3
    // neighbours (3 ports) + 4 endpoints = 7 ports.
    Simulator simulator;
    config::RouterConfig router_cfg;
    config::NetworkConfig net_cfg;
    net_cfg.topology = config::TopologyKind::FatMesh;
    net_cfg.meshWidth = 4;
    net_cfg.meshHeight = 2;
    net_cfg.fatFactor = 1;
    net_cfg.endpointsPerSwitch = 4;
    MetricsHub metrics;
    Rng rng(1);
    Network net(simulator, router_cfg, net_cfg, metrics, rng);

    EXPECT_EQ(net.numNodes(), 32);
    int sent = 0;
    for (int src : {0, 13, 31}) {
        for (int dst : {5, 18, 27}) {
            if (src == dst)
                continue;
            net.ni(src).injectMessage(simpleMessage(src, dst));
            ++sent;
        }
    }
    simulator.runToCompletion();
    EXPECT_EQ(metrics.frames().framesDelivered(),
              static_cast<std::uint64_t>(sent));
}

} // namespace
