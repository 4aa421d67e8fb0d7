/**
 * @file
 * Property-based network suites: ECMP spreading, random-traffic delivery
 * across a matrix of topology shapes, sustained lossless traffic through
 * the full fabric with zero switch drops, and calibration guards that
 * pin the Figure 10 latency bands against regressions.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/cloud.hpp"
#include "fpga/null_role.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ccsim;
using sim::EventQueue;

class CollectorSink : public net::PacketSink
{
  public:
    std::vector<net::PacketPtr> packets;
    void acceptPacket(const net::PacketPtr &pkt) override
    {
        packets.push_back(pkt);
    }
};

TEST(Ecmp, FlowsSpreadAcrossEqualRoutes)
{
    EventQueue eq;
    net::Switch sw(eq, net::SwitchConfig{});
    // Two equal-cost uplinks.
    net::Link up0(eq, "u0", 40.0, 1.0), up1(eq, "u1", 40.0, 1.0);
    CollectorSink s0, s1;
    up0.attachA(&s0);
    up1.attachA(&s1);
    const int p0 = sw.addPort(&up0.bToA());
    const int p1 = sw.addPort(&up1.bToA());
    sw.setDefaultRoutes({p0, p1});
    net::Link in(eq, "in", 40.0, 1.0);
    const int pi = sw.addPort(&in.bToA());

    // 200 distinct flows; each flow must stick to one path.
    std::map<std::uint16_t, int> flow_path;
    for (std::uint16_t flow = 0; flow < 200; ++flow) {
        for (int k = 0; k < 3; ++k) {
            auto pkt = net::makePacket();
            pkt->ipSrc = {1};
            pkt->ipDst = {2};
            pkt->srcPort = flow;
            pkt->payloadBytes = 64;
            sw.portSink(pi)->acceptPacket(pkt);
        }
    }
    eq.runAll();
    // Roughly even split (hash-based), and each flow on exactly one path.
    EXPECT_GT(s0.packets.size(), 150u);
    EXPECT_GT(s1.packets.size(), 150u);
    EXPECT_EQ(s0.packets.size() + s1.packets.size(), 600u);
    std::map<std::uint16_t, std::set<int>> paths;
    for (const auto &p : s0.packets)
        paths[p->srcPort].insert(0);
    for (const auto &p : s1.packets)
        paths[p->srcPort].insert(1);
    for (const auto &[flow, set] : paths)
        EXPECT_EQ(set.size(), 1u) << "flow " << flow << " split";
}

class TopologyShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>>
{
};

TEST_P(TopologyShapes, RandomTrafficAllDelivered)
{
    auto [hosts, racks, l1s, pods, l2s] = GetParam();
    EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = hosts;
    cfg.racksPerPod = racks;
    cfg.l1PerPod = l1s;
    cfg.pods = pods;
    cfg.l2Count = l2s;
    net::Topology topo(eq, cfg);

    std::vector<std::unique_ptr<CollectorSink>> sinks;
    for (int i = 0; i < topo.numHosts(); ++i) {
        sinks.push_back(std::make_unique<CollectorSink>());
        topo.attachHostDevice(i, sinks.back().get());
    }

    sim::Rng rng(55);
    std::vector<int> expected(topo.numHosts(), 0);
    const int kPackets = 300;
    for (int i = 0; i < kPackets; ++i) {
        const int src =
            static_cast<int>(rng.uniformInt(std::uint64_t(topo.numHosts())));
        int dst;
        do {
            dst = static_cast<int>(
                rng.uniformInt(std::uint64_t(topo.numHosts())));
        } while (dst == src);
        auto pkt = net::makePacket();
        pkt->ipSrc = topo.host(src).addr;
        pkt->ipDst = topo.host(dst).addr;
        pkt->payloadBytes = static_cast<std::uint32_t>(
            64 + rng.uniformInt(std::uint64_t{1200}));
        topo.hostTx(src).send(pkt);
        ++expected[dst];
    }
    eq.runAll();
    for (int i = 0; i < topo.numHosts(); ++i)
        EXPECT_EQ(static_cast<int>(sinks[i]->packets.size()), expected[i])
            << "host " << i;
    EXPECT_EQ(topo.totalSwitchDrops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyShapes,
    ::testing::Values(std::tuple{2, 2, 1, 1, 1},   // minimal
                      std::tuple{4, 3, 2, 2, 2},   // moderate
                      std::tuple{8, 2, 2, 3, 2},   // many pods
                      std::tuple{3, 4, 3, 2, 3},   // wide fabric
                      std::tuple{24, 2, 2, 1, 1})); // full racks

TEST(LosslessFabric, SustainedLtlLoadZeroDrops)
{
    // Multiple LTL pairs saturating shared fabric links: PFC + DC-QCN
    // must keep the lossless class at exactly zero switch drops.
    EventQueue eq;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 1;  // single L1: deliberate bottleneck
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.shellTemplate.ltl.maxConnections = 16;
    cfg.shellTemplate.roleSlots = 2;
    core::ConfigurableCloud cloud(eq, cfg);

    struct CountRole : fpga::Role {
        int port = -1;
        int received = 0;
        std::string name() const override { return "count"; }
        std::uint32_t areaAlms() const override { return 100; }
        void attach(fpga::Shell &, int p) override { port = p; }
        void onMessage(const router::ErMessagePtr &msg) override
        {
            if (msg->srcEndpoint == fpga::kErPortLtl)
                ++received;
        }
    };
    // Cross-rack pairs: (0->4), (1->5), (2->6), (3->7) all share the
    // TOR-to-L1 uplinks.
    std::vector<std::unique_ptr<CountRole>> rxs;
    const int kPerSender = 120;
    std::vector<core::LtlChannel> channels;  // keep connections open
    for (int s = 0; s < 4; ++s) {
        rxs.push_back(std::make_unique<CountRole>());
        ASSERT_GE(cloud.shell(4 + s).addRole(rxs.back().get()), 0);
        auto ch = cloud.openLtl(s, 4 + s, rxs.back()->port);
        for (int i = 0; i < kPerSender; ++i)
            cloud.shell(s).ltlEngine()->sendMessage(ch.sendConn(), 1408);
        channels.push_back(std::move(ch));
    }
    eq.runFor(sim::fromMillis(100));
    for (auto &rx : rxs)
        EXPECT_EQ(rx->received, kPerSender);
    EXPECT_EQ(cloud.topology().totalSwitchDrops(), 0u);
}

// ---------------------------------------------------------------------
// Calibration guards: pin the Figure 10 bands so refactors cannot
// silently move the reproduced results.
// ---------------------------------------------------------------------

class Fig10Guard
    : public ::testing::TestWithParam<std::tuple<int, double, double>>
{
};

TEST_P(Fig10Guard, TierRttWithinCalibratedBand)
{
    auto [dst, lo_us, hi_us] = GetParam();
    EventQueue eq;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 24;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 2;
    cfg.topology.l2Count = 2;
    cfg.createNics = false;
    cfg.shellTemplate.ltl.maxConnections = 8;
    core::ConfigurableCloud cloud(eq, cfg);

    fpga::NullRole sink;
    ASSERT_GE(cloud.shell(dst).addRole(&sink), 0);
    auto ch = cloud.openLtl(0, dst, sink.port);
    auto *engine = cloud.shell(0).ltlEngine();
    for (int i = 0; i < 60; ++i) {
        eq.scheduleAfter(i * 20 * sim::kMicrosecond,
                         [engine, conn = ch.sendConn()] {
                             engine->sendMessage(conn, 64);
                         });
    }
    eq.runFor(sim::fromMillis(3));
    ASSERT_GE(engine->rttUs().count(), 60u);
    const double avg = engine->rttUs().mean();
    EXPECT_GE(avg, lo_us);
    EXPECT_LE(avg, hi_us);
}

INSTANTIATE_TEST_SUITE_P(
    Bands, Fig10Guard,
    ::testing::Values(std::tuple{1, 2.7, 3.1},    // L0: paper 2.88
                      std::tuple{24, 7.2, 8.3},   // L1: paper 7.72
                      std::tuple{48, 17.5, 20.5}));  // L2: paper 18.71

TEST(Fig6Guard, AccelerationGainNearPaper)
{
    // Coarse guard on the 2.25x headline (few points, short runs).
    auto capacity = [](bool use_fpga) {
        EventQueue eq;
        std::unique_ptr<host::LocalFpgaAccelerator> accel;
        if (use_fpga)
            accel = std::make_unique<host::LocalFpgaAccelerator>(eq);
        host::RankingServer server(eq, host::RankingServiceParams{},
                                   accel.get(), 17);
        host::PoissonLoadGenerator gen(eq, 20000.0,
                                       [&] { server.submitQuery(); }, 19);
        gen.start();
        eq.runUntil(sim::fromSeconds(8.0));
        gen.stop();
        return server.completed() / 8.0;
    };
    const double gain = capacity(true) / capacity(false);
    EXPECT_GE(gain, 1.9);
    EXPECT_LE(gain, 2.6);
}

}  // namespace
