/**
 * @file
 * Network substrate tests: channel serialization/pausing, link PFC
 * interception, switch routing/ECN/PFC, topology connectivity.
 */
#include <gtest/gtest.h>

#include <vector>

#include "net/channel.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace ccsim;
using net::Channel;
using net::Link;
using net::Packet;
using net::PacketPtr;
using net::PacketSink;
using sim::EventQueue;
using sim::TimePs;

/** Collects delivered packets with timestamps. */
class CollectorSink : public PacketSink
{
  public:
    explicit CollectorSink(EventQueue &eq) : queue(eq) {}
    void acceptPacket(const PacketPtr &pkt) override
    {
        packets.push_back(pkt);
        times.push_back(queue.now());
    }
    EventQueue &queue;
    std::vector<PacketPtr> packets;
    std::vector<TimePs> times;
};

PacketPtr
makeUdp(net::Ipv4Addr src, net::Ipv4Addr dst, std::uint32_t payload,
        std::uint8_t prio = net::kTcLossy)
{
    auto pkt = net::makePacket();
    pkt->ipSrc = src;
    pkt->ipDst = dst;
    pkt->payloadBytes = payload;
    pkt->priority = prio;
    return pkt;
}

TEST(Channel, SerializationPlusPropagation)
{
    EventQueue eq;
    Channel ch(eq, "ch", 40.0, 100 * sim::kNanosecond, 1 << 20);
    CollectorSink sink(eq);
    ch.setSink(&sink);

    auto pkt = makeUdp({1}, {2}, 1000);
    const auto wire = pkt->wireBytes();
    ch.send(pkt);
    eq.runAll();
    ASSERT_EQ(sink.packets.size(), 1u);
    EXPECT_EQ(sink.times[0],
              sim::serializationDelay(wire, 40.0) + 100 * sim::kNanosecond);
}

TEST(Channel, BackToBackPacketsSerialize)
{
    EventQueue eq;
    Channel ch(eq, "ch", 40.0, 0, 1 << 20);
    CollectorSink sink(eq);
    ch.setSink(&sink);
    auto a = makeUdp({1}, {2}, 1500);
    auto b = makeUdp({1}, {2}, 1500);
    ch.send(a);
    ch.send(b);
    eq.runAll();
    ASSERT_EQ(sink.packets.size(), 2u);
    const auto gap = sink.times[1] - sink.times[0];
    EXPECT_EQ(gap, sim::serializationDelay(a->wireBytes(), 40.0));
}

TEST(Channel, DropsWhenQueueFull)
{
    EventQueue eq;
    Channel ch(eq, "ch", 0.001 /*very slow*/, 0, 4000);
    CollectorSink sink(eq);
    ch.setSink(&sink);
    int accepted = 0;
    for (int i = 0; i < 10; ++i)
        accepted += ch.send(makeUdp({1}, {2}, 1400)) ? 1 : 0;
    EXPECT_LT(accepted, 10);
    EXPECT_GT(ch.packetsDropped(), 0u);
}

TEST(Channel, PfcPausesOnlyThatPriority)
{
    EventQueue eq;
    Channel ch(eq, "ch", 40.0, 0, 1 << 20);
    CollectorSink sink(eq);
    ch.setSink(&sink);

    ch.pausePriority(net::kTcLossless, 10 * sim::kMicrosecond);
    auto lossless = makeUdp({1}, {2}, 100, net::kTcLossless);
    auto lossy = makeUdp({1}, {2}, 100, net::kTcLossy);
    ch.send(lossless);
    ch.send(lossy);
    eq.runUntil(5 * sim::kMicrosecond);
    // Only the lossy packet got through while the class was paused.
    ASSERT_EQ(sink.packets.size(), 1u);
    EXPECT_EQ(sink.packets[0]->priority, net::kTcLossy);
    eq.runUntil(20 * sim::kMicrosecond);
    ASSERT_EQ(sink.packets.size(), 2u);
    EXPECT_GE(sink.times[1], 10 * sim::kMicrosecond);
}

TEST(Channel, ResumeZeroDurationUnpauses)
{
    EventQueue eq;
    Channel ch(eq, "ch", 40.0, 0, 1 << 20);
    CollectorSink sink(eq);
    ch.setSink(&sink);
    ch.pausePriority(3, 100 * sim::kMicrosecond);
    ch.send(makeUdp({1}, {2}, 100, 3));
    eq.runUntil(1 * sim::kMicrosecond);
    EXPECT_TRUE(sink.packets.empty());
    ch.pausePriority(3, 0);  // X-ON
    eq.runUntil(2 * sim::kMicrosecond);
    EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(Link, PfcFrameIsConsumedAndPausesReverse)
{
    EventQueue eq;
    Link link(eq, "l", 40.0, 1.0);
    CollectorSink a(eq), b(eq);
    link.attachA(&a);
    link.attachB(&b);

    // B sends a PFC pause toward A; A's transmitter must pause and the
    // PFC frame must NOT be delivered to A's device.
    link.bToA().send(net::makePfcPause(net::kTcLossless,
                                       50 * sim::kMicrosecond));
    eq.runUntil(1 * sim::kMicrosecond);  // let the pause frame land at A
    auto data = makeUdp({1}, {2}, 200, net::kTcLossless);
    link.aToB().send(data);
    eq.runUntil(10 * sim::kMicrosecond);
    EXPECT_TRUE(a.packets.empty());  // PFC consumed by the shim
    EXPECT_TRUE(b.packets.empty());  // data paused
    eq.runUntil(100 * sim::kMicrosecond);
    EXPECT_EQ(b.packets.size(), 1u);  // released after pause expiry
}

TEST(Channel, IdleChannelHoldsNoQueueState)
{
    EventQueue eq;
    Channel ch(eq, "ch", 40.0, 0, 1 << 20);
    CollectorSink sink(eq);
    ch.setSink(&sink);
    // Fluid load alone leaves the per-priority state unallocated.
    ch.addFluidBps(10'000'000'000ull);
    EXPECT_FALSE(ch.holdsQueueState());
    for (std::uint8_t prio = 0; prio < net::kNumTrafficClasses; ++prio)
        EXPECT_EQ(ch.queuedBytes(prio), 0u);
    eq.runAll();
    EXPECT_FALSE(ch.holdsQueueState());

    // The first packet allocates it; draining keeps it.
    auto pkt = makeUdp({1}, {2}, 300);
    ch.send(pkt);
    EXPECT_TRUE(ch.holdsQueueState());
    eq.runAll();
    EXPECT_EQ(sink.packets.size(), 1u);
    EXPECT_TRUE(ch.holdsQueueState());
    EXPECT_EQ(ch.queuedBytes(net::kTcLossy), 0u);
}

TEST(Link, PauseAndXonThrottleAChannelWhoseFirstPacketArrivesMidPause)
{
    EventQueue eq;
    Link link(eq, "l", 40.0, 1.0);
    CollectorSink a(eq), b(eq);
    link.attachA(&a);
    link.attachB(&b);
    EXPECT_EQ(link.channelsHoldingQueueState(), 0);

    // B pauses A's lossless class before A has ever transmitted: the
    // pause alone gives A's transmitter its queue state.
    link.bToA().send(net::makePfcPause(net::kTcLossless,
                                       50 * sim::kMicrosecond));
    EXPECT_FALSE(link.aToB().holdsQueueState());
    eq.runUntil(1 * sim::kMicrosecond);
    EXPECT_TRUE(link.aToB().holdsQueueState());
    EXPECT_EQ(link.aToB().pausesReceived(), 1u);
    EXPECT_EQ(link.channelsHoldingQueueState(), 2);

    // A's first packet waits out the pause...
    auto data = makeUdp({1}, {2}, 200, net::kTcLossless);
    link.aToB().send(data);
    EXPECT_EQ(link.aToB().queuedBytes(net::kTcLossless), data->wireBytes());
    eq.runUntil(10 * sim::kMicrosecond);
    EXPECT_TRUE(b.packets.empty());

    // ...until B's X-ON ends it early, long before the pause expires.
    link.bToA().send(net::makePfcPause(net::kTcLossless, 0));
    eq.runUntil(15 * sim::kMicrosecond);
    ASSERT_EQ(b.packets.size(), 1u);
    EXPECT_GT(b.times[0], 10 * sim::kMicrosecond);
    EXPECT_EQ(link.aToB().queuedBytes(net::kTcLossless), 0u);
    EXPECT_EQ(link.aToB().pausesReceived(), 2u);
    EXPECT_TRUE(a.packets.empty());  // both PFC frames consumed
}

TEST(Switch, RoutesByHostRoute)
{
    EventQueue eq;
    net::SwitchConfig cfg;
    cfg.forwardingLatency = 450 * sim::kNanosecond;
    net::Switch sw(eq, cfg);

    Link l0(eq, "h0", 40.0, 1.0), l1(eq, "h1", 40.0, 1.0);
    CollectorSink h0(eq), h1(eq);
    // Hosts at end A, switch at end B.
    l0.attachA(&h0);
    l1.attachA(&h1);
    const int p0 = sw.addPort(&l0.bToA());
    const int p1 = sw.addPort(&l1.bToA());
    l0.attachB(sw.portSink(p0));
    l1.attachB(sw.portSink(p1));
    sw.addHostRoute({10}, p0);
    sw.addHostRoute({11}, p1);

    l0.aToB().send(makeUdp({10}, {11}, 500));  // h0 -> h1
    eq.runAll();
    EXPECT_EQ(h1.packets.size(), 1u);
    EXPECT_TRUE(h0.packets.empty());
    EXPECT_EQ(sw.packetsForwarded(), 1u);
}

TEST(Switch, PrefixAndDefaultRoutes)
{
    EventQueue eq;
    net::Switch sw(eq, net::SwitchConfig{});
    Link l0(eq, "a", 40.0, 1.0), l1(eq, "b", 40.0, 1.0),
        l2(eq, "c", 40.0, 1.0);
    CollectorSink s0(eq), s1(eq), s2(eq);
    l0.attachA(&s0);
    l1.attachA(&s1);
    l2.attachA(&s2);
    const int p0 = sw.addPort(&l0.bToA());
    const int p1 = sw.addPort(&l1.bToA());
    const int p2 = sw.addPort(&l2.bToA());
    sw.addRoute(net::Ipv4Addr::of(10, 1, 0, 0), 16, p0);
    sw.addRoute(net::Ipv4Addr::of(10, 1, 7, 0), 24, p1);  // longer match
    sw.setDefaultRoutes({p2});

    // /24 beats /16.
    auto pkt1 = makeUdp({1}, net::Ipv4Addr::of(10, 1, 7, 9), 100);
    // /16 only.
    auto pkt2 = makeUdp({1}, net::Ipv4Addr::of(10, 1, 3, 9), 100);
    // neither: default.
    auto pkt3 = makeUdp({1}, net::Ipv4Addr::of(10, 9, 0, 9), 100);
    sw.portSink(p2)->acceptPacket(pkt1);
    sw.portSink(p0)->acceptPacket(pkt2);
    sw.portSink(p0)->acceptPacket(pkt3);
    eq.runAll();
    EXPECT_EQ(s1.packets.size(), 1u);
    EXPECT_EQ(s0.packets.size(), 1u);
    EXPECT_EQ(s2.packets.size(), 1u);
}

TEST(Switch, DropsWithoutRoute)
{
    EventQueue eq;
    net::Switch sw(eq, net::SwitchConfig{});
    Link l0(eq, "a", 40.0, 1.0);
    const int p0 = sw.addPort(&l0.bToA());
    sw.portSink(p0)->acceptPacket(makeUdp({1}, {99}, 100));
    eq.runAll();
    EXPECT_EQ(sw.routeMisses(), 1u);
    EXPECT_EQ(sw.packetsDropped(), 1u);
}

TEST(Switch, EcnMarksWhenQueueDeep)
{
    EventQueue eq;
    net::SwitchConfig cfg;
    cfg.ecnThresholdBytes = 3000;  // tiny threshold
    cfg.forwardingLatency = 0;
    net::Switch sw(eq, cfg);
    Link out(eq, "o", 1.0 /*slow*/, 1.0);
    CollectorSink dst(eq);
    out.attachA(&dst);
    const int po = sw.addPort(&out.bToA());
    Link in(eq, "i", 40.0, 1.0);
    const int pi = sw.addPort(&in.bToA());
    sw.addHostRoute({5}, po);

    for (int i = 0; i < 20; ++i) {
        auto pkt = makeUdp({1}, {5}, 1400, net::kTcLossy);
        pkt->ecnCapable = true;
        sw.portSink(pi)->acceptPacket(pkt);
    }
    eq.runAll();
    EXPECT_GT(sw.packetsEcnMarked(), 0u);
    bool any_marked = false;
    for (const auto &pkt : dst.packets)
        any_marked = any_marked || pkt->ecnMarked;
    EXPECT_TRUE(any_marked);
}

TEST(Switch, LosslessClassTriggersPfcNotDrops)
{
    EventQueue eq;
    net::SwitchConfig cfg;
    cfg.forwardingLatency = 0;
    cfg.pfcXoffBytes = 8 * 1024;
    cfg.pfcXonBytes = 4 * 1024;
    net::Switch sw(eq, cfg);

    // Slow egress so the ingress accounting builds up.
    Link out(eq, "o", 0.5, 1.0);
    CollectorSink dst(eq);
    out.attachA(&dst);
    const int po = sw.addPort(&out.bToA());
    Link in(eq, "i", 40.0, 1.0);
    CollectorSink src(eq);
    in.attachA(&src);
    const int pi = sw.addPort(&in.bToA());
    in.attachB(sw.portSink(pi));
    sw.addHostRoute({5}, po);

    // Blast lossless traffic through the ingress.
    for (int i = 0; i < 64; ++i)
        in.aToB().send(makeUdp({1}, {5}, 1400, net::kTcLossless));
    eq.runUntil(2 * sim::kMillisecond);
    EXPECT_GT(sw.pfcFramesSent(), 0u);
    // The sender's channel must have been paused at some point.
    EXPECT_GT(in.aToB().pausesReceived(), 0u);
    eq.runAll();
    // All packets eventually arrive: lossless means no drops.
    EXPECT_EQ(dst.packets.size(), 64u);
    EXPECT_EQ(sw.packetsDropped(), 0u);
}

TEST(Topology, BuildsExpectedCounts)
{
    EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 4;
    cfg.racksPerPod = 3;
    cfg.l1PerPod = 2;
    cfg.pods = 2;
    cfg.l2Count = 2;
    net::Topology topo(eq, cfg);
    EXPECT_EQ(topo.numHosts(), 4 * 3 * 2);
    EXPECT_EQ(topo.hostIndex(1, 2, 3), (1 * 3 + 2) * 4 + 3);
    EXPECT_EQ(topo.host(topo.hostIndex(1, 2, 3)).addr,
              net::Ipv4Addr::of(10, 1, 2, 4));
}

class TopologyDelivery : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(TopologyDelivery, HostToHostAcrossTiers)
{
    auto [src_idx, dst_idx] = GetParam();
    EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 3;
    cfg.racksPerPod = 2;
    cfg.l1PerPod = 2;
    cfg.pods = 2;
    cfg.l2Count = 2;
    net::Topology topo(eq, cfg);

    std::vector<std::unique_ptr<CollectorSink>> sinks;
    for (int i = 0; i < topo.numHosts(); ++i) {
        sinks.push_back(std::make_unique<CollectorSink>(eq));
        topo.attachHostDevice(i, sinks.back().get());
    }
    auto pkt = makeUdp(topo.host(src_idx).addr, topo.host(dst_idx).addr,
                       800);
    topo.hostTx(src_idx).send(pkt);
    eq.runAll();
    ASSERT_EQ(sinks[dst_idx]->packets.size(), 1u)
        << "src=" << src_idx << " dst=" << dst_idx;
    for (int i = 0; i < topo.numHosts(); ++i) {
        if (i != dst_idx) {
            EXPECT_TRUE(sinks[i]->packets.empty());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, TopologyDelivery,
    ::testing::Values(std::pair{0, 1},   // same rack (L0)
                      std::pair{0, 4},   // cross-rack same pod (L1)
                      std::pair{0, 7},   // cross-pod (L2)
                      std::pair{11, 0},  // reverse direction across pods
                      std::pair{5, 5}));

TEST(TopologyDeliveryLatency, IncreasesWithTier)
{
    EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 3;
    cfg.racksPerPod = 2;
    cfg.l1PerPod = 1;
    cfg.pods = 2;
    cfg.l2Count = 1;
    // Disable jitter for a deterministic comparison.
    cfg.l1Params.jitterMean = 0;
    cfg.l2Params.jitterMean = 0;
    net::Topology topo(eq, cfg);

    auto send_and_time = [&](int src, int dst) {
        CollectorSink sink(eq);
        topo.attachHostDevice(dst, &sink);
        const TimePs start = eq.now();
        topo.hostTx(src).send(
            makeUdp(topo.host(src).addr, topo.host(dst).addr, 200));
        eq.runAll();
        EXPECT_EQ(sink.packets.size(), 1u);
        return sink.times.empty() ? TimePs{0} : sink.times[0] - start;
    };

    const TimePs l0 = send_and_time(0, 1);
    const TimePs l1 = send_and_time(0, 4);
    const TimePs l2 = send_and_time(0, 8);
    EXPECT_LT(l0, l1);
    EXPECT_LT(l1, l2);
}

TEST(Nic, StampsSourceAddresses)
{
    EventQueue eq;
    Link link(eq, "l", 40.0, 1.0);
    net::Nic nic(eq, "nic0", net::MacAddr{0xAA}, net::Ipv4Addr{77});
    nic.setTxChannel(&link.aToB());
    link.attachA(&nic);
    CollectorSink far(eq);
    link.attachB(&far);

    auto pkt = net::makePacket();
    pkt->ipDst = {88};
    pkt->payloadBytes = 10;
    EXPECT_TRUE(nic.sendPacket(pkt));
    eq.runAll();
    ASSERT_EQ(far.packets.size(), 1u);
    EXPECT_EQ(far.packets[0]->ipSrc.value, 77u);
    EXPECT_EQ(far.packets[0]->ethSrc.value, 0xAAu);

    int received = 0;
    nic.setReceiveHandler([&](const PacketPtr &) { ++received; });
    link.bToA().send(makeUdp({88}, {77}, 10));
    eq.runAll();
    EXPECT_EQ(received, 1);
}

TEST(Packet, WireBytesIncludesOverheadsAndMinFrame)
{
    auto pkt = makeUdp({1}, {2}, 1);
    EXPECT_EQ(pkt->wireBytes(), 84u);  // padded to min frame + preamble/IFG
    auto big = makeUdp({1}, {2}, 1472);
    EXPECT_EQ(big->wireBytes(), 38u + 28u + 1472u);
}

TEST(Packet, FlowHashStableAndSpread)
{
    auto a = makeUdp({1}, {2}, 10);
    a->srcPort = 1000;
    auto b = makeUdp({1}, {2}, 10);
    b->srcPort = 1000;
    EXPECT_EQ(a->flowHash(), b->flowHash());
    b->srcPort = 1001;
    EXPECT_NE(a->flowHash(), b->flowHash());
}

TEST(PacketPool, RecyclesFreedBlocksThroughTheFreelist)
{
    // Warm the pool, then verify steady-state churn is served from the
    // freelist instead of the heap.
    { auto warm = net::makePacket(); }
    const auto before = net::packetPoolStats();
    for (int i = 0; i < 8; ++i) {
        auto pkt = net::makePacket();
        EXPECT_NE(pkt->id, 0u);
    }
    const auto after = net::packetPoolStats();
    EXPECT_GE(after.reusedAllocs, before.reusedAllocs + 8);
    EXPECT_EQ(after.freshAllocs, before.freshAllocs);
    EXPECT_GE(after.freeBlocks, 1u);
}

TEST(PacketPool, ReusedPacketsAreFreshlyConstructed)
{
    std::uint64_t firstId = 0;
    {
        auto pkt = net::makePacket();
        firstId = pkt->id;
        pkt->payloadBytes = 777;
        pkt->data.assign(64, 0xAB);
        pkt->ecnMarked = true;
    }
    auto pkt = net::makePacket();  // most likely the recycled block
    EXPECT_NE(pkt->id, firstId);
    EXPECT_EQ(pkt->payloadBytes, 0u);
    EXPECT_TRUE(pkt->data.empty());
    EXPECT_FALSE(pkt->ecnMarked);
}

}  // namespace
