/**
 * @file
 * Hybrid fluid/packet traffic tests: exact integer byte accounting
 * (fold-schedule independence), the conservation invariant across the
 * promote/demote fidelity boundary, zero-fluid byte-identity of the
 * packet path, and pod-scale tail equivalence between a fluid
 * background and the same background simulated packet-by-packet.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/cloud.hpp"
#include "fpga/null_role.hpp"
#include "net/fluid.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ccsim;
using sim::EventQueue;
using sim::TimePs;

/** A small multi-pod fabric every fluid test can route across. */
net::TopologyConfig
smallFabric()
{
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 2;
    cfg.racksPerPod = 2;
    cfg.l1PerPod = 2;
    cfg.pods = 4;
    cfg.l2Count = 2;
    return cfg;
}

TEST(Fluid, ExactIntegralCarriesSubByteRemainder)
{
    EventQueue eq;
    net::Topology topo(eq, smallFabric());
    net::FluidTrafficModel fluid(eq, topo);

    // 8 bit/s = exactly one byte per simulated second.
    const auto id = fluid.addFlow(0, topo.numHosts() - 1, 8);
    eq.runFor(sim::fromSeconds(0.5));
    fluid.foldAll();
    EXPECT_EQ(fluid.flow(id)->fluidBytes, 0u);  // half a byte pending

    eq.runFor(sim::fromSeconds(0.5));
    fluid.foldAll();
    EXPECT_EQ(fluid.flow(id)->fluidBytes, 1u);  // remainder completed it

    // 1 bit/s: needs a full 8 s for the first byte.
    const auto slow = fluid.addFlow(1, 2, 1);
    eq.runFor(sim::fromSeconds(7.99));
    fluid.foldAll();
    EXPECT_EQ(fluid.flow(slow)->fluidBytes, 0u);
    eq.runFor(sim::fromSeconds(0.02));
    fluid.foldAll();
    EXPECT_EQ(fluid.flow(slow)->fluidBytes, 1u);
}

TEST(Fluid, ByteTotalsIndependentOfFoldSchedule)
{
    // Same rate schedule, wildly different fold schedules: per-flow byte
    // totals must match exactly (the invariant that makes window-driven
    // retuning safe at any cadence).
    auto run = [](int extra_folds_seed) {
        EventQueue eq;
        net::Topology topo(eq, smallFabric());
        net::FluidTrafficModel fluid(eq, topo);
        sim::Rng rng(99);  // same flow set in both runs
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 16; ++i) {
            const int src = int(rng.uniformInt(topo.numHosts()));
            int dst = int(rng.uniformInt(topo.numHosts()));
            if (dst == src)
                dst = (dst + 1) % topo.numHosts();
            // Awkward rates so sub-byte remainders are always in play.
            ids.push_back(fluid.addFlow(src, dst, 7 + 13 * i));
        }
        sim::Rng foldRng(extra_folds_seed);
        for (int step = 0; step < 20; ++step) {
            eq.runFor(sim::fromSeconds(0.1));
            // The rate schedule (fixed): retune every 4th step.
            if (step % 4 == 3)
                for (std::size_t i = 0; i < ids.size(); ++i)
                    fluid.setRate(ids[i], 5 + 17 * ((step + int(i)) % 7));
            // The fold schedule (varies between runs).
            if (extra_folds_seed != 0 && foldRng.uniformInt(3) == 0)
                fluid.foldAll();
        }
        fluid.foldAll();
        std::vector<std::uint64_t> bytes;
        for (auto id : ids)
            bytes.push_back(fluid.flow(id)->fluidBytes);
        EXPECT_TRUE(fluid.verify().ok);
        return bytes;
    };
    const auto never = run(0);
    const auto often = run(1);
    const auto other = run(2);
    EXPECT_EQ(never, often);
    EXPECT_EQ(never, other);
}

TEST(Fluid, ConservationHoldsAcrossRandomPromoteDemote)
{
    EventQueue eq;
    net::Topology topo(eq, smallFabric());
    net::FluidTrafficModel fluid(eq, topo);
    sim::Rng rng(4242);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 12; ++i)
        ids.push_back(fluid.addFlow(
            int(rng.uniformInt(topo.numHosts())),
            int((rng.uniformInt(topo.numHosts() - 1) + 1 +
                 rng.uniformInt(topo.numHosts()))) %
                topo.numHosts(),
            1000 + rng.uniformInt(100000)));

    for (int step = 0; step < 200; ++step) {
        eq.runFor(1 + rng.uniformInt(50) * sim::kMillisecond);
        const auto id = ids[rng.uniformInt(ids.size())];
        const net::FluidFlow *f = fluid.flow(id);
        if (f == nullptr)
            continue;
        switch (rng.uniformInt(5)) {
        case 0:
            fluid.setRate(id, 500 + rng.uniformInt(200000));
            break;
        case 1:
            fluid.promote(id);
            break;
        case 2:
            if (f->promoted)
                fluid.creditPacketBytes(id, rng.uniformInt(100000));
            break;
        case 3:
            if (f->promoted)
                fluid.demote(id, 500 + rng.uniformInt(200000));
            break;
        case 4:
            if (rng.uniformInt(10) == 0)
                fluid.removeFlow(id);
            break;
        }
    }
    fluid.foldAll();
    const auto c = fluid.verify();
    EXPECT_TRUE(c.ok);
    EXPECT_EQ(c.channelCredits, c.expectedChannelCredits);
    EXPECT_EQ(c.flows, 12u);
}

TEST(Fluid, SubByteRemainderSurvivesPromoteDemoteRoundTrip)
{
    EventQueue eq;
    net::Topology topo(eq, smallFabric());
    net::FluidTrafficModel fluid(eq, topo);

    const auto id = fluid.addFlow(0, 5, 8);  // one byte per second
    eq.runFor(sim::fromSeconds(0.5));
    fluid.promote(id);   // folds: 0 bytes, half a byte of remainder
    eq.runFor(sim::fromSeconds(3.0));  // packet regime: no fluid accrual
    fluid.demote(id, 8);
    eq.runFor(sim::fromSeconds(0.5));
    fluid.foldAll();
    // 0.5 s + 0.5 s of fluid time at 1 B/s: exactly one byte, which only
    // works if the promote/demote round trip preserved the remainder.
    EXPECT_EQ(fluid.flow(id)->fluidBytes, 1u);
    EXPECT_TRUE(fluid.verify().ok);
}

TEST(Fluid, MonitoredChannelsSelectCrossingFlows)
{
    EventQueue eq;
    net::Topology topo(eq, smallFabric());
    net::FluidTrafficModel fluid(eq, topo);

    const int far = topo.hostIndex(3, 1, 1);
    const auto cross = fluid.addFlow(0, far, 1000);
    // Same TOR, and a rack apart from the cross flow so no access
    // channel is shared with it.
    const auto local = fluid.addFlow(2, 3, 1000);

    ASSERT_FALSE(fluid.flow(cross)->path.empty());
    net::Channel *hop = fluid.flow(cross)->path.front();
    EXPECT_FALSE(fluid.crossesMonitored(cross));
    fluid.setMonitored(hop, true);
    EXPECT_TRUE(fluid.crossesMonitored(cross));
    EXPECT_FALSE(fluid.crossesMonitored(local));
    const auto crossing = fluid.flowsCrossingMonitored();
    ASSERT_EQ(crossing.size(), 1u);
    EXPECT_EQ(crossing.front(), cross);
    fluid.setMonitored(hop, false);
    EXPECT_FALSE(fluid.crossesMonitored(cross));
}

TEST(Fluid, UnknownIdsHaveNoRecord)
{
    EventQueue eq;
    net::Topology topo(eq, smallFabric());
    net::FluidTrafficModel fluid(eq, topo);

    const auto kept = fluid.addFlow(0, topo.numHosts() - 1, 1000);
    const auto gone = fluid.addFlow(1, topo.numHosts() - 2, 1000);
    // Every hop of both paths is monitored, so only the id decides.
    for (const auto id : {kept, gone})
        for (net::Channel *c : fluid.flow(id)->path)
            fluid.setMonitored(c, true);
    fluid.removeFlow(gone);

    for (const std::uint64_t id : {std::uint64_t{0}, gone, gone + 1,
                                   std::uint64_t{1000}}) {
        EXPECT_EQ(fluid.flow(id), nullptr) << "id " << id;
        EXPECT_FALSE(fluid.crossesMonitored(id)) << "id " << id;
    }
    ASSERT_NE(fluid.flow(kept), nullptr);
    EXPECT_EQ(fluid.flow(kept)->id, kept);
    EXPECT_TRUE(fluid.crossesMonitored(kept));
}

TEST(FluidDeathTest, RemovedIdIsUnknown)
{
    auto mutateRemoved = [](bool promote) {
        EventQueue eq;
        net::Topology topo(eq, smallFabric());
        net::FluidTrafficModel fluid(eq, topo);
        const auto id = fluid.addFlow(0, topo.numHosts() - 1, 1000);
        fluid.removeFlow(id);
        if (promote)
            fluid.promote(id);
        else
            fluid.setRate(id, 2000);
    };
    EXPECT_DEATH(mutateRemoved(false), "unknown flow id");
    EXPECT_DEATH(mutateRemoved(true), "unknown flow id");
}

TEST(Fluid, RemovalsKeepCountsOrderAndConservation)
{
    EventQueue eq;
    net::Topology topo(eq, smallFabric());
    net::FluidTrafficModel fluid(eq, topo);
    sim::Rng rng(7);
    const int hosts = topo.numHosts();
    constexpr int kFlows = 40;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kFlows; ++i) {
        const int src = int(rng.uniformInt(std::uint64_t(hosts)));
        const int hop = 1 + int(rng.uniformInt(std::uint64_t(hosts - 1)));
        const int dst = (src + hop) % hosts;
        ids.push_back(fluid.addFlow(src, dst, 1'000'000 + 1000 * i));
    }
    // Monitor about a third of the hops the flows use.
    for (const auto id : ids)
        for (net::Channel *c : fluid.flow(id)->path)
            if (rng.bernoulli(0.3))
                fluid.setMonitored(c, true);

    std::set<std::uint64_t> live(ids.begin(), ids.end());
    std::set<std::uint64_t> promoted;
    for (int window = 0; window < 8; ++window) {
        eq.runFor(sim::fromSeconds(0.001 * (window + 1)));
        // Interleave removals, re-rates and promotions across the table.
        for (const auto id : ids) {
            if (!live.count(id))
                continue;
            const auto dice = rng.uniformInt(std::uint64_t(10));
            if (dice == 0) {
                fluid.removeFlow(id);
                live.erase(id);
                promoted.erase(id);
            } else if (dice == 1 && !promoted.count(id)) {
                fluid.promote(id);
                promoted.insert(id);
            } else if (!promoted.count(id)) {
                fluid.setRate(id, 500'000 + rng.uniformInt(
                                      std::uint64_t(1'000'000)));
            }
        }
        std::vector<std::uint64_t> expected;
        for (const auto id : live)
            if (!promoted.count(id) && fluid.crossesMonitored(id))
                expected.push_back(id);
        const auto crossing = fluid.flowsCrossingMonitored();
        EXPECT_TRUE(std::is_sorted(crossing.begin(), crossing.end()));
        EXPECT_EQ(crossing, expected) << "window " << window;
        EXPECT_EQ(fluid.liveFlows(), live.size());
        EXPECT_EQ(fluid.flowsAdded(), std::uint64_t(kFlows));
        const auto c = fluid.verify();
        EXPECT_TRUE(c.ok) << c.channelCredits << " vs "
                          << c.expectedChannelCredits;
        EXPECT_EQ(c.flows, std::uint64_t(kFlows));
    }
    ASSERT_LT(live.size(), std::size_t(kFlows));  // some were removed
    // Ids keep counting after removals; they are never reused.
    const auto next = fluid.addFlow(0, 1, 1000);
    EXPECT_EQ(next, std::uint64_t(kFlows + 1));
    EXPECT_EQ(fluid.liveFlows(), live.size() + 1);
    EXPECT_EQ(fluid.flowsAdded(), std::uint64_t(kFlows + 1));
    fluid.foldAll();
    EXPECT_TRUE(fluid.verify().ok);
}

TEST(Fluid, ChannelReturnsToPristineWhenRatesCancel)
{
    EventQueue eq;
    net::Topology topo(eq, smallFabric());
    net::Channel &ch = topo.hostTx(0);
    EXPECT_EQ(ch.fluidBps(), 0u);
    ch.addFluidBps(10'000'000'000ull);
    ch.addFluidBps(5'000'000'000ull);
    EXPECT_EQ(ch.fluidBps(), 15'000'000'000ull);
    EXPECT_GT(ch.fluidUtilization(), 0.0);
    ch.removeFluidBps(5'000'000'000ull);
    ch.removeFluidBps(10'000'000'000ull);
    // Integer rates cancel exactly: the channel is indistinguishable
    // from one that never carried fluid load.
    EXPECT_EQ(ch.fluidBps(), 0u);
    EXPECT_EQ(ch.fluidUtilization(), 0.0);
}

/** Cross-pod LTL RTT samples on a 2-pod, single-path fabric, under a
 * configurable background: none, fluid aggregates, or real packets. */
enum class Background { kNone, kFluid, kPacket };

std::vector<double>
probeRtts(Background bg)
{
    EventQueue eq;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 1;  // single path: the fluid ECMP choice and
    cfg.topology.l2Count = 1;   // the packet route coincide by design
    cfg.topology.pods = 2;
    cfg.createNics = false;
    core::ConfigurableCloud cloud(eq, cfg);
    net::Topology &topo = cloud.topology();
    net::FluidTrafficModel fluid(eq, topo);

    // Four background flows pod0 -> pod1 at 2 Gbit/s each (20% of the
    // shared 40G trunk), as either fluid rates or real LTL traffic.
    const std::uint64_t kRate = 2'000'000'000ull;
    std::vector<std::unique_ptr<fpga::NullRole>> roles;
    std::vector<core::LtlChannel> channels;
    for (int i = 0; i < 4 && bg != Background::kNone; ++i) {
        const int src = topo.hostIndex(0, i % 2, i / 2);
        const int dst = topo.hostIndex(1, i % 2, 1 + i / 2);
        if (bg == Background::kFluid) {
            fluid.addFlow(src, dst, kRate);
            continue;
        }
        roles.push_back(std::make_unique<fpga::NullRole>());
        if (cloud.shell(dst).addRole(roles.back().get()) < 0)
            ADD_FAILURE() << "no role slot";
        channels.push_back(cloud.openLtl(src, dst, roles.back()->port));
        auto *engine = cloud.shell(src).ltlEngine();
        constexpr std::uint32_t kMsgBytes = 1024;
        const auto gap =
            static_cast<TimePs>((8.0 * kMsgBytes / double(kRate)) *
                                double(sim::kSecond));
        for (TimePs t = gap; t < sim::fromMillis(3); t += gap) {
            eq.schedule(t, [engine, conn = channels.back().sendConn()] {
                engine->sendMessage(conn, kMsgBytes);
            });
        }
    }

    // The probe: cross-pod pings at an idle 20 us spacing.
    const int src = topo.hostIndex(0, 0, 3);
    const int dst = topo.hostIndex(1, 1, 3);
    fpga::NullRole sink;
    EXPECT_GE(cloud.shell(dst).addRole(&sink), 0);
    auto probe = cloud.openLtl(src, dst, sink.port);
    auto *engine = cloud.shell(src).ltlEngine();
    std::vector<double> rtt;
    engine->setRttObserver([&rtt](double us) { rtt.push_back(us); });
    for (int i = 0; i < 100; ++i) {
        eq.scheduleAfter(i * 20 * sim::kMicrosecond,
                         [engine, conn = probe.sendConn()] {
                             engine->sendMessage(conn, 64);
                         });
    }
    eq.runFor(sim::fromMillis(4));
    return rtt;
}

TEST(Fluid, PodScaleTailsMatchAllPacketWithinTolerance)
{
    const auto baseline = probeRtts(Background::kNone);
    const auto fluidBg = probeRtts(Background::kFluid);
    const auto packetBg = probeRtts(Background::kPacket);
    ASSERT_EQ(baseline.size(), 100u);
    ASSERT_EQ(fluidBg.size(), 100u);
    ASSERT_EQ(packetBg.size(), 100u);

    auto p99 = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[static_cast<std::size_t>(0.99 * (v.size() - 1))];
    };
    const double pkt = p99(packetBg), fld = p99(fluidBg);
    // The fluid approximation must land in the same tail regime as the
    // packet-level simulation of the identical background (the residual
    // -rate slowdown stands in for per-packet queueing).
    EXPECT_LT(std::abs(fld - pkt) / pkt, 0.25);
    // And a loaded trunk must not *undercut* the unloaded baseline.
    EXPECT_GE(fld, p99(baseline) * 0.999);
}

TEST(Fluid, BackgroundOnlyRunsAreByteStablePerSeed)
{
    // Two identical hybrid runs: the probe's RTT sample vector must be
    // bit-for-bit identical (the fluid model adds no hidden state).
    const auto a = probeRtts(Background::kFluid);
    const auto b = probeRtts(Background::kFluid);
    EXPECT_EQ(a, b);
    // And a fluid background that was added then removed leaves packet
    // timing exactly as if it never existed.
    auto addRemove = [] {
        EventQueue eq;
        net::Topology topo(eq, smallFabric());
        net::FluidTrafficModel fluid(eq, topo);
        const auto id = fluid.addFlow(0, topo.numHosts() - 1,
                                      10'000'000'000ull);
        fluid.removeFlow(id);
        return true;
    };
    EXPECT_TRUE(addRemove());
    const auto clean = probeRtts(Background::kNone);
    const auto after = probeRtts(Background::kNone);
    EXPECT_EQ(clean, after);
}

}  // namespace
