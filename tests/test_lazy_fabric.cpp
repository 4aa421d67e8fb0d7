/**
 * @file
 * Flyweight-host tests: lazy topology/cloud materialization semantics,
 * byte-identity between lazy and eager builds, management-plane touches
 * (fault injection, health heartbeats, lease deploys) materializing
 * stubs deterministically, widened pod addressing, host stubs derived
 * by arithmetic, queue state only on cables that carry packets, and the
 * sim.mem.* memory telemetry.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "fault/fault.hpp"
#include "fpga/null_role.hpp"
#include "haas/health_monitor.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

namespace {

using namespace ccsim;
using sim::EventQueue;
using sim::TimePs;

core::CloudConfig
podScaleConfig(bool lazy)
{
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 2;
    cfg.topology.l2Count = 2;
    cfg.createNics = true;
    cfg.lazyHosts = lazy;
    return cfg;
}

TEST(LazyFabric, HostStubsAreArithmeticInEagerAndLazyBuilds)
{
    for (bool lazy : {false, true}) {
        EventQueue eq;
        net::TopologyConfig cfg;
        cfg.hostsPerRack = 5;
        cfg.racksPerPod = 3;
        cfg.l1PerPod = 2;
        cfg.pods = 3;
        cfg.l2Count = 2;
        cfg.lazyHosts = lazy;
        net::Topology topo(eq, cfg);
        ASSERT_EQ(topo.numHosts(), 45);
        // The fields the builder used to store per host, in its
        // construction order (pod, rack, index in rack).
        int index = 0;
        for (int pod = 0; pod < cfg.pods; ++pod) {
            for (int rack = 0; rack < cfg.racksPerPod; ++rack) {
                for (int h = 0; h < cfg.hostsPerRack; ++h, ++index) {
                    const auto hp = topo.host(index);
                    const auto addr = net::Ipv4Addr::of(
                        10, static_cast<std::uint8_t>(pod),
                        static_cast<std::uint8_t>(rack),
                        static_cast<std::uint8_t>(h + 1));
                    EXPECT_EQ(hp.pod, pod) << index;
                    EXPECT_EQ(hp.rack, rack) << index;
                    EXPECT_EQ(hp.indexInRack, h) << index;
                    EXPECT_EQ(hp.addr, addr) << index;
                    EXPECT_EQ(hp.mac, net::MacAddr{0x020000000000ull |
                                                   addr.value})
                        << index;
                    EXPECT_EQ(topo.hostIndex(pod, rack, h), index);
                    EXPECT_EQ(topo.hostMaterialized(index), !lazy);
                }
            }
        }
    }
}

TEST(LazyFabric, OnlyCablesThatCarryPacketsHoldQueueState)
{
    for (bool lazy : {false, true}) {
        EventQueue eq;
        core::ConfigurableCloud cloud(eq, podScaleConfig(lazy));
        const auto mem = cloud.fabricMemoryStats();
        EXPECT_GT(mem.fabricLinks, 0u);
        EXPECT_EQ(mem.queueStateChannels, 0u) << (lazy ? "lazy" : "eager");
        net::Channel &trunk = cloud.topology().trunkLink(0).aToB();
        EXPECT_EQ(trunk.queuedBytes(net::kTcLossless), 0u);
        EXPECT_FALSE(trunk.holdsQueueState());
    }

    // One cross-pod message and its ACK give queue state only to the
    // transmitters they cross: at most six hops each way.
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, podScaleConfig(true));
    const int src = 0, dst = cloud.numServers() - 1;
    fpga::NullRole sink;
    ASSERT_GE(cloud.shell(dst).addRole(&sink), 0);
    auto ch = cloud.openLtl(src, dst, sink.port);
    auto *engine = cloud.shell(src).ltlEngine();
    eq.scheduleAfter(0, [engine, conn = ch.sendConn()] {
        engine->sendMessage(conn, 64);
    });
    eq.runFor(sim::fromMillis(2));
    ASSERT_EQ(engine->rttUs().count(), 1u);
    const auto ltl = cloud.fabricMemoryStats().queueStateChannels;
    EXPECT_GE(ltl, 2u);
    EXPECT_LE(ltl, 12u);

    // A NIC packet to a rack neighbour adds exactly three: the sender's
    // NIC cable, the neighbour's access cable (TOR to FPGA) and the
    // neighbour's NIC cable (FPGA to NIC).
    int received = 0;
    cloud.nic(src + 1).setReceiveHandler(
        [&](const net::PacketPtr &) { ++received; });
    auto pkt = net::makePacket();
    pkt->ipDst = cloud.addressOf(src + 1);
    pkt->payloadBytes = 100;
    cloud.nic(src).sendPacket(pkt);
    eq.runFor(sim::fromMillis(1));
    EXPECT_EQ(received, 1);
    EXPECT_EQ(cloud.fabricMemoryStats().queueStateChannels, ltl + 3);
}

TEST(LazyFabric, StubsMaterializeOnFirstTouchOnly)
{
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, podScaleConfig(true));
    net::Topology &topo = cloud.topology();

    EXPECT_EQ(cloud.materializedServers(), 0);
    EXPECT_EQ(topo.materializedHosts(), 0);
    EXPECT_TRUE(topo.lazyHosts());
    for (int h = 0; h < cloud.numServers(); ++h) {
        EXPECT_FALSE(cloud.serverMaterialized(h));
        EXPECT_FALSE(topo.hostMaterialized(h));
        // Warm facts live in the stub: address/coords need no touch.
        EXPECT_EQ(topo.host(h).addr, net::Topology::hostAddr(
                                         topo.host(h).pod, topo.host(h).rack,
                                         topo.host(h).indexInRack));
    }

    // An accessor is a touch; it materializes that server and no other.
    cloud.shell(5);
    EXPECT_TRUE(cloud.serverMaterialized(5));
    EXPECT_TRUE(topo.hostMaterialized(5));
    EXPECT_EQ(cloud.materializedServers(), 1);
    EXPECT_FALSE(cloud.serverMaterialized(4));
    EXPECT_FALSE(cloud.serverMaterialized(6));

    // End-to-end traffic between two touched hosts crosses the fabric
    // while every other server is still a stub.
    const int src = 5, dst = cloud.numServers() - 1;
    fpga::NullRole sink;
    ASSERT_GE(cloud.shell(dst).addRole(&sink), 0);
    auto ch = cloud.openLtl(src, dst, sink.port);
    auto *engine = cloud.shell(src).ltlEngine();
    for (int i = 0; i < 10; ++i)
        eq.scheduleAfter(i * 20 * sim::kMicrosecond,
                         [engine, conn = ch.sendConn()] {
                             engine->sendMessage(conn, 64);
                         });
    eq.runFor(sim::fromMillis(2));
    EXPECT_EQ(engine->rttUs().count(), 10u);
    EXPECT_EQ(cloud.materializedServers(), 2);
}

TEST(LazyFabric, AscendingTouchOrderIsByteIdenticalToEager)
{
    // A lazy build whose hosts are touched in ascending order must be
    // indistinguishable — to the byte, across every metric — from the
    // eager build (same construction sequence, same RNG draws).
    auto run = [](bool lazy) {
        sim::ShardedEventQueue sq;
        EventQueue &eq = sq.partition(0);
        obs::Observability hub;
        auto cfg = podScaleConfig(lazy);
        cfg.obs = &hub;
        obs::TimeSeriesHub sampler(
            obs::TimeSeriesConfig{.window = 50 * sim::kMicrosecond});
        cfg.timeSeries = &sampler;
        core::ConfigurableCloud cloud(eq, cfg);
        if (lazy)
            for (int h = 0; h < cloud.numServers(); ++h)
                cloud.materializeServer(h);

        fpga::NullRole sink;
        const int src = 1, dst = cloud.numServers() - 2;
        EXPECT_GE(cloud.shell(dst).addRole(&sink), 0);
        auto ch = cloud.openLtl(src, dst, sink.port);
        auto *engine = cloud.shell(src).ltlEngine();
        std::vector<double> rtt;
        engine->setRttObserver([&rtt](double us) { rtt.push_back(us); });
        sampler.startSampling(sq);
        for (int i = 0; i < 40; ++i)
            eq.scheduleAfter(i * 10 * sim::kMicrosecond,
                             [engine, conn = ch.sendConn()] {
                                 engine->sendMessage(conn, 64);
                             });
        sq.runFor(sim::fromMillis(2));
        return std::pair<std::vector<double>, std::string>(
            std::move(rtt), hub.registry.snapshotJson());
    };
    const auto eager = run(false);
    const auto lazyRun = run(true);
    EXPECT_EQ(eager.first, lazyRun.first);
    EXPECT_EQ(eager.second, lazyRun.second);
}

TEST(LazyFabric, FaultInjectorMaterializesStubDeterministically)
{
    // Regression: injecting a fault into a not-yet-materialized host
    // must materialize it (deterministically), not crash or no-op.
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, podScaleConfig(true));
    fault::FaultInjector inject(sq, cloud);

    const int victim = 7;
    ASSERT_FALSE(cloud.serverMaterialized(victim));
    inject.flapHostLink(victim, sim::fromMillis(1));
    sq.runFor(sim::fromMillis(0.1));
    EXPECT_TRUE(cloud.serverMaterialized(victim));
    EXPECT_FALSE(cloud.nodeReachable(victim));  // cable is down
    sq.runFor(sim::fromMillis(2));
    EXPECT_TRUE(cloud.nodeReachable(victim));   // flap healed

    // Hard-failing a stub works too, and the RM sees the failure.
    const int dead = 9;
    ASSERT_FALSE(cloud.serverMaterialized(dead));
    inject.failFpga(dead);
    sq.runFor(sim::fromMillis(0.1));
    EXPECT_TRUE(cloud.serverMaterialized(dead));
    EXPECT_FALSE(cloud.nodeReachable(dead));
    EXPECT_FALSE(cloud.fpgaManager(dead).status().healthy);
    EXPECT_EQ(cloud.resourceManager().failedCount(), 1);
    inject.repairFpga(dead);
    sq.runFor(sim::fromMillis(0.1));
    EXPECT_TRUE(cloud.nodeReachable(dead));
    EXPECT_EQ(cloud.resourceManager().failedCount(), 0);
}

TEST(LazyFabric, HealthMonitorHeartbeatIsAMaterializingTouch)
{
    // A heartbeat probe is a management-path touch: one full sweep of a
    // lazy cloud materializes every host (and answers exactly like an
    // eager build would).
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, podScaleConfig(true));
    haas::HealthMonitorConfig hc;
    haas::HealthMonitor hm(eq, cloud.resourceManager(), hc);
    cloud.attachHealthMonitor(hm);
    EXPECT_EQ(cloud.materializedServers(), 0);
    hm.startSharded(sq);
    sq.runFor(2 * hc.heartbeatPeriod);
    EXPECT_EQ(cloud.materializedServers(), cloud.numServers());
    EXPECT_EQ(cloud.resourceManager().failedCount(), 0);
    hm.stop();
}

TEST(LazyFabric, LeaseDeployMaterializesThroughTheResolver)
{
    // The RM registers stubs with a null FpgaManager; manager() resolves
    // through the cloud, materializing the server on lease touch.
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, podScaleConfig(true));
    haas::ResourceManager &rm = cloud.resourceManager();

    std::vector<std::unique_ptr<fpga::NullRole>> roles;
    haas::ServiceManager sm(eq, rm, "svc", [&](int) {
        roles.push_back(std::make_unique<fpga::NullRole>());
        return roles.back().get();
    });
    ASSERT_EQ(cloud.materializedServers(), 0);
    ASSERT_TRUE(sm.deploy(3));
    EXPECT_EQ(cloud.materializedServers(), 3);
    for (int host : sm.instances())
        EXPECT_TRUE(cloud.serverMaterialized(host));
    EXPECT_EQ(rm.allocatedCount(), 3);
    sm.teardown();
}

TEST(LazyFabric, WidenedPodAddressingIsBackwardCompatible)
{
    // Pods 0-255 keep their historical 10.pod.rack.idx addresses; pods
    // beyond spill into the second octet pair-wise (the two octets
    // jointly encode the pod, preserving /16 pod-prefix routing).
    EXPECT_EQ(net::Topology::hostAddr(0, 1, 2), net::Ipv4Addr::of(10, 0, 1, 3));
    EXPECT_EQ(net::Topology::hostAddr(255, 0, 0),
              net::Ipv4Addr::of(10, 255, 0, 1));
    EXPECT_EQ(net::Topology::hostAddr(256, 0, 0),
              net::Ipv4Addr::of(11, 0, 0, 1));
    EXPECT_EQ(net::Topology::hostAddr(300, 3, 7),
              net::Ipv4Addr::of(11, 44, 3, 8));

    // A paper-scale pod count routes end-to-end across the 255 boundary.
    EventQueue eq;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 1;
    cfg.topology.racksPerPod = 1;
    cfg.topology.l1PerPod = 1;
    cfg.topology.pods = 300;
    cfg.topology.l2Count = 1;
    cfg.createNics = false;
    cfg.lazyHosts = true;
    core::ConfigurableCloud cloud(eq, cfg);
    const int src = cloud.topology().hostIndex(0, 0, 0);
    const int dst = cloud.topology().hostIndex(299, 0, 0);
    fpga::NullRole sink;
    ASSERT_GE(cloud.shell(dst).addRole(&sink), 0);
    auto ch = cloud.openLtl(src, dst, sink.port);
    auto *engine = cloud.shell(src).ltlEngine();
    eq.scheduleAfter(0, [engine, conn = ch.sendConn()] {
        engine->sendMessage(conn, 64);
    });
    eq.runFor(sim::fromMillis(2));
    EXPECT_EQ(engine->rttUs().count(), 1u);
    EXPECT_EQ(cloud.materializedServers(), 2);
}

TEST(LazyFabric, FabricMemoryStatsAndGaugesTrackMaterialization)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    obs::Observability hub;
    auto cfg = podScaleConfig(true);
    cfg.obs = &hub;
    obs::TimeSeriesHub sampler(
        obs::TimeSeriesConfig{.window = 50 * sim::kMicrosecond});
    cfg.timeSeries = &sampler;
    core::ConfigurableCloud cloud(eq, cfg);

    auto before = cloud.fabricMemoryStats();
    EXPECT_EQ(before.hosts, cloud.numServers());
    EXPECT_EQ(before.materializedHosts, 0);
    EXPECT_GT(before.switches, 0u);
    EXPECT_GT(before.fabricLinks, 0u);
    EXPECT_GT(before.bytesPerServer, 0u);

    cloud.shell(0);
    cloud.shell(1);
    auto after = cloud.fabricMemoryStats();
    EXPECT_EQ(after.materializedHosts, 2);
    // Materialized cables (FPGA<->TOR + NIC<->FPGA) join the link count.
    EXPECT_EQ(after.fabricLinks, before.fabricLinks + 4);
    // A fleet of stubs amortizes far below one server's heavy state.
    EXPECT_LT(after.bytesPerHost, double(after.bytesPerServer));

    // The same numbers back the sim.mem.* gauges.
    sampler.startSampling(sq);
    sq.runFor(sim::fromMillis(1));
    const std::string snap = hub.registry.snapshotJson();
    EXPECT_NE(snap.find("sim.mem.hosts"), std::string::npos);
    EXPECT_NE(snap.find("sim.mem.materialized_hosts"), std::string::npos);
    EXPECT_NE(snap.find("sim.mem.switches"), std::string::npos);
    EXPECT_NE(snap.find("sim.mem.fabric_links"), std::string::npos);
    EXPECT_NE(snap.find("sim.mem.bytes_per_host"), std::string::npos);
}

TEST(LazyFabric, EagerBuildIsFullyMaterializedAndIdempotent)
{
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, podScaleConfig(false));
    EXPECT_EQ(cloud.materializedServers(), cloud.numServers());
    cloud.materializeServer(3);  // idempotent no-op
    EXPECT_EQ(cloud.materializedServers(), cloud.numServers());
    auto mem = cloud.fabricMemoryStats();
    EXPECT_EQ(mem.materializedHosts, mem.hosts);
}

}  // namespace
