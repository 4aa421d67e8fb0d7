/**
 * @file
 * Live fault injection (ccsim::fault) and the RAII LtlChannel handle:
 * scripted link flaps recover every in-flight LTL message, FPGA hard
 * failures drive exactly one HaaS failover, same-seed fault scripts
 * produce byte-identical metric snapshots, a chaos phase and a call
 * between runs inject the same fault, closed handles free their
 * connection-table entries, and bad configurations and calls die
 * loudly.
 */
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cloud.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "roles/dnn_role.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

namespace {

using namespace ccsim;
using fault::ChaosEngine;
using fault::ChaosScenario;
using fault::FaultConfig;
using fault::FaultInjector;
using sim::EventQueue;

struct NullRole : fpga::Role {
    int port = -1;
    int received = 0;
    std::string name() const override { return "null"; }
    std::uint32_t areaAlms() const override { return 100; }
    void attach(fpga::Shell &, int p) override { port = p; }
    void onMessage(const router::ErMessagePtr &msg) override
    {
        if (msg->srcEndpoint == fpga::kErPortLtl)
            ++received;
    }
};

core::CloudConfig
smallCloud()
{
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.createNics = false;
    cfg.shellTemplate.ltl.maxConnections = 16;
    return cfg;
}

// ---------------------------------------------------------------------
// Tentpole: faults are survivable.
// ---------------------------------------------------------------------

TEST(FaultInjection, ScriptedLinkFlapRecoversAllInFlightMessages)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, smallCloud());
    NullRole sink;
    ASSERT_GE(cloud.shell(5).addRole(&sink), 0);
    auto ch = cloud.openLtl(0, 5, sink.port);

    // Cut the sender's TOR cable for 200 us in the middle of a 2 ms
    // message train: well inside LTL's 16 x 50 us retry budget, so the
    // flap must be invisible at the message level.
    FaultInjector inj(sq, cloud);
    ChaosEngine chaos(sq, ChaosScenario{}.withPhase(
                              "flap", sim::fromMicros(500), [&] {
                                  inj.flapHostLink(0, sim::fromMicros(200));
                              }));
    chaos.start();

    const int kMessages = 100;
    auto *engine = cloud.shell(0).ltlEngine();
    for (int i = 0; i < kMessages; ++i) {
        eq.scheduleAfter(i * 20 * sim::kMicrosecond,
                         [engine, conn = ch.sendConn()] {
                             engine->sendMessage(conn, 256);
                         });
    }
    sq.runFor(sim::fromMillis(10));

    EXPECT_EQ(sink.received, kMessages);
    EXPECT_GT(engine->framesRetransmitted(), 0u);  // the flap bit frames
    EXPECT_EQ(engine->framesAbandoned(), 0u);
    // Ledger invariant: when drained, every frame is accounted for.
    EXPECT_EQ(engine->framesAcked() + engine->framesAbandoned(),
              engine->framesSent());
    EXPECT_EQ(engine->framesInFlight(), 0u);

    EXPECT_EQ(inj.injected(), 1u);
    EXPECT_EQ(inj.recovered(), 1u);
    EXPECT_FALSE(inj.nodeDown(0));
    EXPECT_EQ(inj.downtime(0), sim::fromMicros(200));
    EXPECT_GT(cloud.topology().hostLink(0).aToB().faultDrops() +
                  cloud.topology().hostLink(0).bToA().faultDrops(),
              0u);
}

TEST(FaultInjection, CorruptionBurstIsRepairedByRetransmission)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, smallCloud());
    NullRole sink;
    ASSERT_GE(cloud.shell(1).addRole(&sink), 0);
    auto ch = cloud.openLtl(0, 1, sink.port);

    FaultInjector inj(sq, cloud, FaultConfig{}.withSeed(7));

    auto *engine = cloud.shell(0).ltlEngine();
    const int kMessages = 40;
    for (int i = 0; i < kMessages; ++i) {
        eq.scheduleAfter(i * 20 * sim::kMicrosecond,
                         [engine, conn = ch.sendConn()] {
                             engine->sendMessage(conn, 1024);
                         });
    }
    // The imperative API runs where the kernel is quiescent: here,
    // between two runs.
    sq.runUntil(sim::fromMicros(100));
    inj.corruptionBurst(0, 0.5, sim::fromMicros(800));
    sq.runUntil(sim::fromMillis(20));

    EXPECT_EQ(sink.received, kMessages);  // CRC drops all recovered
    EXPECT_GT(engine->framesRetransmitted(), 0u);
    EXPECT_EQ(engine->framesAcked() + engine->framesAbandoned(),
              engine->framesSent());
    // The hook is gone after the burst: no further fault drops.
    const auto drops = cloud.topology().hostLink(0).aToB().faultDrops();
    EXPECT_GT(drops, 0u);
    ch.send(512);
    sq.runFor(sim::fromMillis(1));
    EXPECT_EQ(cloud.topology().hostLink(0).aToB().faultDrops(), drops);
}

TEST(FaultInjection, FpgaHardFailureCausesExactlyOneFailover)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, smallCloud());

    std::vector<std::unique_ptr<roles::DnnRole>> role_storage;
    haas::ServiceManager sm(eq, cloud.resourceManager(), "dnn",
                            [&](int) -> fpga::Role * {
                                role_storage.push_back(
                                    std::make_unique<roles::DnnRole>(eq));
                                return role_storage.back().get();
                            });
    cloud.resourceManager().subscribeFailures(
        [&](int h, std::uint64_t) { sm.handleFailure(h); });
    ASSERT_TRUE(sm.deploy(2));
    const int victim = sm.instances()[0];

    FaultInjector inj(sq, cloud);
    ChaosEngine chaos(sq, ChaosScenario{}.withPhase(
                              "fail", sim::fromMicros(50),
                              [&] { inj.failFpga(victim); }));
    chaos.start();
    // A duplicate hard-fail of the same node must be swallowed.
    sq.runUntil(sim::fromMicros(60));
    inj.failFpga(victim);
    sq.runUntil(sim::fromMillis(5));

    EXPECT_EQ(sm.failovers(), 1u);
    EXPECT_EQ(sm.instances().size(), 2u);
    for (int instance : sm.instances())
        EXPECT_NE(instance, victim);
    EXPECT_EQ(cloud.resourceManager().failedCount(), 1);
    EXPECT_TRUE(inj.nodeDown(victim));
    EXPECT_EQ(inj.injected(), 1u);  // the duplicate did not count

    // Repair: the node rejoins the free pool.
    inj.repairFpga(victim);
    EXPECT_FALSE(inj.nodeDown(victim));
    EXPECT_EQ(cloud.resourceManager().failedCount(), 0);
    EXPECT_EQ(inj.recovered(), 1u);
}

TEST(FaultInjection, ReconfigPauseReturnsNodeToPool)
{
    sim::ShardedEventQueue sq;
    core::ConfigurableCloud cloud(sq.partition(0), smallCloud());
    const int free_before = cloud.resourceManager().freeCount();

    FaultInjector inj(sq, cloud);
    ChaosEngine chaos(sq, ChaosScenario{}.withPhase(
                              "pause", sim::fromMicros(10), [&] {
                                  inj.reconfigPause(3, sim::fromMicros(500));
                              }));
    chaos.start();

    sq.runUntil(sim::fromMicros(200));
    EXPECT_TRUE(inj.nodeDown(3));
    EXPECT_TRUE(cloud.shell(3).bridge().down());
    EXPECT_EQ(cloud.resourceManager().failedCount(), 1);

    sq.runUntil(sim::fromMillis(2));
    EXPECT_FALSE(inj.nodeDown(3));
    EXPECT_FALSE(cloud.shell(3).bridge().down());
    EXPECT_EQ(cloud.resourceManager().failedCount(), 0);
    EXPECT_EQ(cloud.resourceManager().freeCount(), free_before);
    EXPECT_EQ(inj.downtime(3), sim::fromMicros(500));
}

TEST(FaultInjection, SwitchBrownoutDropsAndClears)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, smallCloud());
    NullRole sink;
    ASSERT_GE(cloud.shell(1).addRole(&sink), 0);
    auto ch = cloud.openLtl(0, 1, sink.port);

    FaultInjector inj(sq, cloud);
    ChaosEngine chaos(sq, ChaosScenario{}.withPhase(
                              "brownout", sim::fromMicros(100), [&] {
                                  inj.switchBrownout(0, 0, 0.4, true,
                                                     sim::fromMicros(600));
                              }));
    chaos.start();

    auto *engine = cloud.shell(0).ltlEngine();
    for (int i = 0; i < 60; ++i) {
        eq.scheduleAfter(i * 10 * sim::kMicrosecond,
                         [engine, conn = ch.sendConn()] {
                             engine->sendMessage(conn, 1024);
                         });
    }
    eq.schedule(sim::fromMicros(300), [&] {
        EXPECT_TRUE(cloud.topology().tor(0, 0).inBrownout());
    });
    sq.runFor(sim::fromMillis(20));

    EXPECT_FALSE(cloud.topology().tor(0, 0).inBrownout());
    EXPECT_GT(cloud.topology().tor(0, 0).brownoutDrops(), 0u);
    EXPECT_EQ(sink.received, 60);  // LTL recovered every drop
    EXPECT_EQ(engine->framesAcked() + engine->framesAbandoned(),
              engine->framesSent());
}

// ---------------------------------------------------------------------
// Determinism: a fault script is a pure function of its seed.
// ---------------------------------------------------------------------

/** A small cloud sending an 80-message LTL train from host 0 to 5. */
struct TrainRun {
    sim::ShardedEventQueue sq;
    obs::Observability hub;
    std::unique_ptr<core::ConfigurableCloud> cloud;
    NullRole sink;
    core::LtlChannel ch;

    TrainRun()
    {
        auto cfg = smallCloud();
        cfg.obs = &hub;
        cloud = std::make_unique<core::ConfigurableCloud>(sq.partition(0),
                                                          cfg);
        cloud->shell(5).addRole(&sink);
        ch = cloud->openLtl(0, 5, sink.port);
        auto *engine = cloud->shell(0).ltlEngine();
        for (int i = 0; i < 80; ++i) {
            sq.partition(0).scheduleAfter(
                i * 25 * sim::kMicrosecond,
                [engine, conn = ch.sendConn()] {
                    engine->sendMessage(conn, 512);
                });
        }
    }
};

std::string
faultRunSnapshot(std::uint64_t seed)
{
    TrainRun run;
    FaultInjector inj(run.sq, *run.cloud, FaultConfig{}.withSeed(seed));
    // One flap plus corruption bursts on both ends of the train: the
    // injector's seeded RNG decides every corrupted frame.
    ChaosScenario script;
    script.withPhase("flap", sim::fromMicros(400), [&] {
        inj.flapHostLink(0, sim::fromMicros(150));
    });
    for (int k = 0; k < 6; ++k) {
        script.withPhase("burst" + std::to_string(k),
                         sim::fromMicros(200 + 550 * k), [&inj, k] {
                             inj.corruptionBurst(k % 2 == 0 ? 0 : 5, 0.3,
                                                 sim::fromMicros(200));
                         });
    }
    ChaosEngine chaos(run.sq, script);
    chaos.start();
    run.sq.runFor(sim::fromMillis(8));
    EXPECT_EQ(inj.injected(), 7u);
    return run.hub.registry.snapshotJson();
}

TEST(FaultInjection, SameSeedScheduleIsByteIdentical)
{
    const auto a = faultRunSnapshot(11);
    const auto b = faultRunSnapshot(11);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    // fault.* metrics are part of the snapshot.
    EXPECT_NE(a.find("fault.injected"), std::string::npos);
    EXPECT_NE(a.find("fault.node0.downtime_us"), std::string::npos);
    // The seed, not the script, picks which frames are corrupted.
    EXPECT_NE(faultRunSnapshot(12), a);
}

/**
 * The train with a 150 us flap of host 0's link injected at @p at:
 * registry snapshot plus trace (which records the flap's instants).
 */
std::string
flapSnapshot(sim::TimePs at, bool from_phase)
{
    TrainRun run;
    run.hub.trace.setEnabled(true);  // pins the link_down/up instants
    FaultInjector inj(run.sq, *run.cloud);
    auto flap = [&] { inj.flapHostLink(0, sim::fromMicros(150)); };
    std::optional<ChaosEngine> chaos;
    if (from_phase) {
        chaos.emplace(run.sq, ChaosScenario().withPhase("flap", at, flap));
        chaos->start();
    } else {
        run.sq.runUntil(at);
        flap();
    }
    run.sq.runUntil(sim::fromMillis(8));
    EXPECT_EQ(inj.injected(), 1u);
    EXPECT_EQ(inj.downtime(0), sim::fromMicros(150));
    return run.hub.registry.snapshotJson() + run.hub.trace.json();
}

TEST(FaultInjection, ChaosPhaseAndCallBetweenRunsAgree)
{
    // The two ways to time a fault land it at the same instant: a phase
    // fires at the barrier pinned to T, and sq.runUntil(T) stops at T
    // after every event at T, like that barrier. The trace's
    // link_down/link_up instants pin that instant exactly.
    for (sim::TimePs at : {sim::fromMicros(400), sim::fromMicros(437) + 3}) {
        const std::string phase = flapSnapshot(at, true);
        EXPECT_EQ(phase, flapSnapshot(at, false)) << "at " << at << " ps";
        EXPECT_NE(phase.find("fault.node0.downtime_us"), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// RAII channel handles.
// ---------------------------------------------------------------------

TEST(LtlChannelHandle, CloseFreesConnectionTableEntries)
{
    EventQueue eq;
    auto cfg = smallCloud();
    cfg.shellTemplate.ltl.maxConnections = 2;
    core::ConfigurableCloud cloud(eq, cfg);
    NullRole sink;
    ASSERT_GE(cloud.shell(1).addRole(&sink), 0);

    // With only 2 connection-table entries per engine, opening a channel
    // 8 times in sequence only works if the handle's destructor really
    // releases its entries.
    for (int i = 0; i < 8; ++i) {
        auto ch = cloud.openLtl(0, 1, sink.port);
        ASSERT_TRUE(ch.isOpen());
        ch.send(128);
        eq.runFor(sim::fromMicros(200));
    }
    EXPECT_EQ(sink.received, 8);
}

TEST(LtlChannelHandle, MoveTransfersOwnership)
{
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, smallCloud());
    NullRole sink;
    ASSERT_GE(cloud.shell(1).addRole(&sink), 0);

    auto ch = cloud.openLtl(0, 1, sink.port);
    const auto send_id = ch.sendConn();
    core::LtlChannel moved = std::move(ch);
    EXPECT_FALSE(ch.isOpen());
    ASSERT_TRUE(moved.isOpen());
    EXPECT_EQ(moved.sendConn(), send_id);
    EXPECT_EQ(moved.senderEngine(), cloud.shell(0).ltlEngine());

    moved.send(64);
    eq.runFor(sim::fromMicros(200));
    EXPECT_EQ(sink.received, 1);

    moved.close();
    EXPECT_FALSE(moved.isOpen());
    moved.close();  // double close is a no-op
    EXPECT_FALSE(static_cast<bool>(moved));
}

TEST(LtlChannelHandle, FailedReflectsLtlConnectionState)
{
    sim::ShardedEventQueue sq;
    auto cfg = smallCloud();
    cfg.shellTemplate.ltl.maxRetries = 3;
    core::ConfigurableCloud cloud(sq.partition(0), cfg);
    NullRole sink;
    ASSERT_GE(cloud.shell(1).addRole(&sink), 0);
    auto ch = cloud.openLtl(0, 1, sink.port);

    // Permanently cut the cable: the send connection exhausts its
    // retries and is declared failed.
    FaultInjector inj(sq, cloud);
    inj.failFpga(1);
    ch.send(256);
    sq.runFor(sim::fromMillis(5));
    EXPECT_TRUE(ch.failed());
    EXPECT_GE(cloud.shell(0).ltlEngine()->connectionFailures(), 1u);
    // Closing a failed channel is clean (tolerant teardown).
    ch.close();
    EXPECT_FALSE(ch.isOpen());
}

// ---------------------------------------------------------------------
// Construction-time validation.
// ---------------------------------------------------------------------

TEST(ConfigValidation, BadCloudConfigsDie)
{
    EventQueue eq;
    auto zero_servers = [&] {
        core::CloudConfig cfg;
        cfg.topology.hostsPerRack = 0;
        core::ConfigurableCloud cloud(eq, cfg);
    };
    EXPECT_DEATH(zero_servers(), "no servers");

    auto flow_tracing_without_hub = [&] {
        auto cfg = smallCloud();
        cfg.flowSampleEvery = 1;
        core::ConfigurableCloud cloud(eq, cfg);
    };
    EXPECT_DEATH(flow_tracing_without_hub(), "cfg.obs or cfg.shardObs");
}

TEST(ConfigValidation, BadFaultConfigsDie)
{
    // Every fault call validates its own arguments when it is made.
    sim::ShardedEventQueue sq;
    core::ConfigurableCloud cloud(sq.partition(0), smallCloud());
    FaultInjector inj(sq, cloud);
    const sim::TimePs d = sim::fromMicros(10);

    EXPECT_DEATH(inj.flapHostLink(99, d), "targets host");
    EXPECT_DEATH(inj.corruptionBurst(0, 1.5, d), "must be in");
    EXPECT_DEATH(inj.switchBrownout(7, 0, 0.1, false, d),
                 "outside the fabric");
    EXPECT_DEATH(inj.graySpineDegrade(0, 0.0, 0), "would do nothing");
    EXPECT_DEATH(inj.failTor(0, 2), "rack-in-pod 2 out of range");
    EXPECT_EQ(inj.injected(), 0u);
}

TEST(ConfigValidation, SecondConcurrentInjectorDies)
{
    sim::ShardedEventQueue sq;
    core::ConfigurableCloud cloud(sq.partition(0), smallCloud());
    FaultInjector first(sq, cloud);
    EXPECT_DEATH(FaultInjector(sq, cloud), "already");
}

TEST(ConfigValidation, InjectorSlotFreedOnDestruction)
{
    sim::ShardedEventQueue sq;
    core::ConfigurableCloud cloud(sq.partition(0), smallCloud());
    {
        FaultInjector inj(sq, cloud);
        EXPECT_EQ(cloud.faultInjector(), &inj);
    }
    EXPECT_EQ(cloud.faultInjector(), nullptr);
    FaultInjector again(sq, cloud);  // slot is reusable
    EXPECT_EQ(cloud.faultInjector(), &again);
}

TEST(ConfigValidation, InjectorOnAnotherKernelDies)
{
    // The injector acts at the barriers of the kernel that drives the
    // cloud; any other queue would never run its actions in step.
    EventQueue eq;
    core::ConfigurableCloud plain(eq, smallCloud());
    sim::ShardedEventQueue sq;
    EXPECT_DEATH(FaultInjector(sq, plain), "not driven by");

    sim::ShardedEventQueue::Config two;
    two.partitions = 2;
    sim::ShardedEventQueue sq2(two);
    core::ConfigurableCloud onTwo(sq2.partition(0), smallCloud());
    EXPECT_DEATH(FaultInjector(sq2, onTwo), "not driven by");

    auto cfg = smallCloud();
    sim::ShardedEventQueue owner(core::ConfigurableCloud::shardPlan(cfg));
    sim::ShardedEventQueue other(core::ConfigurableCloud::shardPlan(cfg));
    core::ConfigurableCloud sharded(owner, cfg);
    EXPECT_DEATH(FaultInjector(other, sharded), "not driven by");
}

TEST(ConfigValidation, SingleQueueOnlyFaultsDieOnShardedCloud)
{
    auto cfg = smallCloud();
    sim::ShardedEventQueue sq(core::ConfigurableCloud::shardPlan(cfg));
    core::ConfigurableCloud cloud(sq, cfg);
    FaultInjector inj(sq, cloud);
    EXPECT_DEATH(inj.corruptionBurst(0, 0.5, sim::fromMicros(10)),
                 "not supported on a sharded cloud");
    EXPECT_DEATH(inj.gracefulReconfig(0, sim::fromMicros(10)),
                 "not supported on a sharded cloud");
}

}  // namespace
