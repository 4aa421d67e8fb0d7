/**
 * @file
 * End-to-end failure detection & recovery: the HealthMonitor (active
 * heartbeats + passive LTL suspicion), the LTL quiesce/drain protocol,
 * the RankingServer's deadline/retry/hedge policy, and the HaaS
 * auto-heal loop, exercised together on real ConfigurableClouds.
 */
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "haas/haas.hpp"
#include "haas/health_monitor.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "roles/ranking/ranking_role.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

using namespace ccsim;

namespace {

/** An 8-server single-pod cloud. */
core::CloudConfig
smallCloudConfig(fpga::ShellConfig shell = {})
{
    net::TopologyConfig topo;
    topo.hostsPerRack = 4;
    topo.racksPerPod = 2;
    topo.l1PerPod = 2;
    topo.pods = 1;
    topo.l2Count = 1;
    return {.topology = topo, .shellTemplate = shell};
}

/**
 * A scriptable feature accelerator: completes after a fixed delay, or
 * (blackhole mode) holds the completion callback forever so the caller's
 * deadline machinery has to act. Held callbacks can be fired later to
 * model a late ack from an abandoned attempt.
 */
struct StubAccel : host::FeatureAccelerator {
    StubAccel(sim::EventQueue &q, sim::TimePs d) : eq(q), delay(d) {}

    void compute(std::uint32_t, std::function<void()> done) override
    {
        ++calls;
        if (blackhole) {
            held.push_back(std::move(done));
            return;
        }
        eq.scheduleAfter(delay, [d = std::move(done)] { d(); });
    }

    sim::EventQueue &eq;
    sim::TimePs delay;
    bool blackhole = false;
    int calls = 0;
    std::vector<std::function<void()>> held;
};

}  // namespace

// ---------------------------------------------------------------------
// HealthMonitor
// ---------------------------------------------------------------------

TEST(HealthMonitor, DetectsDarkNodeWithinBoundAndRepairsOnRejoin)
{
    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, smallCloudConfig());
    auto &rm = cloud.resourceManager();

    haas::HealthMonitor hm(eq, rm);  // defaults: 100us period, threshold 3
    cloud.attachHealthMonitor(hm);
    hm.startSharded(sq);

    sq.runFor(250 * sim::kMicrosecond);
    cloud.setHostLinkDown(3, true);
    const sim::TimePs dark_at = eq.now();

    // The detection bound is the worst case from going dark to the
    // failure report reaching the RM.
    sq.runFor(hm.detectionBound());
    EXPECT_EQ(hm.detections(), 1u);
    EXPECT_TRUE(hm.suspected(3));
    EXPECT_FALSE(rm.manager(3)->status().healthy);
    EXPECT_EQ(rm.failedCount(), 1);
    EXPECT_GE(hm.heartbeatsMissed(), 3u);
    EXPECT_GT(eq.now(), dark_at);

    // Restore the link: consecutive healthy heartbeats drive the repair.
    cloud.setHostLinkDown(3, false);
    sq.runFor(hm.config().heartbeatPeriod *
              (hm.config().rejoinHeartbeats + 2));
    EXPECT_EQ(hm.rejoins(), 1u);
    EXPECT_FALSE(hm.suspected(3));
    EXPECT_TRUE(rm.manager(3)->status().healthy);
    EXPECT_EQ(rm.failedCount(), 0);

    hm.stop();
}

TEST(HealthMonitor, PassiveLtlStreaksDetectWithoutHeartbeats)
{
    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, smallCloudConfig());
    auto &rm = cloud.resourceManager();

    // Heartbeats effectively off: the first sweep is a second away.
    haas::HealthMonitor hm(
        eq, rm,
        haas::HealthMonitorConfig{}.withHeartbeat(sim::kSecond,
                                                  10 * sim::kMicrosecond));
    cloud.attachHealthMonitor(hm);
    hm.startSharded(sq);

    core::LtlChannel ch = cloud.openLtl(0, 1, fpga::kErPortRole0);
    cloud.setHostLinkDown(1, true);
    ch.send(1024);

    // Retransmission-timeout streaks feed suspicion: the dead peer is
    // suspected long before any heartbeat sweep.
    sq.runFor(sim::fromMillis(2));
    EXPECT_GE(hm.streakReports(), 3u);
    EXPECT_EQ(hm.detections(), 1u);
    EXPECT_EQ(hm.heartbeatsSent(), 0u);
    EXPECT_FALSE(rm.manager(1)->status().healthy);

    hm.stop();
}

// ---------------------------------------------------------------------
// LTL quiesce / drain / re-handshake
// ---------------------------------------------------------------------

TEST(Quiesce, DrainRejectAndRehandshake)
{
    sim::EventQueue eq;
    core::ConfigurableCloud cloud(eq, smallCloudConfig());
    ltl::LtlEngine *e0 = cloud.shell(0).ltlEngine();
    ltl::LtlEngine *e1 = cloud.shell(1).ltlEngine();

    core::LtlChannel to1 = cloud.openLtl(0, 1, fpga::kErPortRole0);
    core::LtlChannel from1 = cloud.openLtl(1, 0, fpga::kErPortRole0);

    to1.send(1024);
    eq.runFor(sim::fromMillis(1));
    EXPECT_EQ(e1->messagesDelivered(), 1u);

    // Quiesce node 1's engine: idle, so it drains immediately.
    bool drained = false;
    e1->beginQuiesce(200 * sim::kMicrosecond, [&] { drained = true; });
    eq.runFor(sim::fromMillis(1));
    EXPECT_TRUE(drained);
    EXPECT_EQ(e1->quiesceState(), ltl::LtlEngine::QuiesceState::kQuiesced);
    EXPECT_EQ(e1->quiesces(), 1u);

    // Sends *from* the quiesced engine are refused at admission.
    from1.send(512);
    EXPECT_EQ(e1->sendsRejected(), 1u);

    // Data *into* the quiesced engine draws a REJECT, which fails the
    // sender's connection immediately — no 16-retry wait.
    to1.send(2048);
    eq.runFor(sim::fromMillis(1));
    EXPECT_GT(e1->rejectsSent(), 0u);
    EXPECT_GT(e0->rejectsReceived(), 0u);
    EXPECT_TRUE(to1.failed());
    EXPECT_EQ(e1->messagesDelivered(), 1u);  // nothing slipped through

    // Reopen admission and re-handshake: traffic flows again.
    e1->endQuiesce();
    EXPECT_EQ(e1->quiesceState(), ltl::LtlEngine::QuiesceState::kActive);
    to1.rehandshake();
    EXPECT_FALSE(to1.failed());
    to1.send(4096);
    eq.runFor(sim::fromMillis(1));
    EXPECT_EQ(e1->messagesDelivered(), 2u);
}

TEST(Quiesce, ReconfigureFullQuiescedRoundTrip)
{
    fpga::ShellConfig shell;
    shell.board.fullReconfigTime = sim::fromMillis(1);
    sim::EventQueue eq;
    core::ConfigurableCloud cloud(eq, smallCloudConfig(shell));
    ltl::LtlEngine *e1 = cloud.shell(1).ltlEngine();

    bool done = false;
    cloud.shell(1).reconfigureFullQuiesced([&] { done = true; });
    eq.runFor(100 * sim::kMicrosecond);
    EXPECT_FALSE(cloud.nodeReachable(1));  // dark mid-reconfiguration

    eq.runFor(sim::fromMillis(5));
    EXPECT_TRUE(done);
    EXPECT_TRUE(cloud.nodeReachable(1));
    EXPECT_EQ(e1->quiesces(), 1u);
    EXPECT_EQ(e1->quiesceState(), ltl::LtlEngine::QuiesceState::kActive);
}

// ---------------------------------------------------------------------
// Query deadlines, retry, hedging, software fallback
// ---------------------------------------------------------------------

TEST(RetryPolicy, DeadlineRetryCompletesOnReplica)
{
    sim::EventQueue eq;
    StubAccel primary(eq, 0);
    primary.blackhole = true;
    StubAccel replica(eq, 50 * sim::kMicrosecond);

    host::RankingServer server(eq, host::RankingServiceParams{}, &primary,
                               7);
    server.setRetryPolicy({.accelDeadline = 200 * sim::kMicrosecond,
                           .maxAttempts = 3,
                           .backoffBase = 50 * sim::kMicrosecond,
                           .backoffJitter = 0.0});
    server.setReplicaPicker([&]() -> host::FeatureAccelerator * {
        return &replica;
    });

    int completions = 0;
    server.submitQuery([&](sim::TimePs) { ++completions; });
    eq.runFor(sim::fromMillis(50));

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(server.inFlight(), 0u);
    EXPECT_EQ(primary.calls, 1);
    EXPECT_EQ(replica.calls, 1);
    EXPECT_EQ(server.deadlinesExpired(), 1u);
    EXPECT_EQ(server.retriesIssued(), 1u);
    EXPECT_EQ(server.softwareFallbacks(), 0u);
}

TEST(RetryPolicy, ExhaustionFallsBackToSoftwareAndIgnoresLateAcks)
{
    sim::EventQueue eq;
    StubAccel primary(eq, 0);
    primary.blackhole = true;

    host::RankingServer server(eq, host::RankingServiceParams{}, &primary,
                               7);
    server.setRetryPolicy({.accelDeadline = 100 * sim::kMicrosecond,
                           .maxAttempts = 2,
                           .backoffBase = 50 * sim::kMicrosecond,
                           .backoffJitter = 0.0});
    // No replica: retries go back to the (dead) primary.

    int completions = 0;
    server.submitQuery([&](sim::TimePs) { ++completions; });
    eq.runFor(sim::fromMillis(50));

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(server.softwareFallbacks(), 1u);
    EXPECT_EQ(server.deadlinesExpired(), 2u);
    EXPECT_EQ(primary.calls, 2);

    // The abandoned attempts ack late: must not double-complete.
    for (auto &ack : primary.held)
        ack();
    eq.runFor(sim::fromMillis(1));
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(server.completed(), 1u);
    EXPECT_EQ(server.inFlight(), 0u);
}

TEST(RetryPolicy, HedgedDuplicateWinsAndIsCounted)
{
    sim::EventQueue eq;
    StubAccel primary(eq, sim::fromMillis(1));  // slow
    StubAccel replica(eq, 50 * sim::kMicrosecond);

    host::RankingServer server(eq, host::RankingServiceParams{}, &primary,
                               7);
    server.setRetryPolicy(
        {.hedge = true, .hedgeDelay = 100 * sim::kMicrosecond});
    server.setReplicaPicker([&]() -> host::FeatureAccelerator * {
        return &replica;
    });

    int completions = 0;
    server.submitQuery([&](sim::TimePs) { ++completions; });
    eq.runFor(sim::fromMillis(50));

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(server.hedgesIssued(), 1u);
    EXPECT_EQ(server.hedgeWins(), 1u);
    EXPECT_EQ(primary.calls, 1);
    EXPECT_EQ(replica.calls, 1);
    EXPECT_EQ(server.completed(), 1u);  // the slow primary's late ack
    EXPECT_EQ(server.inFlight(), 0u);   // was dropped, not re-counted
}

TEST(RetryPolicy, FailPendingRescuesDispatchedQueriesExactlyOnce)
{
    sim::EventQueue eq;
    StubAccel primary(eq, 0);
    primary.blackhole = true;

    // No retry policy: the pre-policy behaviour is to block forever.
    host::RankingServer server(eq, host::RankingServiceParams{}, &primary,
                               7);
    int completions = 0;
    server.submitQuery([&](sim::TimePs) { ++completions; });
    eq.runFor(sim::fromMillis(5));  // well past the pre-feature CPU stage
    ASSERT_EQ(primary.calls, 1);
    EXPECT_EQ(server.inFlight(), 1u);

    EXPECT_EQ(server.failPendingToSoftware(), 1u);
    for (auto &ack : primary.held)  // dead accelerator acks late
        ack();
    eq.runFor(sim::fromMillis(50));

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(server.completed(), 1u);
    EXPECT_EQ(server.inFlight(), 0u);
    EXPECT_EQ(server.softwareFallbacks(), 1u);
}

// ---------------------------------------------------------------------
// HaaS auto-heal through the RM subscriptions
// ---------------------------------------------------------------------

TEST(AutoHeal, ReacquiresRepairedBoardAndReconfiguresIt)
{
    sim::EventQueue eq;
    core::ConfigurableCloud cloud(eq, smallCloudConfig());
    auto &rm = cloud.resourceManager();

    // Fill the pool so only two boards remain for the service.
    auto filler = rm.acquire("filler", 6);
    ASSERT_TRUE(filler.has_value());

    std::vector<std::unique_ptr<roles::RankingRole>> role_pool;
    haas::ServiceManager sm(eq, rm, "rank", [&](int) {
        role_pool.push_back(std::make_unique<roles::RankingRole>(eq));
        return role_pool.back().get();
    });
    sm.enableAutoHeal(2);
    ASSERT_TRUE(sm.deploy(2));
    const int victim = sm.instances()[0];

    // Pool exhausted: the failover cannot find a replacement and the
    // service shrinks below target.
    rm.reportFailure(victim);
    EXPECT_EQ(sm.instances().size(), 1u);
    EXPECT_EQ(sm.failovers(), 0u);
    EXPECT_EQ(rm.freeCount(), 0);

    // Repair returns the board blank; the repair subscription re-leases
    // it and configures a fresh role into the reclaimed region (this
    // used to fail: the dead instance's role still occupied the area).
    rm.repair(victim);
    EXPECT_EQ(sm.instances().size(), 2u);
    EXPECT_EQ(sm.autoHeals(), 1u);
    EXPECT_TRUE(rm.manager(victim)->status().hasRole);
}

TEST(AutoHeal, DeployFailsGracefullyOnExhaustedPool)
{
    sim::EventQueue eq;
    core::ConfigurableCloud cloud(eq, smallCloudConfig());
    auto &rm = cloud.resourceManager();
    auto filler = rm.acquire("filler", 6);
    ASSERT_TRUE(filler.has_value());

    std::vector<std::unique_ptr<roles::RankingRole>> role_pool;
    haas::ServiceManager sm(eq, rm, "rank", [&](int) {
        role_pool.push_back(std::make_unique<roles::RankingRole>(eq));
        return role_pool.back().get();
    });
    EXPECT_FALSE(sm.deploy(3));  // only 2 boards left
    EXPECT_EQ(sm.instances().size(), 2u);
    EXPECT_EQ(rm.freeCount(), 0);
}

TEST(AutoHeal, SimultaneousFailureCallbacksArriveInHostIndexOrder)
{
    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, smallCloudConfig());
    auto &rm = cloud.resourceManager();

    // Lease every board so failure callbacks fire for each victim.
    auto lease = rm.acquire("svc", 8);
    ASSERT_TRUE(lease.has_value());

    std::vector<int> order;
    rm.subscribeFailures(
        [&](int host, std::uint64_t) { order.push_back(host); });

    haas::HealthMonitor hm(eq, rm);
    cloud.attachHealthMonitor(hm);
    hm.startSharded(sq);

    // Three nodes go dark at the same instant; one sweep crosses the
    // threshold for all of them, in host-index order.
    sq.runFor(150 * sim::kMicrosecond);
    for (int host : {5, 2, 7})
        cloud.setHostLinkDown(host, true);
    sq.runFor(hm.detectionBound());
    hm.stop();

    EXPECT_EQ(order, (std::vector<int>{2, 5, 7}));
    EXPECT_EQ(rm.failedCount(), 3);
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

namespace {

/** A miniature chaos run; returns the full metrics snapshot. */
std::string
miniChaosSnapshot()
{
    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    obs::Observability hub;
    core::CloudConfig cfg = smallCloudConfig();
    cfg.obs = &hub;
    core::ConfigurableCloud cloud(eq, cfg);
    auto &rm = cloud.resourceManager();

    haas::HealthMonitor hm(eq, rm);
    hm.attachObservability(&hub);
    cloud.attachHealthMonitor(hm);
    hm.startSharded(sq);

    StubAccel primary(eq, 150 * sim::kMicrosecond);
    StubAccel replica(eq, 150 * sim::kMicrosecond);
    host::RankingServer server(eq, host::RankingServiceParams{}, &primary,
                               31);
    server.attachObservability(&hub, "rank");
    server.setRetryPolicy({.accelDeadline = sim::fromMillis(2),
                           .maxAttempts = 3,
                           .backoffBase = 100 * sim::kMicrosecond,
                           .backoffJitter = 0.2,
                           .hedge = true,
                           .hedgeDelay = 300 * sim::kMicrosecond});
    server.setReplicaPicker([&]() -> host::FeatureAccelerator * {
        return &replica;
    });

    host::PoissonLoadGenerator gen(
        eq, 2000.0, [&] { server.submitQuery(); }, 37);
    eq.schedule(sim::fromMillis(5),
                [&] { cloud.setHostLinkDown(3, true); });
    eq.schedule(sim::fromMillis(8),
                [&] { cloud.setHostLinkDown(3, false); });

    gen.start();
    sq.runUntil(sim::fromMillis(20));
    gen.stop();
    sq.runFor(sim::fromMillis(50));
    hm.stop();
    sq.runFor(sim::fromMillis(1));
    return hub.registry.snapshotJson();
}

}  // namespace

TEST(Determinism, SameSeedChaosRunsAreByteIdentical)
{
    const std::string a = miniChaosSnapshot();
    const std::string b = miniChaosSnapshot();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}
