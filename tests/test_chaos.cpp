/**
 * @file
 * Correlated failure domains: the FailureDomainMap hierarchy, TOR hard
 * deaths and gray spine degradation (including on never-touched lazy
 * racks), domain-level conviction in the HealthMonitor (one rack = one
 * event), the ResourceManager's two-phase domain failure report,
 * rack/pod anti-affinity placement with its ablation, the rate-limited
 * mass-migration throttle, the ChaosEngine's scripted campaigns, the
 * fluid-model stall interplay, and byte-identity of sharded correlated
 * fault schedules across worker counts.
 */
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "fault/chaos.hpp"
#include "fault/failure_domain.hpp"
#include "fault/fault.hpp"
#include "fpga/null_role.hpp"
#include "haas/haas.hpp"
#include "haas/health_monitor.hpp"
#include "net/fluid.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded_obs.hpp"
#include "obs/timeseries.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

namespace {

using namespace ccsim;
using fault::FaultConfig;
using fault::FaultInjector;
using sim::EventQueue;
using sim::TimePs;

/** 2 pods x 2 racks x 4 hosts: enough hierarchy for domain tests. */
core::CloudConfig
domainCloud(bool lazy = false)
{
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 2;
    cfg.topology.l2Count = 2;
    cfg.createNics = false;
    cfg.lazyHosts = lazy;
    cfg.shellTemplate.ltl.maxConnections = 16;
    return cfg;
}

// ---------------------------------------------------------------------
// The failure-domain hierarchy is pure arithmetic over the geometry.
// ---------------------------------------------------------------------

TEST(FailureDomainMap, ArithmeticMatchesGeometry)
{
    const fault::FailureDomainMap map(4, 2, 3);  // 4/rack, 2 racks/pod
    EXPECT_EQ(map.hosts(), 24);
    EXPECT_EQ(map.racks(), 6);
    EXPECT_EQ(map.pods(), 3);

    // Host 13 = pod 1, second rack, host 1 within it.
    EXPECT_EQ(map.podOf(13), 1);
    EXPECT_EQ(map.rackOf(13), 3);
    EXPECT_EQ(map.podOfRack(3), 1);
    EXPECT_EQ(map.rackIndexInPod(3), 1);
    EXPECT_EQ(map.rackId(1, 1), 3);

    EXPECT_EQ(map.rackHosts(3), (std::vector<int>{12, 13, 14, 15}));
    EXPECT_EQ(map.podHosts(2), (std::vector<int>{16, 17, 18, 19, 20, 21,
                                                 22, 23}));
    // Every host maps into exactly one rack of its pod.
    for (int h = 0; h < map.hosts(); ++h)
        EXPECT_EQ(map.podOfRack(map.rackOf(h)), map.podOf(h));
}

// ---------------------------------------------------------------------
// Correlated injectors: one TOR death is the whole rack at once.
// ---------------------------------------------------------------------

TEST(CorrelatedFaults, TorDeathDarkensWholeLazyRack)
{
    // Regression: a TOR hard death aimed at a rack nobody ever touched
    // must materialize its stubs deterministically and darken every
    // member — not crash, not no-op.
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, domainCloud(true));
    FaultInjector inj(sq, cloud);

    const auto rack = inj.domains().rackHosts(inj.domains().rackId(1, 1));
    for (int h : rack)
        ASSERT_FALSE(cloud.serverMaterialized(h));

    inj.failTor(1, 1);
    sq.runFor(sim::fromMicros(100));
    EXPECT_TRUE(inj.torFailed(1, 1));
    EXPECT_EQ(inj.torFails(), 1u);
    EXPECT_EQ(inj.domainFaults(), 1u);
    for (int h : rack) {
        EXPECT_TRUE(cloud.serverMaterialized(h));
        EXPECT_FALSE(cloud.nodeReachable(h));
    }
    // The blast radius is exactly one rack: its pod-sibling rack and the
    // other pod stay untouched stubs.
    for (int h : inj.domains().rackHosts(inj.domains().rackId(1, 0)))
        EXPECT_FALSE(cloud.serverMaterialized(h));

    inj.repairTor(1, 1);
    sq.runFor(sim::fromMicros(100));
    EXPECT_FALSE(inj.torFailed(1, 1));
    for (int h : rack)
        EXPECT_TRUE(cloud.nodeReachable(h));
}

TEST(CorrelatedFaults, BrownoutReachesNeverTouchedLazyRack)
{
    // A switch-level brownout is pure switch state: it must work on a
    // rack whose hosts are all stubs, and clear on schedule.
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, domainCloud(true));
    FaultInjector inj(sq, cloud);

    inj.switchBrownout(1, 0, 0.5, true, sim::fromMicros(400));
    sq.runFor(sim::fromMicros(100));
    EXPECT_TRUE(cloud.topology().tor(1, 0).inBrownout());
    sq.runFor(sim::fromMillis(1));
    EXPECT_FALSE(cloud.topology().tor(1, 0).inBrownout());
}

TEST(CorrelatedFaults, GraySpineStaysHeartbeatReachable)
{
    // Gray degradation is the nasty case: frames drop and latency
    // inflates, but no link is admin-down — every host still answers
    // the management path, so per-host liveness checks see nothing.
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    FaultInjector inj(sq, cloud);

    inj.graySpineDegrade(1, 0.01, 300 * sim::kNanosecond);
    sq.runFor(sim::fromMicros(100));
    EXPECT_EQ(inj.grayFaults(), 1u);
    for (int h = 0; h < cloud.numServers(); ++h)
        EXPECT_TRUE(cloud.nodeReachable(h));
    inj.graySpineClear(1);
    sq.runFor(sim::fromMicros(100));
}

// ---------------------------------------------------------------------
// Domain conviction: one dead TOR is one event, not N detections.
// ---------------------------------------------------------------------

TEST(DomainConviction, DeadTorConvictsRackAsOneEvent)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    haas::HealthMonitorConfig hc;
    hc.withHeartbeat(100 * sim::kMicrosecond, 10 * sim::kMicrosecond)
        .withSuspicion(3.0, 1.0, 0.0)
        .withDomainConviction(2, 4);
    haas::HealthMonitor hm(eq, cloud.resourceManager(), hc);
    cloud.attachHealthMonitor(hm);
    // Watch the dying rack (hosts 4-7) and one host beyond it: no other
    // host may ever be probed.
    std::set<int> probed;
    hm.setProbe([&](int host) {
        probed.insert(host);
        return cloud.nodeReachable(host);
    });
    hm.watchHosts({8, 7, 6, 5, 4, 4});

    FaultInjector inj(sq, cloud, FaultConfig{}.withSelfReport(false));
    hm.startSharded(sq);
    sq.runFor(sim::fromMicros(250));

    inj.failTor(0, 1);
    // Running for exactly the advertised bound (plus one heartbeat of
    // slack for the in-flight sweep) must be enough to convict.
    sq.runFor(hm.domainDetectionBound() + hc.heartbeatPeriod);

    EXPECT_EQ(hm.domainConvictions(), 1u);
    EXPECT_EQ(hm.detections(), 0u) << "a convicted rack must not also "
                                      "count per-host detections";
    EXPECT_EQ(cloud.resourceManager().failedCount(), 4);
    EXPECT_EQ(probed, (std::set<int>{4, 5, 6, 7, 8}));
    hm.stop();
}

TEST(DomainConviction, TwoPhaseDomainReportKeepsFailoverOutOfDyingRack)
{
    // Without the two-phase report, the SM's inline failover for the
    // first convicted member can be granted a sibling of the same rack
    // that merely had not been marked failed yet.
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    haas::ResourceManager &rm = cloud.resourceManager();

    fpga::NullRole role;
    haas::ServiceManager sm(eq, rm, "svc", [&](int) { return &role; });
    ASSERT_TRUE(sm.deploy(2));  // lands on hosts 0,1 (rack 0)
    sm.enableAutoHeal(2);
    for (int h : sm.instances())
        ASSERT_EQ(rm.nodeRack(h), 0);

    rm.reportDomainFailure({0, 1, 2, 3});
    eq.runFor(sim::fromMillis(1));

    ASSERT_EQ(sm.instances().size(), 2u);
    for (int h : sm.instances())
        EXPECT_NE(rm.nodeRack(h), 0)
            << "replacement host " << h << " landed in the dying rack";
    EXPECT_EQ(rm.failedCount(), 4);
}

TEST(DomainConviction, DomainReportIsIdempotentPerHost)
{
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    haas::ResourceManager &rm = cloud.resourceManager();

    rm.reportFailure(0);
    rm.reportDomainFailure({0, 1, 2, 3});
    rm.reportDomainFailure({0, 1, 2, 3});
    EXPECT_EQ(rm.failuresReported(), 4u);
    EXPECT_EQ(rm.failedCount(), 4);
}

// ---------------------------------------------------------------------
// Anti-affinity placement and its ablation.
// ---------------------------------------------------------------------

TEST(AntiAffinity, PlacementHonorsRackAndPodCaps)
{
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    haas::ResourceManager &rm = cloud.resourceManager();

    fpga::NullRole role;
    haas::ServiceManager sm(eq, rm, "svc", [&](int) { return &role; });
    haas::LeaseConstraints lc;
    lc.withAntiAffinity(1, 2);
    ASSERT_TRUE(sm.deploy(4, lc));

    std::set<int> racks;
    std::map<int, int> perPod;
    for (int h : sm.instances()) {
        racks.insert(rm.nodeRack(h));
        ++perPod[cloud.topology().host(h).pod];
    }
    EXPECT_EQ(racks.size(), 4u) << "maxPerRack=1 must spread each "
                                   "instance onto its own rack";
    for (const auto &[pod, n] : perPod)
        EXPECT_LE(n, 2);
    EXPECT_GT(rm.affinitySkips(), 0u);
}

TEST(AntiAffinity, AblationPilesInstancesIntoOneRack)
{
    // The ablation the chaos campaign measures: with no constraints the
    // free-list order piles the service into the first rack, so one TOR
    // death amputates everything.
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    haas::ResourceManager &rm = cloud.resourceManager();

    fpga::NullRole role;
    haas::ServiceManager sm(eq, rm, "svc", [&](int) { return &role; });
    ASSERT_TRUE(sm.deploy(4));
    for (int h : sm.instances())
        EXPECT_EQ(rm.nodeRack(h), 0);
    EXPECT_EQ(rm.affinitySkips(), 0u);
}

TEST(AntiAffinity, CapsSurviveFailover)
{
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    haas::ResourceManager &rm = cloud.resourceManager();

    fpga::NullRole role;
    haas::ServiceManager sm(eq, rm, "svc", [&](int) { return &role; });
    haas::LeaseConstraints lc;
    lc.withAntiAffinity(1);
    ASSERT_TRUE(sm.deploy(3, lc));
    sm.enableAutoHeal(3, lc);

    const int victim = sm.instances().front();
    rm.reportFailure(victim);
    eq.runFor(sim::fromMillis(1));

    ASSERT_EQ(sm.instances().size(), 3u);
    std::set<int> racks;
    for (int h : sm.instances())
        racks.insert(rm.nodeRack(h));
    EXPECT_EQ(racks.size(), 3u)
        << "the replacement must honor the rack cap too";
}

// ---------------------------------------------------------------------
// The mass-migration throttle: a dead rack is a paced evacuation.
// ---------------------------------------------------------------------

TEST(MigrationThrottle, MassFailureDrainsOnePerGap)
{
    EventQueue eq;
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    haas::ResourceManager &rm = cloud.resourceManager();

    fpga::NullRole role;
    haas::ServiceManager sm(eq, rm, "svc", [&](int) { return &role; });
    ASSERT_TRUE(sm.deploy(4));  // all of rack 0
    sm.enableAutoHeal(4);
    const TimePs gap = 50 * sim::kMicrosecond;
    sm.setMigrationPolicy(gap, /*self_pump=*/true);

    rm.reportDomainFailure({0, 1, 2, 3});
    eq.runFor(sim::fromMicros(10));
    // The first failover is immediate; the other three queue.
    EXPECT_EQ(sm.failovers(), 1u);
    EXPECT_EQ(sm.migrationsQueued(), 3u);

    eq.runFor(sim::fromMillis(1));
    EXPECT_EQ(sm.failovers(), 4u);
    EXPECT_EQ(sm.migrationQueueDepth(), 0);
    EXPECT_GE(sm.minMigrationGapObserved(), gap);
    for (int h : sm.instances())
        EXPECT_NE(rm.nodeRack(h), 0);
}

// ---------------------------------------------------------------------
// The chaos engine: declarative campaigns, deterministic execution.
// ---------------------------------------------------------------------

TEST(ChaosEngine, TimedAndTriggeredPhasesFireInOrder)
{
    sim::ShardedEventQueue sq;
    bool armed = false;
    int torKilled = 0, drained = 0;

    fault::ChaosScenario sc;
    sc.withPhase("tor-death", sim::fromMicros(200), [&] { ++torKilled; })
        .withTriggeredPhase(
            "drain", sim::fromMicros(100), [&] { return armed; },
            [&] { ++drained; });

    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = sim::fromMillis(10)});
    std::ostringstream out;
    hub.exportTo(&out);

    fault::ChaosEngine chaos(sq, sc);
    chaos.setPollPeriod(50 * sim::kMicrosecond);
    chaos.setMarkerHub(&hub);
    obs::Observability ob;
    chaos.attachObservability(&ob);
    chaos.start();

    sq.runFor(sim::fromMicros(400));
    EXPECT_EQ(torKilled, 1);
    EXPECT_EQ(drained, 0) << "trigger must wait for its predicate";
    EXPECT_FALSE(chaos.done());
    EXPECT_EQ(ob.registry.probeValue("chaos.phases"), 2.0);
    EXPECT_EQ(ob.registry.probeValue("chaos.phases_fired"), 1.0);

    armed = true;
    sq.runFor(sim::fromMicros(400));
    EXPECT_EQ(drained, 1);
    EXPECT_TRUE(chaos.done());
    EXPECT_EQ(chaos.phasesFired(), 2u);
    EXPECT_EQ(ob.registry.probeValue("chaos.phases_fired"), 2.0);
    EXPECT_EQ(chaos.firedPhases(),
              (std::vector<std::string>{"tor-death", "drain"}));

    // Every firing left a chaos marker in the JSONL stream.
    const std::string lines = out.str();
    EXPECT_NE(lines.find("\"type\":\"chaos\""), std::string::npos);
    EXPECT_NE(lines.find("\"phase\":\"tor-death\""), std::string::npos);
    EXPECT_NE(lines.find("\"phase\":\"drain\""), std::string::npos);
    EXPECT_NE(lines.find("\"kind\":\"injected\""), std::string::npos);
}

TEST(ChaosEngineDeathTest, NegativePhaseTimeDies)
{
    sim::ShardedEventQueue sq;
    auto timed = [&] {
        fault::ChaosEngine chaos(
            sq, fault::ChaosScenario{}.withPhase("early", -1, [] {}));
    };
    EXPECT_DEATH(timed(), "phase \"early\" scheduled at negative time");
    auto triggered = [&] {
        fault::ChaosEngine chaos(
            sq, fault::ChaosScenario{}.withTriggeredPhase(
                    "late", -sim::fromMicros(5), [] { return true; },
                    [] {}));
    };
    EXPECT_DEATH(triggered(), "phase \"late\" scheduled at negative time");
}

TEST(ChaosEngine, EmitsDetectedMarkerOnDomainConviction)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    haas::HealthMonitorConfig hc;
    hc.withHeartbeat(100 * sim::kMicrosecond, 10 * sim::kMicrosecond)
        .withSuspicion(3.0, 1.0, 0.0)
        .withDomainConviction(2, 4);
    haas::HealthMonitor hm(eq, cloud.resourceManager(), hc);
    cloud.attachHealthMonitor(hm);
    FaultInjector inj(sq, cloud, FaultConfig{}.withSelfReport(false));

    // The triggered phase keeps the engine polling until the monitor
    // convicts — the shape every campaign uses to react to detection.
    bool reacted = false;
    fault::ChaosScenario sc;
    sc.withPhase("tor-death", sim::fromMicros(300),
                 [&] { inj.failTor(0, 0); })
        .withTriggeredPhase(
            "react", sim::fromMicros(300),
            [&] { return hm.domainConvictions() > 0; },
            [&] { reacted = true; });
    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = sim::fromMillis(10)});
    std::ostringstream out;
    hub.exportTo(&out);
    fault::ChaosEngine chaos(sq, sc);
    chaos.setPollPeriod(50 * sim::kMicrosecond);
    chaos.setMarkerHub(&hub);
    chaos.watchHealth(&hm);
    hm.startSharded(sq);
    chaos.start();

    sq.runFor(sim::fromMillis(2));
    EXPECT_EQ(hm.domainConvictions(), 1u);
    EXPECT_TRUE(reacted);
    const std::string lines = out.str();
    EXPECT_NE(lines.find("\"phase\":\"domain-conviction\""),
              std::string::npos);
    EXPECT_NE(lines.find("\"kind\":\"detected\""), std::string::npos);
    hm.stop();
}

// ---------------------------------------------------------------------
// One control plane: single-queue and sharded clouds agree.
// ---------------------------------------------------------------------

/** Everything the agreement drill observes about its control plane. */
struct DrillTrace {
    std::vector<std::pair<std::string, TimePs>> phases;
    std::uint64_t convictions = 0;
    std::vector<TimePs> failovers;  ///< replacement role configurations
    std::vector<int> instances;
    std::vector<std::string> markers;
};

/**
 * TOR death under a managed, rate-limited service, reacted to by two
 * triggered phases. @p shards 0 builds a single-queue cloud on a
 * one-partition kernel; N > 0 the sharded cloud with N workers.
 */
DrillTrace
agreementDrill(int shards, bool chaos_first)
{
    auto cfg = domainCloud(false);
    std::unique_ptr<sim::ShardedEventQueue> sq;
    std::unique_ptr<core::ConfigurableCloud> cloud;
    if (shards > 0) {
        cfg.shards = shards;
        sq = std::make_unique<sim::ShardedEventQueue>(
            core::ConfigurableCloud::shardPlan(cfg));
        cloud = std::make_unique<core::ConfigurableCloud>(*sq, cfg);
    } else {
        sq = std::make_unique<sim::ShardedEventQueue>();
        cloud = std::make_unique<core::ConfigurableCloud>(sq->partition(0),
                                                          cfg);
    }
    haas::ResourceManager &rm = cloud->resourceManager();
    DrillTrace trace;

    fpga::NullRole role;
    bool deployed = false;
    haas::ServiceManager sm(cloud->controlQueue(), rm, "svc", [&](int) {
        if (deployed)
            trace.failovers.push_back(sq->now());
        return &role;
    });
    EXPECT_TRUE(sm.deploy(4));  // first fit: all of rack 0
    sm.enableAutoHeal(4);
    sm.setMigrationPolicy(50 * sim::kMicrosecond, /*self_pump=*/false);
    deployed = true;

    haas::HealthMonitorConfig hc;
    hc.withHeartbeat(100 * sim::kMicrosecond, 10 * sim::kMicrosecond)
        .withSuspicion(3.0, 1.0, 0.0)
        .withDomainConviction(2, 4);
    haas::HealthMonitor hm(cloud->controlQueue(), rm, hc);
    cloud->attachHealthMonitor(hm);
    FaultInjector inj(*sq, *cloud, FaultConfig{}.withSelfReport(false));

    const auto mark = [&](const char *name) {
        trace.phases.emplace_back(name, sq->now());
    };
    const TimePs torAt = sim::fromMicros(300);
    fault::ChaosScenario sc;
    sc.withPhase("tor-death", torAt,
                 [&] {
                     mark("tor-death");
                     inj.failTor(0, 0);
                 })
        .withTriggeredPhase(
            "convicted", torAt, [&] { return hm.domainConvictions() > 0; },
            [&] { mark("convicted"); })
        .withTriggeredPhase(
            "evacuated", torAt,
            [&] {
                if (sm.instances().size() < 4u)
                    return false;
                for (int h : sm.instances())
                    if (rm.nodeRack(h) == 0)
                        return false;
                return true;
            },
            [&] { mark("evacuated"); });
    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = sim::fromMillis(10)});
    std::ostringstream out;
    hub.exportTo(&out);
    fault::ChaosEngine chaos(*sq, sc);
    chaos.setPollPeriod(50 * sim::kMicrosecond);
    chaos.setMarkerHub(&hub);
    chaos.manageService(&sm);
    chaos.watchHealth(&hm);
    if (chaos_first) {
        chaos.start();
        hm.startSharded(*sq);
    } else {
        hm.startSharded(*sq);
        chaos.start();
    }

    sq->runFor(sim::fromMillis(2));
    EXPECT_TRUE(chaos.done());
    trace.convictions = hm.domainConvictions();
    trace.instances = sm.instances();
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);)
        if (line.find("\"type\":\"chaos\"") != std::string::npos)
            trace.markers.push_back(line);
    return trace;
}

TEST(KernelAgreement, SingleQueueAndShardedDrillsAgree)
{
    // Chaos, fault injection and health sweeps all run at barriers, and
    // triggers follow the engine's poll grid, so neither the partition
    // count, the worker count nor hook registration order may move a
    // single verdict.
    const DrillTrace base = agreementDrill(0, false);
    ASSERT_EQ(base.phases.size(), 3u);
    EXPECT_EQ(base.convictions, 1u);
    EXPECT_EQ(base.failovers.size(), 4u);
    EXPECT_EQ(base.markers.size(), 4u);  // 3 phases + 1 detection
    for (int shards : {0, 1, 2}) {
        for (bool chaos_first : {false, true}) {
            const DrillTrace t = agreementDrill(shards, chaos_first);
            const std::string what = "shards=" + std::to_string(shards) +
                                     (chaos_first ? " chaos first" : "");
            EXPECT_EQ(t.phases, base.phases) << what;
            EXPECT_EQ(t.convictions, base.convictions) << what;
            EXPECT_EQ(t.failovers, base.failovers) << what;
            EXPECT_EQ(t.instances, base.instances) << what;
            EXPECT_EQ(t.markers, base.markers) << what;
        }
    }
}

// ---------------------------------------------------------------------
// Fluid interplay: dead hops stall flows without losing a byte.
// ---------------------------------------------------------------------

TEST(FluidFaults, TorDeathStallsFlowsConservatively)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, domainCloud(false));
    net::Topology &topo = cloud.topology();
    net::FluidTrafficModel fm(eq, topo);
    FaultInjector inj(sq, cloud);

    // One flow through the doomed rack, one witness flow elsewhere.
    const auto victim = fm.addFlow(topo.hostIndex(0, 0, 0),
                                   topo.hostIndex(1, 0, 0), 800'000'000);
    const auto witness = fm.addFlow(topo.hostIndex(0, 1, 1),
                                    topo.hostIndex(1, 1, 2), 800'000'000);

    sq.runFor(sim::fromMillis(1));
    fm.foldAll();
    const std::uint64_t victimBytesAtCut = fm.flow(victim)->fluidBytes;
    EXPECT_GT(victimBytesAtCut, 0u);

    inj.failTor(0, 0);
    sq.runFor(sim::fromMicros(10));
    fm.foldAll();
    EXPECT_EQ(fm.stalledFlows(), 1u);
    EXPECT_TRUE(fm.flow(victim)->stalled);
    EXPECT_FALSE(fm.flow(witness)->stalled);

    // A stalled flow accrues nothing, however long the outage.
    sq.runFor(sim::fromMillis(2));
    fm.foldAll();
    EXPECT_EQ(fm.flow(victim)->fluidBytes, victimBytesAtCut);
    EXPECT_GT(fm.flow(witness)->fluidBytes, victimBytesAtCut);

    // Repair un-stalls it at the next fold and accrual resumes from
    // there; conservation holds over the whole cut/repair history.
    inj.repairTor(0, 0);
    sq.runFor(sim::fromMicros(10));
    fm.foldAll();  // this fold discovers the healed path
    EXPECT_EQ(fm.stalledFlows(), 0u);
    sq.runFor(sim::fromMillis(1));
    fm.foldAll();
    EXPECT_GT(fm.flow(victim)->fluidBytes, victimBytesAtCut);
    EXPECT_GE(fm.stallTransitions(), 1u);
    const net::FluidConservation c = fm.verify();
    EXPECT_TRUE(c.ok) << "channel credits " << c.channelCredits
                      << " != expected " << c.expectedChannelCredits;
}

// ---------------------------------------------------------------------
// Sharded injection: byte-identical across worker counts.
// ---------------------------------------------------------------------

std::string
shardedCorrelatedRun(int threads)
{
    auto cfg = domainCloud(true);
    cfg.shards = threads;
    obs::ShardedObservability hubs(cfg.topology.pods + 1);
    cfg.shardObs = &hubs;
    sim::ShardedEventQueue sq(core::ConfigurableCloud::shardPlan(cfg));
    core::ConfigurableCloud cloud(sq, cfg);

    FaultInjector inj(sq, cloud, FaultConfig{}.withSeed(7));
    fault::ChaosEngine chaos(
        sq,
        fault::ChaosScenario{}
            .withPhase("tor-fail", sim::fromMicros(300),
                       [&] { inj.failTor(0, 1); })
            .withPhase("gray-spine", sim::fromMicros(500),
                       [&] {
                           inj.graySpineDegrade(1, 0.02,
                                                200 * sim::kNanosecond);
                       })
            .withPhase("pod-power", sim::fromMicros(700),
                       [&] {
                           inj.podPowerEvent(1, sim::fromMicros(40),
                                             sim::fromMicros(300));
                       })
            .withPhase("gray-clear", sim::fromMicros(1100),
                       [&] { inj.graySpineClear(1); })
            .withPhase("tor-repair", sim::fromMicros(1200),
                       [&] { inj.repairTor(0, 1); })
            .withPhase("maintenance", sim::fromMicros(1600), [&] {
                inj.rollingMaintenance(0, sim::fromMicros(200),
                                       sim::fromMicros(250));
            }));
    chaos.start();

    net::FluidTrafficModel fm(sq, cloud.topology());
    for (int k = 0; k < 6; ++k)
        fm.addFlow(cloud.topology().hostIndex(0, k % 2, k % 4),
                   cloud.topology().hostIndex(1, (k + 1) % 2, (3 * k) % 4),
                   400'000'000);

    sq.runFor(sim::fromMillis(4));
    fm.foldAll();
    EXPECT_TRUE(fm.verify().ok);
    EXPECT_EQ(inj.domainFaults(), 4u);
    EXPECT_GT(inj.recovered(), 0u);
    return hubs.mergedSnapshotJson();
}

TEST(ShardedFaults, CorrelatedScheduleByteIdenticalAcrossWorkers)
{
    const std::string base = shardedCorrelatedRun(1);
    EXPECT_NE(base.find("fault."), std::string::npos);
    for (int threads : {2, 4}) {
        EXPECT_EQ(shardedCorrelatedRun(threads), base)
            << "sharded fault schedule diverged at " << threads
            << " workers";
    }
}

}  // namespace
