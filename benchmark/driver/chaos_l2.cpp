/**
 * @file
 * chaos_l2: the Figure 7 correlated-failure drill at full scale on the
 * sharded kernel with two worker threads. A ranking service placed with
 * rack/pod anti-affinity carries live query traffic while a scripted
 * ChaosEngine kills a TOR, degrades an L2 spine and drains a pod; a
 * domain-aware HealthMonitor convicts the dead rack and the service
 * manager evacuates it at a paced rate. Dominated by barrier windows and
 * hooks (the sharded tax); the only workload that runs the fault layer.
 *
 * Event callbacks run on the kernel's worker threads, so only the
 * driver's coordinator-thread calls (set-up, runs, barrier-hook phases)
 * carry trace spans here.
 */
#include <map>
#include <memory>
#include <set>

#include "bench.hpp"
#include "core/cloud.hpp"
#include "fabric.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "haas/health_monitor.hpp"
#include "net/fluid.hpp"
#include "obs/sharded_obs.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::bench {

namespace {

struct ChaosParams {
    int pods = 260;  // the fig07 L2 fabric: 24 x 40 x 260 = 249,600
    int racksPerPod = 40;
    int hostsPerRack = 24;
    int l2Count = 4;
    int windows = 16;  ///< scripted campaign windows
    sim::TimePs windowLen = 5 * sim::kMillisecond;
    int drainWindows = 20;  ///< extra windows to flush re-sent queries
    int instances = 8;
    int maxPerRack = 2;  ///< anti-affinity: service FPGAs per rack
    int maxPerPod = 6;
    int queriesPerSlot = 20;  ///< fresh queries per instance per window
    int pairs = 8;            ///< healthy-pod probe pairs
    int pingsPerWindow = 40;
    int flows = 8000;
    std::uint64_t flowBps = 200ull * 1000 * 1000;
    sim::TimePs migrationGap = 150 * sim::kMicrosecond;
    sim::TimePs chaosPoll = 50 * sim::kMicrosecond;
    int workers = 2;
};

/** The service role: records every delivered query id. */
struct QueryRole : fpga::Role {
    int port = -1;
    std::vector<std::uint64_t> delivered;
    std::size_t harvested = 0;  ///< prefix already consumed by the driver
    std::string name() const override { return "bench-rank"; }
    std::uint32_t areaAlms() const override { return 100; }
    void attach(fpga::Shell &, int p) override { port = p; }
    void onMessage(const router::ErMessagePtr &msg) override
    {
        const auto d =
            std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
        if (d && d->appPayload)
            delivered.push_back(
                *std::static_pointer_cast<std::uint64_t>(d->appPayload));
    }
};

}  // namespace

RepResult
runChaosL2(const RepContext &ctx)
{
    Tracer &tr = *ctx.tracer;
    RepResult res;
    const auto rep = tr.span("driver", "rep");
    ChaosParams p;
    if (ctx.smoke) {
        p.pods = 8;
        p.racksPerPod = 4;
        p.hostsPerRack = 4;
        p.l2Count = 4;
        p.windows = 8;
        p.windowLen = sim::kMillisecond;
        p.queriesPerSlot = 4;
        p.pairs = 2;
        p.pingsPerWindow = 10;
        p.flows = 300;
    }
    const int hosts = p.pods * p.racksPerPod * p.hostsPerRack;
    // Fault targets: the victim rack is the first instance's (pod 0 under
    // first-fit placement); the drained pod sits mid-fabric; probes and
    // clients use the remaining pods.
    const int maintPod = p.pods / 2;
    const auto t0 = Clock::now();

    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = p.hostsPerRack;
    cfg.topology.racksPerPod = p.racksPerPod;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = p.pods;
    cfg.topology.l2Count = p.l2Count;
    cfg.topology.seed = sim::Rng::forStream(ctx.seed, 0).next();
    cfg.createNics = false;
    cfg.lazyHosts = true;
    cfg.shellTemplate.ltl.maxConnections = 64;
    cfg.shellTemplate.roleSlots = 8;
    cfg.shards = p.workers;

    // The queue outlives the hubs; the hubs outlive the cloud.
    auto sq = std::make_unique<sim::ShardedEventQueue>(
        core::ConfigurableCloud::shardPlan(cfg));
    obs::ShardedObservability hubs(p.pods + 1);
    cfg.shardObs = &hubs;
    auto cloud = traced(tr, "core", "build", [&] {
        return std::make_unique<core::ConfigurableCloud>(*sq, cfg);
    });
    net::Topology &topo = cloud->topology();
    // The control plane (RM, SM, HealthMonitor) lives on the spine
    // partition, like the cloud's own resource manager.
    sim::EventQueue &ctlq = sq->partition(p.pods);
    obs::Observability *ctlHub = &hubs.shard(0);

    haas::ResourceManager &rm = cloud->resourceManager();
    std::vector<std::unique_ptr<QueryRole>> rolePool;
    std::map<int, QueryRole *> roleOf;  // live instance host -> role
    haas::ServiceManager sm(ctlq, rm, "rank", [&](int host) {
        rolePool.push_back(std::make_unique<QueryRole>());
        roleOf[host] = rolePool.back().get();
        return rolePool.back().get();
    });
    haas::LeaseConstraints lc;
    lc.withAntiAffinity(p.maxPerRack, p.maxPerPod);
    // Mass-migration throttle, pumped by the ChaosEngine at barriers.
    sm.setMigrationPolicy(p.migrationGap, /*self_pump=*/false);
    sm.enableAutoHeal(p.instances, lc);
    const bool deployed = traced(tr, "haas", "deploy",
                                 [&] { return sm.deploy(p.instances, lc); });
    if (!deployed)
        sim::fatal("chaos_l2: service deploy failed");
    sm.attachObservability(ctlHub);
    const std::vector<int> deployedHosts = sm.instances();

    const int victimPod = topo.host(deployedHosts[0]).pod;
    const int victimRack = topo.host(deployedHosts[0]).rack;
    int rackCasualties = 0;
    for (const int h : deployedHosts)
        if (topo.host(h).pod == victimPod && topo.host(h).rack == victimRack)
            ++rackCasualties;

    std::set<int> servicePods;
    for (const int h : deployedHosts)
        servicePods.insert(topo.host(h).pod);
    std::vector<int> healthyPods;
    for (int pod = 0; pod < p.pods; ++pod)
        if (pod != maintPod && servicePods.count(pod) == 0)
            healthyPods.push_back(pod);
    sim::Rng placement = sim::Rng::forStream(ctx.seed, 1);

    // Domain-aware health monitoring over the full rack of every
    // instance plus one healthy control rack.
    std::set<int> watchSet;
    const auto watchRack = [&](int pod, int rack) {
        const int base = topo.hostIndex(pod, rack, 0);
        for (int i = 0; i < p.hostsPerRack; ++i)
            watchSet.insert(base + i);
    };
    for (const int h : deployedHosts)
        watchRack(topo.host(h).pod, topo.host(h).rack);
    watchRack(healthyPods[placement.uniformInt(healthyPods.size())],
              static_cast<int>(placement.uniformInt(
                  static_cast<std::uint64_t>(p.racksPerPod))));
    haas::HealthMonitorConfig hmc;
    hmc.withHeartbeat(100 * sim::kMicrosecond, 10 * sim::kMicrosecond)
        // Streak weight 0: the drill isolates the heartbeat/domain path.
        .withSuspicion(3.0, 1.0, 0.0)
        .withDomainConviction(/*sweeps=*/2, /*min_hosts=*/p.hostsPerRack);
    haas::HealthMonitor hm(ctlq, rm, hmc);
    cloud->attachHealthMonitor(hm);
    hm.watchHosts({watchSet.begin(), watchSet.end()});
    hm.attachObservability(ctlHub);

    fault::FaultConfig fc;
    fc.withSeed(sim::Rng::forStream(ctx.seed, 2).next()).withSelfReport(false);
    fault::FaultInjector injector(*sq, *cloud, fc);

    // Fluid background: flows through the dead rack must stall while
    // conservation stays exact.
    auto fluid = std::make_unique<net::FluidTrafficModel>(*sq, topo);
    sim::Rng flowRng = sim::Rng::forStream(ctx.seed, 3);
    traced(tr, "net.fluid", "add_flows", [&] {
        addSeededFlows(*fluid, flowRng, hosts, p.flows, p.flowBps);
    });

    // Healthy-pod probe pairs: the containment yardstick.
    std::vector<ProbePair> probes =
        openProbePairs(*cloud, tr, placement, p.pairs, healthyPods);

    // The scripted drill.
    const sim::TimePs torAt = p.windowLen + p.windowLen / 2;
    const sim::TimePs grayAt = 4 * p.windowLen + p.windowLen / 4;
    const sim::TimePs grayClearAt = grayAt + p.windowLen;
    const sim::TimePs maintAt = 6 * p.windowLen;
    sim::TimePs detectedAt = -1;
    sim::TimePs evacuatedAt = -1;
    const auto nowPs = [&] { return sq->now(); };
    fault::ChaosScenario scenario;
    scenario
        .withPhase("tor-death", torAt,
                   [&] {
                       traced(tr, "fault", "inject", [&] {
                           injector.failTor(victimPod, victimRack);
                       });
                   })
        .withTriggeredPhase(
            "rack-convicted", torAt,
            [&] { return hm.domainConvictions() > 0; },
            [&] { detectedAt = nowPs(); })
        .withTriggeredPhase(
            "evacuated", torAt,
            [&] {
                if (detectedAt < 0 ||
                    static_cast<int>(sm.instances().size()) < p.instances)
                    return false;
                for (const int h : sm.instances())
                    if (topo.host(h).pod == victimPod &&
                        topo.host(h).rack == victimRack)
                        return false;
                return true;
            },
            [&] { evacuatedAt = nowPs(); })
        .withPhase("gray-spine", grayAt,
                   [&] {
                       traced(tr, "fault", "inject", [&] {
                           injector.graySpineDegrade(p.l2Count / 2, 0.001,
                                                     500 * sim::kNanosecond);
                       });
                   })
        .withPhase("gray-clear", grayClearAt,
                   [&] {
                       traced(tr, "fault", "inject", [&] {
                           injector.graySpineClear(p.l2Count / 2);
                       });
                   })
        .withPhase("maintenance-drain", maintAt, [&] {
            traced(tr, "fault", "inject", [&] {
                injector.rollingMaintenance(maintPod, 50 * sim::kMicrosecond,
                                            60 * sim::kMicrosecond);
            });
        });
    fault::ChaosEngine chaos(*sq, std::move(scenario));
    chaos.setPollPeriod(p.chaosPoll);
    chaos.setFluidModel(fluid.get());
    chaos.manageService(&sm);
    chaos.watchHealth(&hm);
    chaos.attachObservability(ctlHub);
    hm.startSharded(*sq);
    chaos.start();

    // Barrier-to-barrier host time: a hook with no deadline, so windows
    // are exactly those of an untraced run.
    Clock::time_point lastBarrier{};
    if (tr.enabled())
        sq->atBarrier([&](sim::TimePs) {
            const auto now = Clock::now();
            if (lastBarrier != Clock::time_point{})
                tr.sample("window_us",
                          std::chrono::duration<double, std::micro>(
                              now - lastBarrier)
                              .count());
            lastBarrier = now;
            return sim::kTimeNever;
        });

    // Live query traffic, receiver-side accounting (dedup by id).
    struct Slot {
        int instanceHost = -1;
        int client = -1;
        core::LtlChannel ch;
    };
    std::vector<int> clientHosts;
    for (int i = 0; i < 4; ++i)
        clientHosts.push_back(topo.hostIndex(
            healthyPods[placement.uniformInt(healthyPods.size())], 0, 0));
    std::vector<Slot> slots(static_cast<std::size_t>(p.instances));
    res.setupS = secondsSince(t0);
    if (ctx.setupOnly)
        return res;

    const auto t1 = Clock::now();
    // Re-point each slot at the service's current instance list; a slot
    // whose instance failed over reopens its channel to the replacement.
    const auto refreshSlots = [&] {
        const auto &inst = sm.instances();
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if (s >= inst.size()) {
                slots[s].ch.close();
                slots[s].instanceHost = -1;
                continue;
            }
            const int h = inst[s];
            if (slots[s].instanceHost == h && slots[s].ch)
                continue;
            slots[s].ch.close();
            slots[s].instanceHost = -1;
            const auto rit = roleOf.find(h);
            if (rit == roleOf.end() || rit->second->port < 0)
                continue;
            slots[s].client = clientHosts[s % clientHosts.size()];
            slots[s].ch = traced(tr, "core", "open_ltl", [&] {
                return cloud->openLtl(slots[s].client, h, rit->second->port);
            });
            slots[s].instanceHost = h;
        }
    };

    std::uint64_t nextId = 0;
    std::vector<char> done;  // delivered flag per query id
    std::uint64_t deliveredCount = 0, duplicates = 0, resends = 0;
    std::vector<std::uint64_t> pending;  // awaiting (re)send
    // Round-robin a batch over the open slots, spread over ~80% of the
    // window so injections land on live in-flight traffic.
    const auto sendQueries = [&](const std::vector<std::uint64_t> &ids) {
        std::vector<std::size_t> open;
        for (std::size_t s = 0; s < slots.size(); ++s)
            if (slots[s].ch)
                open.push_back(s);
        if (open.empty())
            return;
        const std::size_t perSlot =
            (ids.size() + open.size() - 1) / open.size();
        const sim::TimePs spacing =
            (p.windowLen * 4 / 5) / static_cast<sim::TimePs>(perSlot + 1);
        std::vector<int> onSlot(slots.size(), 0);
        std::size_t k = 0;
        for (const std::uint64_t id : ids) {
            const std::size_t si = open[k++ % open.size()];
            Slot &sl = slots[si];
            const sim::TimePs at =
                static_cast<sim::TimePs>(onSlot[si]++ + 1) * spacing;
            ltl::LtlEngine *engine = cloud->shell(sl.client).ltlEngine();
            cloud->queueFor(sl.client)
                .scheduleAfter(at, [engine, conn = sl.ch.sendConn(), id] {
                    engine->sendMessage(conn, 256,
                                        std::make_shared<std::uint64_t>(id));
                });
        }
    };
    const auto harvest = [&] {
        for (const auto &r : rolePool) {
            for (; r->harvested < r->delivered.size(); ++r->harvested) {
                const std::uint64_t id = r->delivered[r->harvested];
                if (done[id]) {
                    ++duplicates;
                    continue;
                }
                done[id] = 1;
                ++deliveredCount;
            }
        }
    };

    for (int w = 0; w < p.windows + p.drainWindows; ++w) {
        const bool scripted = w < p.windows;
        if (!scripted && pending.empty())
            break;
        refreshSlots();
        std::vector<std::uint64_t> batch = std::move(pending);
        pending.clear();
        resends += batch.size();
        if (scripted) {
            for (int s = 0; s < p.instances; ++s)
                for (int i = 0; i < p.queriesPerSlot; ++i) {
                    batch.push_back(nextId++);
                    done.push_back(0);
                }
        }
        traced(tr, "sim", "schedule", [&] {
            sendQueries(batch);
            if (scripted)
                for (ProbePair &pr : probes)
                    schedulePings(*cloud, pr, p.pingsPerWindow, nullptr);
        });
        ctx.run([&] { sq->runFor(p.windowLen); });
        harvest();
        for (const std::uint64_t id : batch)
            if (!done[id])
                pending.push_back(id);
    }
    ctx.run([&] { sq->runFor(2 * p.windowLen); });
    res.wallS = secondsSince(t1);
    harvest();

    // --- outputs and gates ---
    harvestProbes(probes, res);
    res.gate(res.opsFailed == 0, "chaos_l2: probe messages lost");
    const std::uint64_t probeOps = res.ops;
    // ops are the service's queries; probes only supply the latency.
    res.ops = nextId;
    res.opsFailed = nextId - deliveredCount;
    res.events = sq->eventsExecuted();
    res.gate(res.opsFailed == 0, "chaos_l2: queries lost");

    const sim::TimePs convBound = hm.domainDetectionBound() + 2 * p.chaosPoll;
    const sim::TimePs convLatency = detectedAt >= 0 ? detectedAt - torAt : -1;
    res.gate(detectedAt >= 0 && convLatency <= convBound,
             "chaos_l2: rack conviction missed its bound");
    res.gate(hm.domainConvictions() == 1 && hm.detections() == 0,
             "chaos_l2: the dead rack was not convicted as one event");
    const sim::TimePs evacBound =
        static_cast<sim::TimePs>(rackCasualties) * p.migrationGap +
        2 * p.chaosPoll;
    const sim::TimePs evacLatency =
        evacuatedAt >= 0 && detectedAt >= 0 ? evacuatedAt - detectedAt : -1;
    const bool paced = sm.migrationsQueued() == 0 ||
                       sm.minMigrationGapObserved() >= p.migrationGap;
    res.gate(evacuatedAt >= 0 && evacLatency <= evacBound && paced,
             "chaos_l2: evacuation missed its bound or pacing");
    res.gate(rackCasualties <= p.maxPerRack,
             "chaos_l2: anti-affinity let the dead TOR take too many "
             "instances");
    res.gate(chaos.done(), "chaos_l2: not every chaos phase fired");
    traced(tr, "net.fluid", "fold", [&] { fluid->foldAll(); });
    const net::FluidConservation c =
        traced(tr, "net.fluid", "verify", [&] { return fluid->verify(); });
    res.gate(c.ok, "chaos_l2: fluid conservation violated");

    for (const std::uint64_t v :
         {probeOps, duplicates, resends, sm.migrationsQueued(),
          static_cast<std::uint64_t>(convLatency),
          static_cast<std::uint64_t>(evacLatency), c.fluidBytes,
          c.channelCredits, injector.injected()})
        res.outputs.push_back(v);

    if (tr.enabled()) {
        std::vector<const sim::EventQueue *> queues;
        std::vector<const obs::MetricsRegistry *> regs;
        double maxEvents = 0;
        for (int i = 0; i < sq->partitionCount(); ++i) {
            queues.push_back(&sq->partition(i));
            maxEvents = std::max(maxEvents,
                                 static_cast<double>(
                                     sq->partition(i).eventsExecuted()));
        }
        for (int i = 0; i < hubs.shardCount(); ++i)
            regs.push_back(&hubs.shard(i).registry);
        addQueueCounts(res, queues);
        const double windows = static_cast<double>(sq->windowsRun());
        res.layers["sim.shard.windows"] = windows;
        res.layers["sim.shard.events_per_window"] =
            windows > 0 ? static_cast<double>(res.events) / windows : 0.0;
        res.layers["sim.shard.cross_messages"] =
            static_cast<double>(sq->crossMessages());
        res.layers["sim.shard.imbalance"] =
            maxEvents * sq->partitionCount() / static_cast<double>(res.events);
        const auto mem = cloud->fabricMemoryStats();
        res.layers["core.materialized_hosts"] = mem.materializedHosts;
        res.layers["core.bytes_per_host"] = mem.bytesPerHost;
        res.layers["net.fluid.flows"] =
            static_cast<double>(fluid->flowsAdded());
        res.layers["net.fluid.stall_transitions"] =
            static_cast<double>(fluid->stallTransitions());
        res.layers["haas.lease_hosts"] = static_cast<double>(p.instances);
        res.layers["haas.placement.affinity_skips"] =
            static_cast<double>(rm.affinitySkips());
        res.layers["haas.health.heartbeats"] =
            static_cast<double>(hm.heartbeatsSent());
        res.layers["haas.health.misses"] =
            static_cast<double>(hm.heartbeatsMissed());
        res.layers["haas.health.domain_convictions"] =
            static_cast<double>(hm.domainConvictions());
        res.layers["haas.health.conviction_us"] = sim::toMicros(convLatency);
        res.layers["haas.sm.failovers"] = static_cast<double>(sm.failovers());
        res.layers["haas.sm.migrations_queued"] =
            static_cast<double>(sm.migrationsQueued());
        res.layers["haas.sm.evacuation_us"] = sim::toMicros(evacLatency);
        res.layers["fault.injected"] =
            static_cast<double>(injector.injected());
        res.layers["fault.domain.injected"] =
            static_cast<double>(injector.domainFaults());
        res.layers["fault.chaos.phases_fired"] =
            static_cast<double>(chaos.phasesFired());
        addRegistryCounts(res, regs);
        res.snapshot = traced(tr, "obs", "snapshot",
                              [&] { return hubs.mergedSnapshotJson(); });
    }
    return res;
}

}  // namespace ccsim::bench
