#include "fault/fault.hpp"

#include <algorithm>
#include <memory>

#include "obs/sharded_obs.hpp"
#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::fault {

namespace {

/** Bounds-check a host index against the cloud. */
void
checkHost(core::ConfigurableCloud &cloud, int host, const char *what)
{
    if (host < 0 || host >= cloud.numServers())
        sim::fatalf("FaultInjector: ", what, " targets host ", host,
                    " but the cloud has ", cloud.numServers(), " servers");
}

}  // namespace

FaultInjector::FaultInjector(sim::ShardedEventQueue &squeue,
                             core::ConfigurableCloud &c, FaultConfig config)
    : sq(squeue), cloud(c), queue(c.controlQueue()), cfg(std::move(config)),
      rng(cfg.seed),
      domainMap(c.topology().hostsPerRack(), c.topology().racksPerPod(),
                c.topology().numPods())
{
    if (!cloud.drivenBy(sq))
        sim::panic("FaultInjector: the cloud is not driven by this "
                   "ShardedEventQueue (build a sharded cloud on it, or a "
                   "single-queue cloud on partition(0) of a one-partition "
                   "queue)");
    cloud.attachFaultInjector(this);
    attachObservability();
    // Every injection/recovery drains here, at a barrier whose window
    // end requestBarrier() pinned to the action's exact time.
    sq.atBarrier([this](sim::TimePs e) { return drainPending(e); });
}

FaultInjector::~FaultInjector()
{
    cloud.detachFaultInjector(this);
}

void
FaultInjector::scheduleAction(sim::TimePs when, std::function<void()> fn)
{
    // At a barrier now() is the window end itself, so an action for
    // "now" lands one picosecond later — still exact on any worker
    // count, never inside an already-executed window.
    const sim::TimePs t = std::max(when, sq.now() + 1);
    pending.emplace(t, std::move(fn));
    sq.requestBarrier(t);
}

sim::TimePs
FaultInjector::drainPending(sim::TimePs e)
{
    while (!pending.empty() && pending.begin()->first <= e) {
        auto fn = std::move(pending.begin()->second);
        pending.erase(pending.begin());
        fn();
    }
    return pending.empty() ? sim::kTimeNever : pending.begin()->first;
}

void
FaultInjector::requireSingleQueue(const char *what) const
{
    if (cloud.sharded())
        sim::fatalf("FaultInjector: ", what, " is not supported on a "
                    "sharded cloud (cross-partition RNG / quiesce "
                    "callbacks would break determinism)");
}

void
FaultInjector::flapHostLink(int host, sim::TimePs down_for)
{
    checkHost(cloud, host, "flapHostLink");
    if (down_for <= 0)
        sim::fatal("FaultInjector::flapHostLink: duration must be positive");
    ++statInjected;
    ++statLinkFlaps;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "host link ",
              host, " down for ", down_for, " ps");
    traceInstant("link_down.node" + std::to_string(host));
    holdHostLink(host);
    scheduleAction(nowPs() + down_for, [this, host] {
        releaseHostLink(host);
        ++statRecovered;
        CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "host link ",
                  host, " restored");
        traceInstant("link_up.node" + std::to_string(host));
    });
}

void
FaultInjector::corruptionBurst(int host, double drop_prob,
                               sim::TimePs duration)
{
    requireSingleQueue("corruptionBurst");
    checkHost(cloud, host, "corruptionBurst");
    if (drop_prob <= 0.0 || drop_prob > 1.0)
        sim::fatalf("FaultInjector::corruptionBurst: drop probability "
                    "must be in (0, 1] (got ", drop_prob, ")");
    if (duration <= 0)
        sim::fatal("FaultInjector::corruptionBurst: duration must be "
                   "positive");
    ++statInjected;
    ++statBursts;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(),
              "corruption burst on host link ", host, " p=", drop_prob,
              " for ", duration, " ps");
    traceInstant("corruption_on.node" + std::to_string(host));
    // Overlapping bursts on one link are last-writer-wins: the newest
    // burst's probability applies, and only its expiry clears the hook.
    const std::uint64_t gen = ++burstGen[host];
    net::Link &link = cloud.topology().hostLink(host);
    auto hook = [this, drop_prob](const net::PacketPtr &) {
        return rng.bernoulli(drop_prob);
    };
    link.aToB().setFaultHook(hook);
    link.bToA().setFaultHook(hook);
    scheduleAction(nowPs() + duration, [this, host, gen] {
        if (burstGen[host] != gen)
            return;  // superseded by a newer burst
        net::Link &l = cloud.topology().hostLink(host);
        l.aToB().setFaultHook({});
        l.bToA().setFaultHook({});
        ++statRecovered;
        traceInstant("corruption_off.node" + std::to_string(host));
    });
}

void
FaultInjector::failFpga(int host)
{
    checkHost(cloud, host, "failFpga");
    if (hardFailed[host])
        return;  // idempotent
    hardFailed[host] = true;
    ++statInjected;
    ++statHardFails;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "FPGA ", host,
              " hard failure");
    traceInstant("fpga_fail.node" + std::to_string(host));
    holdHostLink(host);
    cloud.shell(host).bridge().setDown(true);
    if (cfg.selfReport)
        cloud.resourceManager().reportFailure(host);
}

void
FaultInjector::repairFpga(int host)
{
    checkHost(cloud, host, "repairFpga");
    if (!hardFailed[host])
        return;
    hardFailed[host] = false;
    cloud.shell(host).bridge().setDown(false);
    releaseHostLink(host);
    if (cfg.selfReport)
        cloud.resourceManager().repair(host);
    ++statRecovered;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "FPGA ", host,
              " repaired");
    traceInstant("fpga_repair.node" + std::to_string(host));
}

void
FaultInjector::reconfigPause(int host, sim::TimePs window)
{
    checkHost(cloud, host, "reconfigPause");
    if (window <= 0)
        sim::fatal("FaultInjector::reconfigPause: window must be positive");
    ++statInjected;
    ++statReconfigs;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "node ", host,
              " reconfiguration pause for ", window, " ps");
    traceInstant("reconfig_start.node" + std::to_string(host));
    holdHostLink(host);
    cloud.shell(host).bridge().setDown(true);
    if (cfg.selfReport)
        cloud.resourceManager().reportFailure(host);
    scheduleAction(nowPs() + window, [this, host] {
        releaseHostLink(host);
        // A hard failure that landed during the window sticks: the node
        // only rejoins if it is merely paused.
        if (!hardFailed[host]) {
            cloud.shell(host).bridge().setDown(false);
            if (cfg.selfReport)
                cloud.resourceManager().repair(host);
        }
        ++statRecovered;
        traceInstant("reconfig_end.node" + std::to_string(host));
    });
}

void
FaultInjector::gracefulReconfig(int host, sim::TimePs window)
{
    requireSingleQueue("gracefulReconfig");
    checkHost(cloud, host, "gracefulReconfig");
    if (window <= 0)
        sim::fatal("FaultInjector::gracefulReconfig: window must be "
                   "positive");
    ++statInjected;
    ++statGraceful;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "node ", host,
              " graceful reconfiguration (quiesce first) for ", window,
              " ps");
    traceInstant("graceful_quiesce.node" + std::to_string(host));
    auto cut = [this, host, window] {
        traceInstant("graceful_dark.node" + std::to_string(host));
        holdHostLink(host);
        cloud.shell(host).bridge().setDown(true);
        if (cfg.selfReport)
            cloud.resourceManager().reportFailure(host);
        scheduleAction(nowPs() + window, [this, host] {
            releaseHostLink(host);
            // As with reconfigPause, a hard failure during the window
            // sticks; the engine then stays quiesced (rejecting).
            if (!hardFailed[host]) {
                cloud.shell(host).bridge().setDown(false);
                if (auto *eng = cloud.shell(host).ltlEngine())
                    eng->endQuiesce();
                if (cfg.selfReport)
                    cloud.resourceManager().repair(host);
            }
            ++statRecovered;
            traceInstant("graceful_end.node" + std::to_string(host));
        });
    };
    ltl::LtlEngine *eng = cloud.shell(host).ltlEngine();
    if (eng)
        eng->beginQuiesce(eng->config().quiesceDrainTimeout,
                          std::move(cut));
    else
        cut();
}

void
FaultInjector::switchBrownout(int pod, int rack, double drop_prob,
                              bool ecn_storm, sim::TimePs duration)
{
    if (pod < 0 || pod >= cloud.topology().numPods() || rack < 0 ||
        rack >= cloud.topology().racksPerPod())
        sim::fatalf("FaultInjector::switchBrownout: TOR (pod ", pod,
                    ", rack ", rack, ") outside the fabric");
    if (drop_prob < 0.0 || drop_prob > 1.0)
        sim::fatalf("FaultInjector::switchBrownout: drop probability must "
                    "be in [0, 1] (got ", drop_prob, ")");
    if (drop_prob == 0.0 && !ecn_storm)
        sim::fatal("FaultInjector::switchBrownout: zero drop rate and no "
                   "ECN storm would do nothing");
    if (duration <= 0)
        sim::fatal("FaultInjector::switchBrownout: duration must be "
                   "positive");
    ++statInjected;
    ++statBrownouts;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "TOR (", pod,
              ",", rack, ") brownout p=", drop_prob,
              ecn_storm ? " +ecn" : "", " for ", duration, " ps");
    traceInstant("brownout_on.tor" + std::to_string(pod) + "." +
                 std::to_string(rack));
    cloud.topology().tor(pod, rack).setBrownout(drop_prob, ecn_storm);
    scheduleAction(nowPs() + duration, [this, pod, rack] {
        cloud.topology().tor(pod, rack).clearBrownout();
        ++statRecovered;
        traceInstant("brownout_off.tor" + std::to_string(pod) + "." +
                     std::to_string(rack));
    });
}

void
FaultInjector::failTor(int pod, int rack)
{
    const int rack_id = domainMap.rackId(pod, rack);
    if (torDead[rack_id])
        return;  // idempotent
    torDead[rack_id] = true;
    ++statInjected;
    ++statTorFails;
    ++statDomainFaults;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "TOR (", pod, ",",
              rack, ") hard failure: rack ", rack_id, " dark");
    traceInstant("tor_fail.rack" + std::to_string(rack_id));
    // Hosts first, in ascending order: each hold materializes a lazy
    // stub before its cable is cut — the same order every run.
    const std::vector<int> hosts = domainMap.rackHosts(rack_id);
    for (int host : hosts)
        holdHostLink(host);
    net::Topology &topo = cloud.topology();
    for (int l1 = 0; l1 < topo.l1PerPod(); ++l1)
        topo.torToL1Link(pod, rack, l1).setAdminDown(true);
    if (cfg.selfReport) {
        for (int host : hosts)
            cloud.resourceManager().reportFailure(host);
    }
}

void
FaultInjector::repairTor(int pod, int rack)
{
    const int rack_id = domainMap.rackId(pod, rack);
    if (!torDead[rack_id])
        return;
    torDead[rack_id] = false;
    net::Topology &topo = cloud.topology();
    for (int l1 = 0; l1 < topo.l1PerPod(); ++l1)
        topo.torToL1Link(pod, rack, l1).setAdminDown(false);
    const std::vector<int> hosts = domainMap.rackHosts(rack_id);
    for (int host : hosts)
        releaseHostLink(host);
    if (cfg.selfReport) {
        for (int host : hosts) {
            if (!hardFailed[host])
                cloud.resourceManager().repair(host);
        }
    }
    ++statRecovered;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "TOR (", pod, ",",
              rack, ") repaired: rack ", rack_id, " rejoining");
    traceInstant("tor_repair.rack" + std::to_string(rack_id));
}

bool
FaultInjector::torFailed(int pod, int rack) const
{
    auto it = torDead.find(domainMap.rackId(pod, rack));
    return it != torDead.end() && it->second;
}

void
FaultInjector::podPowerEvent(int pod, sim::TimePs stagger,
                             sim::TimePs outage)
{
    if (pod < 0 || pod >= cloud.topology().numPods())
        sim::fatalf("FaultInjector::podPowerEvent: pod ", pod,
                    " outside the fabric");
    if (stagger < 0)
        sim::fatal("FaultInjector::podPowerEvent: stagger must be "
                   "non-negative");
    if (outage <= 0)
        sim::fatal("FaultInjector::podPowerEvent: outage must be positive");
    ++statInjected;
    ++statPodEvents;
    ++statDomainFaults;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "pod ", pod,
              " power event: hosts dying ", stagger, " ps apart, out for ",
              outage, " ps");
    traceInstant("pod_power.pod" + std::to_string(pod));
    const std::vector<int> hosts = domainMap.podHosts(pod);
    const sim::TimePs base = nowPs();
    for (std::size_t i = 0; i < hosts.size(); ++i) {
        const int host = hosts[i];
        const sim::TimePs at =
            base + stagger * static_cast<sim::TimePs>(i);
        scheduleAction(at, [this, host, outage] {
            holdHostLink(host);
            cloud.shell(host).bridge().setDown(true);
            if (cfg.selfReport)
                cloud.resourceManager().reportFailure(host);
            scheduleAction(nowPs() + outage, [this, host] {
                // A hard failure that landed during the outage sticks.
                if (!hardFailed[host]) {
                    cloud.shell(host).bridge().setDown(false);
                    if (cfg.selfReport)
                        cloud.resourceManager().repair(host);
                }
                releaseHostLink(host);
            });
        });
    }
    const sim::TimePs lastDeath =
        base + stagger * static_cast<sim::TimePs>(hosts.size() - 1);
    scheduleAction(lastDeath + outage, [this] { ++statRecovered; });
}

void
FaultInjector::applyGray(net::Channel &ch, double drop_prob,
                         std::uint64_t seed, sim::TimePs extra)
{
    ch.setExtraLatency(extra);
    if (drop_prob > 0.0) {
        // A dedicated RNG per channel: draws stay partition-local, so
        // the loss pattern is deterministic on any worker count.
        auto r = std::make_shared<sim::Rng>(seed);
        ch.setFaultHook([r, drop_prob](const net::PacketPtr &) {
            return r->bernoulli(drop_prob);
        });
    } else {
        ch.setFaultHook({});
    }
}

void
FaultInjector::graySpineDegrade(int l2_index, double drop_prob,
                                sim::TimePs extra_latency)
{
    net::Topology &topo = cloud.topology();
    if (l2_index < 0 || l2_index >= topo.numL2())
        sim::fatalf("FaultInjector::graySpineDegrade: L2 switch ",
                    l2_index, " outside the fabric");
    if (drop_prob < 0.0 || drop_prob > 1.0)
        sim::fatalf("FaultInjector::graySpineDegrade: drop probability "
                    "must be in [0, 1] (got ", drop_prob, ")");
    if (extra_latency < 0)
        sim::fatal("FaultInjector::graySpineDegrade: extra latency must "
                   "be non-negative");
    if (drop_prob == 0.0 && extra_latency == 0)
        sim::fatal("FaultInjector::graySpineDegrade: zero drop rate and "
                   "zero extra latency would do nothing");
    ++statInjected;
    ++statGrayFaults;
    ++statDomainFaults;
    grayActive[l2_index] = true;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "L2 spine ",
              l2_index, " gray: p=", drop_prob, " +", extra_latency,
              " ps per trunk hop");
    traceInstant("gray_on.l2_" + std::to_string(l2_index));
    for (int pod = 0; pod < topo.numPods(); ++pod) {
        for (int l1 = 0; l1 < topo.l1PerPod(); ++l1) {
            net::Link &link = topo.l1ToL2Link(pod, l1, l2_index);
            const std::uint64_t base =
                cfg.seed ^ (0x9e3779b97f4a7c15ull *
                            static_cast<std::uint64_t>(
                                ((l2_index * 4096 + pod) * 64 + l1) * 2 + 1));
            applyGray(link.aToB(), drop_prob, base, extra_latency);
            applyGray(link.bToA(), drop_prob, base + 1, extra_latency);
        }
    }
}

void
FaultInjector::graySpineClear(int l2_index)
{
    net::Topology &topo = cloud.topology();
    if (l2_index < 0 || l2_index >= topo.numL2())
        sim::fatalf("FaultInjector::graySpineClear: L2 switch ", l2_index,
                    " outside the fabric");
    if (!grayActive[l2_index])
        return;
    grayActive[l2_index] = false;
    for (int pod = 0; pod < topo.numPods(); ++pod) {
        for (int l1 = 0; l1 < topo.l1PerPod(); ++l1) {
            net::Link &link = topo.l1ToL2Link(pod, l1, l2_index);
            applyGray(link.aToB(), 0.0, 0, 0);
            applyGray(link.bToA(), 0.0, 0, 0);
        }
    }
    ++statRecovered;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "L2 spine ",
              l2_index, " gray degradation cleared");
    traceInstant("gray_off.l2_" + std::to_string(l2_index));
}

void
FaultInjector::rollingMaintenance(int pod, sim::TimePs window,
                                  sim::TimePs stagger)
{
    if (pod < 0 || pod >= cloud.topology().numPods())
        sim::fatalf("FaultInjector::rollingMaintenance: pod ", pod,
                    " outside the fabric");
    if (window <= 0)
        sim::fatal("FaultInjector::rollingMaintenance: window must be "
                   "positive");
    if (stagger <= 0)
        sim::fatal("FaultInjector::rollingMaintenance: stagger must be "
                   "positive");
    ++statInjected;
    ++statMaintenance;
    ++statDomainFaults;
    CCSIM_LOG(sim::LogLevel::kInfo, "fault", nowPs(), "pod ", pod,
              " rolling maintenance: racks drain ", window,
              " ps each, starts ", stagger, " ps apart");
    traceInstant("maintenance.pod" + std::to_string(pod));
    const sim::TimePs base = nowPs();
    for (int r = 0; r < domainMap.racksPerPod(); ++r) {
        const int rack_id = domainMap.rackId(pod, r);
        const sim::TimePs at =
            base + stagger * static_cast<sim::TimePs>(r);
        scheduleAction(at, [this, rack_id, window] {
            traceInstant("drain_start.rack" + std::to_string(rack_id));
            for (int host : domainMap.rackHosts(rack_id)) {
                holdHostLink(host);
                cloud.shell(host).bridge().setDown(true);
                if (cfg.selfReport)
                    cloud.resourceManager().reportFailure(host);
            }
            scheduleAction(nowPs() + window, [this, rack_id] {
                for (int host : domainMap.rackHosts(rack_id)) {
                    if (!hardFailed[host]) {
                        cloud.shell(host).bridge().setDown(false);
                        if (cfg.selfReport)
                            cloud.resourceManager().repair(host);
                    }
                    releaseHostLink(host);
                }
                ++statRecovered;
                traceInstant("drain_end.rack" + std::to_string(rack_id));
            });
        });
    }
}

bool
FaultInjector::nodeDown(int host) const
{
    auto it = darkDepth.find(host);
    return it != darkDepth.end() && it->second > 0;
}

sim::TimePs
FaultInjector::downtime(int host) const
{
    sim::TimePs total = 0;
    if (auto it = downAccum.find(host); it != downAccum.end())
        total = it->second;
    if (nodeDown(host)) {
        auto it = downSince.find(host);
        if (it != downSince.end())
            total += nowPs() - it->second;
    }
    return total;
}

void
FaultInjector::holdHostLink(int host)
{
    if (darkDepth[host]++ == 0) {
        downSince[host] = nowPs();
        cloud.setHostLinkDown(host, true);
    }
}

void
FaultInjector::releaseHostLink(int host)
{
    if (--darkDepth[host] == 0) {
        downAccum[host] += nowPs() - downSince[host];
        cloud.setHostLinkDown(host, false);
    }
}

void
FaultInjector::attachObservability()
{
    obsHub = cloud.observability();
    // On a sharded cloud the aggregate probes live on shard 0's hub;
    // they are read only at barriers, from the coordinator thread.
    if (obsHub == nullptr && cloud.shardedObservability() != nullptr)
        obsHub = &cloud.shardedObservability()->shard(0);
    if (!obsHub)
        return;
    obsTrack = obsHub->trace.track("fault");
    auto &reg = obsHub->registry;
    reg.registerProbe("fault.injected",
                      [this] { return double(statInjected); });
    reg.registerProbe("fault.recovered",
                      [this] { return double(statRecovered); });
    reg.registerProbe("fault.link_flaps",
                      [this] { return double(statLinkFlaps); });
    reg.registerProbe("fault.corruption_bursts",
                      [this] { return double(statBursts); });
    reg.registerProbe("fault.fpga_failures",
                      [this] { return double(statHardFails); });
    reg.registerProbe("fault.reconfig_pauses",
                      [this] { return double(statReconfigs); });
    reg.registerProbe("fault.graceful_reconfigs",
                      [this] { return double(statGraceful); });
    reg.registerProbe("fault.brownouts",
                      [this] { return double(statBrownouts); });
    reg.registerProbe("fault.nodes_down", [this] {
        int n = 0;
        for (const auto &[host, depth] : darkDepth)
            n += depth > 0 ? 1 : 0;
        return double(n);
    });
    reg.registerProbe("fault.domain.tor_fails",
                      [this] { return double(statTorFails); });
    reg.registerProbe("fault.domain.pod_events",
                      [this] { return double(statPodEvents); });
    reg.registerProbe("fault.domain.gray_faults",
                      [this] { return double(statGrayFaults); });
    reg.registerProbe("fault.domain.maintenance",
                      [this] { return double(statMaintenance); });
    reg.registerProbe("fault.domain.injected",
                      [this] { return double(statDomainFaults); });
    reg.registerProbe("fault.domain.tors_dead", [this] {
        int n = 0;
        for (const auto &[rack, dead] : torDead)
            n += dead ? 1 : 0;
        return double(n);
    });
    // Per-node probes need an eager single-queue cloud: a paper-scale
    // flyweight or sharded attach would register half a million of them.
    if (cloud.sharded() || cloud.lazy())
        return;
    for (int host = 0; host < cloud.numServers(); ++host) {
        const std::string node = "fault.node" + std::to_string(host);
        reg.registerProbe(node + ".down", [this, host] {
            return nodeDown(host) ? 1.0 : 0.0;
        });
        reg.registerProbe(node + ".downtime_us", [this, host] {
            return double(downtime(host)) /
                   double(sim::kMicrosecond);
        });
    }
}

void
FaultInjector::traceInstant(const std::string &name)
{
    if (obsHub && obsHub->trace.enabled())
        obsHub->trace.instant(obsTrack, "fault", name, nowPs());
}

}  // namespace ccsim::fault
