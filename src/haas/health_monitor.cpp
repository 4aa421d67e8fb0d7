#include "haas/health_monitor.hpp"

#include <algorithm>
#include <cmath>

#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::haas {

HealthMonitor::HealthMonitor(sim::EventQueue &eq, ResourceManager &rmgr,
                             HealthMonitorConfig config)
    : queue(eq), rm(rmgr), cfg(config)
{
    if (cfg.heartbeatPeriod <= 0)
        sim::fatal("HealthMonitor: heartbeatPeriod must be positive");
    if (cfg.heartbeatRtt < 0)
        sim::fatal("HealthMonitor: heartbeatRtt must be non-negative");
    if (cfg.missWeight <= 0.0 || cfg.suspicionThreshold <= 0.0)
        sim::fatal("HealthMonitor: missWeight and suspicionThreshold "
                   "must be positive");
    if (cfg.rejoinHeartbeats < 1)
        sim::fatal("HealthMonitor: rejoinHeartbeats must be >= 1");
    if (cfg.domainConviction) {
        if (cfg.domainSweeps < 1 || cfg.domainMinHosts < 1)
            sim::fatal("HealthMonitor: domainSweeps and domainMinHosts "
                       "must be >= 1");
        // The end-of-sweep tally assumes sweep N's pongs all land before
        // sweep N+1 sends; overlapping sweeps would interleave results.
        if (cfg.heartbeatRtt >= cfg.heartbeatPeriod)
            sim::fatal("HealthMonitor: domainConviction requires "
                       "heartbeatRtt < heartbeatPeriod");
    }
}

void
HealthMonitor::startSharded(sim::ShardedEventQueue &sq)
{
    if (!probe)
        sim::fatal("HealthMonitor::startSharded: no reachability probe "
                   "installed (call setProbe, or wire through "
                   "ConfigurableCloud::attachHealthMonitor)");
    bool owned = false;
    for (int p = 0; p < sq.partitionCount() && !owned; ++p)
        owned = &sq.partition(p) == &queue;
    if (!owned)
        sim::panic("HealthMonitor::startSharded: the monitor's queue is "
                   "not a partition of this ShardedEventQueue");
    if (running)
        return;
    running = true;
    populateNodes();
    nextSweepAt = sq.now() + cfg.heartbeatPeriod;
    nextEvalAt = 0;
    if (shardQueue != nullptr) {
        // Restart after stop(): the hook is still registered and wakes
        // at the requested barrier.
        sq.requestBarrier(nextSweepAt);
        return;
    }
    shardQueue = &sq;
    // Barrier hooks run between windows, when every partition is
    // quiescent, so judging hosts (and the RM reports that triggers) is
    // race-free and ordered identically on any worker count.
    sq.atBarrier([this](sim::TimePs e) { return barrierStep(e); },
                 nextSweepAt);
}

void
HealthMonitor::watchHosts(const std::vector<int> &hosts)
{
    watched = hosts;
    std::sort(watched.begin(), watched.end());
    watched.erase(std::unique(watched.begin(), watched.end()),
                  watched.end());
}

void
HealthMonitor::populateNodes()
{
    if (watched.empty()) {
        for (int host : rm.hostIndices())
            nodesHealth.try_emplace(host);
    } else {
        for (int host : watched)
            nodesHealth.try_emplace(host);
    }
    if (!cfg.domainConviction)
        return;
    if (!domainOf)
        sim::fatal("HealthMonitor: domainConviction requires setDomainOf() "
                   "(ConfigurableCloud::attachHealthMonitor wires it)");
    domainMembers.clear();
    for (const auto &[host, nh] : nodesHealth)
        ++domainMembers[domainOf(host)];
}

void
HealthMonitor::stop()
{
    running = false;
}

sim::TimePs
HealthMonitor::barrierStep(sim::TimePs e)
{
    if (!running)
        return sim::kTimeNever;
    if (nextEvalAt != 0 && e >= nextEvalAt) {
        evaluateSweep();
        nextEvalAt = 0;
    }
    if (e >= nextSweepAt) {
        statHeartbeats += nodesHealth.size();
        if (cfg.heartbeatRtt == 0)
            evaluateSweep();
        else
            nextEvalAt = e + cfg.heartbeatRtt;
        nextSweepAt = e + cfg.heartbeatPeriod;
    }
    sim::TimePs next = nextSweepAt;
    if (nextEvalAt != 0 && nextEvalAt < next)
        next = nextEvalAt;
    return next;
}

void
HealthMonitor::evaluateSweep()
{
    // The whole sweep is judged at one barrier (the pong time), in
    // ascending host order.
    pendingResults = nodesHealth.size();
    sweepDomainMisses.clear();
    for (auto &[host, nh] : nodesHealth)
        onHeartbeatResult(host, nh, probe(host));
}

void
HealthMonitor::onHeartbeatResult(int host, NodeHealth &nh, bool reachable)
{
    const bool swept = pendingResults > 0;
    if (reachable) {
        nh.suspicion = 0.0;
        nh.lastStreakCredited = 0;
        // A healthy beat ends the episode: every evidence source may
        // count again if the node degrades anew.
        nh.evidenceLatched.clear();
        if (nh.reported) {
            ++nh.healthyStreak;
            if (nh.healthyStreak >= cfg.rejoinHeartbeats) {
                nh.reported = false;
                nh.healthyStreak = 0;
                ++statRejoins;
                CCSIM_LOG(sim::LogLevel::kInfo, "haas.health", queue.now(),
                          "node ", host, " rejoined after ",
                          cfg.rejoinHeartbeats, " healthy heartbeats");
                rm.repair(host);
            }
        }
    } else {
        ++statMisses;
        nh.healthyStreak = 0;
        if (cfg.domainConviction && domainOf)
            ++sweepDomainMisses[domainOf(host)];
        addSuspicion(host, nh, cfg.missWeight);
    }
    if (swept && --pendingResults == 0)
        finishSweep();
}

void
HealthMonitor::finishSweep()
{
    if (!cfg.domainConviction || !domainOf)
        return;
    // Judge each domain on this sweep's full tally: a rack where every
    // watched host missed counts one correlated strike; a single answer
    // ends the episode (per-host rejoin still governs RM repair).
    for (auto &[domain, members] : domainMembers) {
        DomainState &ds = domainsHealth[domain];
        const auto it = sweepDomainMisses.find(domain);
        const int misses = it == sweepDomainMisses.end() ? 0 : it->second;
        if (members >= cfg.domainMinHosts && misses >= members) {
            if (++ds.fullMissSweeps >= cfg.domainSweeps && !ds.convicted)
                convictDomain(domain);
        } else {
            ds.fullMissSweeps = 0;
            ds.convicted = false;
        }
    }
    sweepDomainMisses.clear();
}

void
HealthMonitor::convictDomain(int domain)
{
    DomainState &ds = domainsHealth[domain];
    ds.convicted = true;
    ++statDomainConvictions;
    CCSIM_LOG(sim::LogLevel::kWarn, "haas.health", queue.now(), "domain ",
              domain, " convicted: all ", domainMembers[domain],
              " watched hosts dark (one correlated failure, not ",
              domainMembers[domain], " detections)");
    // One rack-level event: members are marked failed together, without
    // the per-host detection counter, and handed to the RM as a single
    // two-phase domain failure so no failover callback can be granted a
    // sibling of this domain that had not been marked yet.
    std::vector<int> members;
    for (auto &[host, nh] : nodesHealth) {
        if (domainOf(host) != domain || nh.reported)
            continue;
        nh.reported = true;
        nh.healthyStreak = 0;
        nh.suspicion = cfg.suspicionThreshold;
        members.push_back(host);
    }
    if (!members.empty())
        rm.reportDomainFailure(members);
}

void
HealthMonitor::reportTimeoutStreak(int host, int streak)
{
    auto it = nodesHealth.find(host);
    if (it == nodesHealth.end()) {
        if (rm.manager(host) == nullptr)
            return;  // not a registered node
        it = nodesHealth.try_emplace(host).first;
    }
    if (streak < cfg.minLtlStreak)
        return;
    NodeHealth &nh = it->second;
    // One credit per new timeout in the streak: streaks grow by one per
    // report, and parallel connections to the same dead node only count
    // the deepest streak (conservative, and order-independent).
    if (streak <= nh.lastStreakCredited)
        return;
    nh.lastStreakCredited = streak;
    ++statStreakReports;
    addSuspicion(host, nh, cfg.streakWeight);
}

void
HealthMonitor::reportEvidence(int host, const std::string &source,
                              double weight)
{
    auto it = nodesHealth.find(host);
    if (it == nodesHealth.end()) {
        if (rm.manager(host) == nullptr)
            return;  // not a registered node
        it = nodesHealth.try_emplace(host).first;
    }
    // Idempotent per (host, source) and episode: the serving layer's
    // detector re-ejects a still-grey node with doubling durations, and
    // without the latch each re-ejection would add weight until the
    // monitor reported a node whose management path is perfectly
    // healthy on this source's say-so alone.
    if (!it->second.evidenceLatched.insert(source).second)
        return;
    ++statEvidenceReports;
    addSuspicion(host, it->second, weight);
}

void
HealthMonitor::addSuspicion(int host, NodeHealth &nh, double weight)
{
    if (nh.reported)
        return;  // already declared failed; wait for rejoin
    nh.suspicion += weight;
    if (nh.suspicion < cfg.suspicionThreshold)
        return;
    nh.reported = true;
    nh.healthyStreak = 0;
    ++statDetections;
    CCSIM_LOG(sim::LogLevel::kWarn, "haas.health", queue.now(), "node ",
              host, " declared failed (suspicion ", nh.suspicion, ")");
    rm.reportFailure(host);
}

sim::TimePs
HealthMonitor::detectionBound() const
{
    const auto beats = static_cast<sim::TimePs>(
        std::ceil(cfg.suspicionThreshold / cfg.missWeight));
    return (beats + 1) * cfg.heartbeatPeriod + cfg.heartbeatRtt;
}

sim::TimePs
HealthMonitor::domainDetectionBound() const
{
    return (static_cast<sim::TimePs>(cfg.domainSweeps) + 1) *
               cfg.heartbeatPeriod +
           cfg.heartbeatRtt;
}

double
HealthMonitor::suspicion(int host) const
{
    auto it = nodesHealth.find(host);
    return it == nodesHealth.end() ? 0.0 : it->second.suspicion;
}

bool
HealthMonitor::suspected(int host) const
{
    auto it = nodesHealth.find(host);
    return it != nodesHealth.end() &&
           (it->second.reported || it->second.suspicion > 0.0);
}

void
HealthMonitor::attachObservability(obs::Observability *o)
{
    obsHub = o;
    if (!o)
        return;
    auto &reg = o->registry;
    reg.registerProbe("haas.health.heartbeats",
                      [this] { return double(statHeartbeats); });
    reg.registerProbe("haas.health.misses",
                      [this] { return double(statMisses); });
    reg.registerProbe("haas.health.detections",
                      [this] { return double(statDetections); });
    reg.registerProbe("haas.health.domain_convictions",
                      [this] { return double(statDomainConvictions); });
    reg.registerProbe("haas.health.domains",
                      [this] { return double(domainMembers.size()); });
    reg.registerProbe("haas.health.rejoins",
                      [this] { return double(statRejoins); });
    reg.registerProbe("haas.health.streak_reports",
                      [this] { return double(statStreakReports); });
    reg.registerProbe("haas.health.evidence_reports",
                      [this] { return double(statEvidenceReports); });
    reg.registerProbe("haas.health.suspected", [this] {
        int n = 0;
        for (const auto &[host, nh] : nodesHealth)
            n += (nh.reported || nh.suspicion > 0.0) ? 1 : 0;
        return double(n);
    });
    reg.registerProbe("haas.health.monitored", [this] {
        return watched.empty() ? double(rm.hostIndices().size())
                               : double(watched.size());
    });
    // Per-node gauges: the watch set when one exists (at paper scale a
    // gauge per registered host would swamp the registry).
    const std::vector<int> &nodes =
        watched.empty() ? rm.hostIndices() : watched;
    for (int host : nodes) {
        reg.registerProbe(
            "haas.health.node" + std::to_string(host) + ".suspicion",
            [this, host] { return suspicion(host); });
    }
}

}  // namespace ccsim::haas
