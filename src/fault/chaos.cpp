#include "fault/chaos.hpp"

#include <algorithm>
#include <sstream>

#include "haas/haas.hpp"
#include "haas/health_monitor.hpp"
#include "net/fluid.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::fault {

ChaosEngine::ChaosEngine(sim::ShardedEventQueue &squeue,
                         ChaosScenario scenario)
    : sq(squeue), phases(scenario.phases().begin(), scenario.phases().end())
{
    for (const ChaosPhase &p : phases)
        if (p.at < 0)
            sim::fatalf("ChaosEngine: phase \"", p.name,
                        "\" scheduled at negative time ", p.at);
}

void
ChaosEngine::setPollPeriod(sim::TimePs p)
{
    if (p <= 0)
        sim::fatal("ChaosEngine::setPollPeriod: period must be positive");
    pollPeriod = p;
}

void
ChaosEngine::manageService(haas::ServiceManager *sm)
{
    if (sm != nullptr)
        managed.push_back(sm);
}

void
ChaosEngine::watchHealth(haas::HealthMonitor *hm)
{
    if (hm == nullptr)
        return;
    watchedHealth.push_back(hm);
    lastConvictions.push_back(hm->domainConvictions());
}

void
ChaosEngine::start()
{
    if (started)
        return;
    started = true;
    if (phases.empty() && managed.empty() && watchedHealth.empty())
        return;
    const sim::TimePs now = sq.now();
    for (const ChaosPhase &p : phases)
        if (p.when)
            pollAt = std::min(pollAt, p.at);
    if (!watchedHealth.empty())
        pollAt = std::min(pollAt, now + pollPeriod);
    sim::TimePs first = pollAt;
    for (const ChaosPhase &p : phases)
        first = std::min(first, p.at);
    if (!managed.empty())
        first = std::min(first, now + pollPeriod);
    sq.atBarrier([this](sim::TimePs e) { return step(e); }, first);
}

sim::TimePs
ChaosEngine::step(sim::TimePs e)
{
    // Fire due phases in declaration order: timed phases whose time has
    // come and, on a poll, triggered phases whose predicate holds.
    // Barriers between polls never evaluate a trigger, so its firing
    // time does not depend on where lookahead windows happen to end.
    const bool poll = e >= pollAt;
    for (ChaosPhase &p : phases) {
        if (p.fired || e < p.at)
            continue;
        if (p.when && (!poll || !p.when()))
            continue;
        firePhase(p);
    }
    if (poll) {
        checkConvictions();
        pollAt = nextPoll(e);
    }

    sim::TimePs next = pollAt;
    for (const ChaosPhase &p : phases)
        if (!p.fired && !p.when)
            next = std::min(next, p.at);
    for (haas::ServiceManager *sm : managed)
        next = std::min(next, sm->pumpMigrations());
    return next;
}

sim::TimePs
ChaosEngine::nextPoll(sim::TimePs e) const
{
    // A pending trigger is first polled at its earliest time, then every
    // pollPeriod. Conviction markers (and triggers watching detections)
    // keep the grid going while detectors are still working.
    sim::TimePs next = sim::kTimeNever;
    for (const ChaosPhase &p : phases)
        if (!p.fired && p.when)
            next = std::min(next, p.at > e ? p.at : e + pollPeriod);
    if (!watchedHealth.empty() && !done())
        next = std::min(next, e + pollPeriod);
    return next;
}

void
ChaosEngine::firePhase(ChaosPhase &p)
{
    // Settle fluid integrals first so every flow's accrual splits
    // exactly at the injection boundary (stall detection is poll-based).
    if (fluid != nullptr)
        fluid->foldAll();
    p.fired = true;
    ++statFired;
    firedNames.push_back(p.name);
    CCSIM_LOG(sim::LogLevel::kWarn, "fault.chaos", sq.now(), "phase \"",
              p.name, "\" firing (", statFired, "/", phases.size(), ")");
    emitMarker(p.name, "injected");
    if (p.action)
        p.action();
}

void
ChaosEngine::checkConvictions()
{
    for (std::size_t i = 0; i < watchedHealth.size(); ++i) {
        const std::uint64_t now = watchedHealth[i]->domainConvictions();
        for (std::uint64_t c = lastConvictions[i]; c < now; ++c)
            emitMarker("domain-conviction", "detected");
        lastConvictions[i] = now;
    }
}

void
ChaosEngine::attachObservability(obs::Observability *o)
{
    if (o == nullptr)
        return;
    auto &reg = o->registry;
    reg.registerProbe("chaos.phases",
                      [this] { return double(phases.size()); });
    reg.registerProbe("chaos.phases_fired",
                      [this] { return double(statFired); });
}

void
ChaosEngine::emitMarker(const std::string &phase, const char *kind)
{
    if (markerHub == nullptr)
        return;
    std::ostringstream line;
    line << "{\"type\":\"chaos\",\"t_us\":";
    obs::detail::jsonNumber(line, sim::toMicros(sq.now()));
    line << ",\"phase\":\"";
    obs::detail::jsonEscape(line, phase);
    line << "\",\"kind\":\"" << kind << "\"}";
    markerHub->exportLine(line.str());
}

}  // namespace ccsim::fault
