/**
 * @file
 * Deterministic chaos-campaign engine for correlated-failure drills.
 *
 * A chaos scenario is a declarative script of named phases: timed
 * phases fire at fixed simulated times ("at t=2ms, kill rack 3 of
 * pod 7"), triggered phases fire once a condition holds ("when the SLO
 * burn alert fires, drain the pod"). It is the way to script faults:
 * a phase's action calls the FaultInjector's API (fault/fault.hpp),
 * from a one-host link flap to a pod-wide power event, and the
 * injector runs the recoveries those calls schedule. A phase may not
 * be timed before t = 0. The ChaosEngine runs the script as
 * a barrier hook on a ShardedEventQueue (a single-queue simulation is
 * its one-partition case). Phases fire between windows, when every
 * partition is quiescent, so injections (which may touch any pod,
 * materialize flyweight stubs, or fold the fluid model) are race-free
 * and byte-identical on any worker count.
 *
 * Timed phases fire at the barrier pinned to their exact time.
 * Triggered predicates and conviction markers are evaluated only on the
 * engine's own poll grid: first at the earliest pending trigger time,
 * then every poll period. Barriers that other hooks or the lookahead
 * window add in between do not evaluate them, so a trigger fires at the
 * same simulated time whatever the partition count.
 *
 * The engine is also the campaign's conductor: it pumps rate-limited
 * lease migrations for managed ServiceManagers at every barrier, folds
 * the fluid traffic model before each injection so flow integrals split
 * exactly at the fault boundary, and emits `{"type":"chaos",...}` JSONL
 * markers into a TimeSeriesHub — injected-phase and detected-conviction
 * markers land in the same stream as the SLO alerts, so ccsim_report
 * can overlay fault-injection against detection on one timeline.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ccsim::sim {
class ShardedEventQueue;
}
namespace ccsim::obs {
class TimeSeriesHub;
class Observability;
}
namespace ccsim::haas {
class ServiceManager;
class HealthMonitor;
}
namespace ccsim::net {
class FluidTrafficModel;
}

namespace ccsim::fault {

/** One scripted step of a chaos campaign. */
struct ChaosPhase {
    std::string name;
    /** Fire time (timed) or earliest evaluation time (triggered). */
    sim::TimePs at = 0;
    /** Trigger predicate; null means a plain timed phase. */
    std::function<bool()> when;
    std::function<void()> action;
    bool fired = false;
};

/** Declarative campaign script (ordered list of phases). */
class ChaosScenario
{
  public:
    /** Fire @p action at exactly @p at (>= 0). */
    ChaosScenario &withPhase(std::string name, sim::TimePs at,
                             std::function<void()> action)
    {
        ChaosPhase p;
        p.name = std::move(name);
        p.at = at;
        p.action = std::move(action);
        list.push_back(std::move(p));
        return *this;
    }

    /**
     * Fire @p action at the first poll at or after @p earliest_at where
     * @p when returns true.
     */
    ChaosScenario &withTriggeredPhase(std::string name,
                                      sim::TimePs earliest_at,
                                      std::function<bool()> when,
                                      std::function<void()> action)
    {
        ChaosPhase p;
        p.name = std::move(name);
        p.at = earliest_at;
        p.when = std::move(when);
        p.action = std::move(action);
        list.push_back(std::move(p));
        return *this;
    }

    const std::vector<ChaosPhase> &phases() const { return list; }

  private:
    std::vector<ChaosPhase> list;
};

/** Executes a ChaosScenario deterministically as a barrier hook. */
class ChaosEngine
{
  public:
    /** Dies if a phase of @p scenario is timed before t = 0. */
    ChaosEngine(sim::ShardedEventQueue &sq, ChaosScenario scenario);

    ChaosEngine(const ChaosEngine &) = delete;
    ChaosEngine &operator=(const ChaosEngine &) = delete;

    /** Emit chaos markers into @p hub 's JSONL stream (may be null). */
    void setMarkerHub(obs::TimeSeriesHub *hub) { markerHub = hub; }

    /**
     * Fold @p fm before every phase fires, so fluid integrals split
     * exactly at the injection boundary (may be null).
     */
    void setFluidModel(net::FluidTrafficModel *fm) { fluid = fm; }

    /** Poll period for triggered phases (and conviction markers). */
    void setPollPeriod(sim::TimePs p);

    /**
     * Pump @p sm 's rate-limited migration queue at every barrier; its
     * next-due time bounds the engine's deadline. Pair with
     * setMigrationPolicy(gap, false).
     */
    void manageService(haas::ServiceManager *sm);

    /**
     * Watch @p hm for new domain convictions and emit a "detected"
     * chaos marker for each (on the poll grid).
     */
    void watchHealth(haas::HealthMonitor *hm);

    /** Arm the campaign (call once, after wiring). */
    void start();

    // --- introspection ---

    std::uint64_t phasesFired() const { return statFired; }
    bool done() const { return statFired == phases.size(); }
    /** Names of fired phases, in firing order. */
    const std::vector<std::string> &firedPhases() const
    {
        return firedNames;
    }

    /**
     * Export campaign progress under `chaos.*`: scripted/fired phase
     * counts. Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o);

  private:
    sim::ShardedEventQueue &sq;
    std::vector<ChaosPhase> phases;
    sim::TimePs pollPeriod = 100 * sim::kMicrosecond;
    obs::TimeSeriesHub *markerHub = nullptr;
    net::FluidTrafficModel *fluid = nullptr;
    std::vector<haas::ServiceManager *> managed;
    std::vector<haas::HealthMonitor *> watchedHealth;
    std::vector<std::uint64_t> lastConvictions;  // parallel to above
    std::vector<std::string> firedNames;
    bool started = false;
    /** Next poll: triggers and conviction markers are evaluated here. */
    sim::TimePs pollAt = sim::kTimeNever;
    std::uint64_t statFired = 0;

    /** One barrier: fire due phases, poll, pump; returns next due. */
    sim::TimePs step(sim::TimePs e);
    /** The poll after one at @p e (kTimeNever when nothing is left). */
    sim::TimePs nextPoll(sim::TimePs e) const;
    void firePhase(ChaosPhase &p);
    void checkConvictions();
    void emitMarker(const std::string &phase, const char *kind);
};

}  // namespace ccsim::fault
