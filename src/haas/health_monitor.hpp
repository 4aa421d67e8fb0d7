/**
 * @file
 * Autonomous failure detection for the HaaS layer (Section V-F).
 *
 * The paper's FPGA Managers monitor node health and the Service Managers
 * react to failures; ccsim's fault injector could always *create*
 * failures, but until now something external had to notice them. The
 * HealthMonitor closes that loop with two independent evidence streams:
 *
 *  - **Active heartbeats**: a periodic management-path ping of every
 *    registered node (modeled as a fixed round-trip through the FM side
 *    channel). A node that cannot be reached — bridge dark or host link
 *    administratively down — misses the beat.
 *  - **Passive LTL suspicion**: the transport layer's retransmission
 *    timeout doubles as fast failure detection (Section V-A). Consecutive
 *    timeout streaks observed by any LTL engine toward a node feed the
 *    same per-node suspicion score, so a dead peer is usually suspected
 *    well before the next heartbeat sweep.
 *
 * Evidence accumulates into a per-node suspicion score (a discretized
 * phi-accrual detector); crossing the threshold reports the node to the
 * ResourceManager — Service Managers fail over through their RM
 * subscriptions. Consecutive healthy heartbeats after the node becomes
 * reachable again drive the repair path. All scheduling is host-index
 * ordered, so same-seed runs are byte-identical.
 *
 * **Domain conviction** (correlated failures): when every watched host
 * in one failure domain (a rack behind one TOR) misses entire sweeps
 * together, the monitor files one rack-level conviction — marking all
 * members failed and reporting each to the RM — instead of accumulating
 * N independent per-host detections. One dead TOR is one event, not 24.
 *
 * Sweeps run as barrier-hook steps of the ShardedEventQueue that drives
 * the cloud (startSharded; a single-queue cloud is driven by a
 * one-partition kernel): heartbeats go out at a sweep barrier and every
 * host is judged at the pong barrier one RTT later, in host order, so
 * verdicts are identical on any partition or worker count. Passive LTL
 * streak evidence needs a single-queue cloud, whose timeout observers
 * call into the monitor from inside a window.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "haas/haas.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace ccsim::sim {
class ShardedEventQueue;
}

namespace ccsim::haas {

/** HealthMonitor tuning. */
struct HealthMonitorConfig {
    /** Heartbeat sweep period (all nodes pinged each sweep). */
    sim::TimePs heartbeatPeriod = 100 * sim::kMicrosecond;
    /** Modeled management-path ping round-trip time. */
    sim::TimePs heartbeatRtt = 10 * sim::kMicrosecond;
    /** Suspicion added per missed heartbeat. */
    double missWeight = 1.0;
    /** Suspicion added per qualifying LTL timeout-streak report. */
    double streakWeight = 1.0;
    /** Minimum consecutive LTL timeouts before a streak adds suspicion. */
    int minLtlStreak = 3;
    /** Suspicion at which the node is declared failed. */
    double suspicionThreshold = 3.0;
    /** Consecutive healthy heartbeats before a failed node is repaired. */
    int rejoinHeartbeats = 2;
    /**
     * Convict whole failure domains: when >= domainMinHosts watched
     * hosts sharing a domain all miss domainSweeps consecutive full
     * sweeps, file one domain-level conviction (every member marked
     * failed and reported to the RM) instead of N per-host detections.
     * Convicts before the per-host path whenever
     * domainSweeps * missWeight < suspicionThreshold. Requires
     * setDomainOf() (ConfigurableCloud::attachHealthMonitor wires the
     * rack mapping).
     */
    bool domainConviction = false;
    /** Consecutive all-miss sweeps before a domain is convicted. */
    int domainSweeps = 2;
    /** Minimum watched hosts in a domain for conviction to apply. */
    int domainMinHosts = 2;

    // --- fluent setters ---

    HealthMonitorConfig &withHeartbeat(sim::TimePs period, sim::TimePs rtt)
    {
        heartbeatPeriod = period;
        heartbeatRtt = rtt;
        return *this;
    }
    HealthMonitorConfig &withSuspicion(double threshold, double miss_weight,
                                       double streak_weight)
    {
        suspicionThreshold = threshold;
        missWeight = miss_weight;
        streakWeight = streak_weight;
        return *this;
    }
    HealthMonitorConfig &withMinLtlStreak(int streak)
    {
        minLtlStreak = streak;
        return *this;
    }
    HealthMonitorConfig &withDomainConviction(int sweeps, int min_hosts)
    {
        domainConviction = true;
        domainSweeps = sweeps;
        domainMinHosts = min_hosts;
        return *this;
    }
};

/**
 * Periodic heartbeat prober + passive-suspicion accumulator driving
 * ResourceManager::reportFailure / repair automatically.
 *
 * The monitor does not know how to reach a node — the owner supplies a
 * reachability probe (ConfigurableCloud::attachHealthMonitor wires the
 * management-path view: bridge up and host link not admin-down). The
 * monitor must outlive the runs of the kernel it started on and any
 * engine feeding reportTimeoutStreak().
 */
class HealthMonitor
{
  public:
    /** Management-path reachability probe: can the FM reach this node? */
    using ProbeFn = std::function<bool(int host)>;

    HealthMonitor(sim::EventQueue &eq, ResourceManager &rm,
                  HealthMonitorConfig cfg = {});

    HealthMonitor(const HealthMonitor &) = delete;
    HealthMonitor &operator=(const HealthMonitor &) = delete;

    /** Install the reachability probe (required before startSharded()). */
    void setProbe(ProbeFn fn) { probe = std::move(fn); }

    /**
     * Begin heartbeat sweeps over every node currently registered with
     * the ResourceManager (or the watchHosts() set, if one was given) as
     * a barrier hook on @p sq, which must own the monitor's queue as one
     * of its partitions (panics otherwise). The first sweep goes out one
     * period after the call; every host is judged (probe + evaluate,
     * ascending order) at the barrier one RTT after each sweep. At paper
     * scale, set a watchHosts() set first — probing all 250k hosts would
     * materialize the fleet.
     */
    void startSharded(sim::ShardedEventQueue &sq);

    /** Stop sweeping (passive suspicion reports still accumulate). */
    void stop();

    /**
     * Restrict monitoring to @p hosts (ascending duplicates ignored).
     * Call before startSharded(); empty = all registered nodes.
     */
    void watchHosts(const std::vector<int> &hosts);

    /**
     * Map host -> failure-domain id (the rack behind one TOR). Enables
     * domain conviction when cfg.domainConviction is set.
     */
    void setDomainOf(std::function<int(int)> fn)
    {
        domainOf = std::move(fn);
    }

    /**
     * Passive evidence feed: an LTL engine observed @p streak consecutive
     * retransmission timeouts toward @p host. Streaks below
     * minLtlStreak are ignored; qualifying streaks add streakWeight
     * suspicion per timeout beyond the floor's first hit.
     */
    void reportTimeoutStreak(int host, int streak);

    /**
     * Named-source evidence feed (e.g. a serving-layer outlier detector
     * reporting an ejection). Idempotent per (host, source): a source's
     * weight counts once per unhealthy episode, however many times it
     * re-reports, so a detector that keeps re-ejecting a grey node
     * cannot pump the suspicion score by itself. The latch clears when
     * the node answers a heartbeat (proving the management path healthy
     * again), re-arming the source for the next episode. Unregistered
     * hosts are ignored.
     */
    void reportEvidence(int host, const std::string &source, double weight);

    /**
     * reportEvidence bound as a generic (host, source, weight) callback:
     * the shape obs::SloEngine::setEvidenceSink expects, so a burning
     * SLO files suspicion without the obs layer depending on haas. The
     * returned function must not outlive this monitor.
     */
    std::function<void(int, const std::string &, double)> evidenceSink()
    {
        return [this](int host, const std::string &source, double weight) {
            reportEvidence(host, source, weight);
        };
    }

    /**
     * Worst-case time from a node going dark to its failure report,
     * assuming heartbeats alone (passive suspicion only shortens it):
     * the beats needed to accumulate the threshold, plus one period of
     * phase offset, plus the ping round trip.
     */
    sim::TimePs detectionBound() const;

    /**
     * Worst-case time from a whole domain going dark to its conviction:
     * domainSweeps full-miss sweeps, plus one period of phase offset,
     * plus the ping round trip.
     */
    sim::TimePs domainDetectionBound() const;

    // --- introspection ---

    double suspicion(int host) const;
    bool suspected(int host) const;
    std::uint64_t detections() const { return statDetections; }
    /** Domain-level convictions filed (one per dark rack, not per host). */
    std::uint64_t domainConvictions() const { return statDomainConvictions; }
    std::uint64_t rejoins() const { return statRejoins; }
    std::uint64_t heartbeatsSent() const { return statHeartbeats; }
    std::uint64_t heartbeatsMissed() const { return statMisses; }
    std::uint64_t streakReports() const { return statStreakReports; }
    /** reportEvidence calls that credited suspicion (latch misses). */
    std::uint64_t evidenceReports() const { return statEvidenceReports; }
    const HealthMonitorConfig &config() const { return cfg; }

    /**
     * Export detector statistics under `haas.health.*`: sweep/miss/
     * detection/rejoin counters plus a per-node suspicion gauge. Pass
     * nullptr to detach.
     */
    void attachObservability(obs::Observability *o);

  private:
    struct NodeHealth {
        double suspicion = 0.0;
        /** Consecutive reachable heartbeats while marked failed. */
        int healthyStreak = 0;
        /** This monitor has reported the node failed and not yet seen
         * it rejoin. */
        bool reported = false;
        /** Last LTL streak length credited (avoid double counting). */
        int lastStreakCredited = 0;
        /** Sources whose evidence already counted this episode. */
        std::set<std::string> evidenceLatched;
    };

    /** Per-domain conviction state (keyed by domainOf id). */
    struct DomainState {
        /** Consecutive sweeps every watched member missed. */
        int fullMissSweeps = 0;
        bool convicted = false;
    };

    sim::EventQueue &queue;
    ResourceManager &rm;
    HealthMonitorConfig cfg;
    ProbeFn probe;
    std::function<int(int)> domainOf;
    std::map<int, NodeHealth> nodesHealth;
    std::vector<int> watched;
    std::map<int, int> domainMembers;       ///< domain -> watched hosts
    std::map<int, DomainState> domainsHealth;
    std::map<int, int> sweepDomainMisses;   ///< this sweep's misses
    /** Heartbeat results still outstanding this sweep. */
    std::size_t pendingResults = 0;
    bool running = false;
    sim::ShardedEventQueue *shardQueue = nullptr;
    sim::TimePs nextSweepAt = 0;
    sim::TimePs nextEvalAt = 0;

    obs::Observability *obsHub = nullptr;

    std::uint64_t statHeartbeats = 0;
    std::uint64_t statMisses = 0;
    std::uint64_t statDetections = 0;
    std::uint64_t statDomainConvictions = 0;
    std::uint64_t statRejoins = 0;
    std::uint64_t statStreakReports = 0;
    std::uint64_t statEvidenceReports = 0;

    void populateNodes();
    /** Judge @p host, whose entry in nodesHealth is @p nh. */
    void onHeartbeatResult(int host, NodeHealth &nh, bool reachable);
    /** Add @p weight to @p host's suspicion (@p nh is its entry). */
    void addSuspicion(int host, NodeHealth &nh, double weight);
    /** End-of-sweep domain bookkeeping (conviction / re-arm). */
    void finishSweep();
    void convictDomain(int domain);
    /** Sweep state machine, run at every barrier. */
    sim::TimePs barrierStep(sim::TimePs e);
    /** Judge every watched host at pong time. */
    void evaluateSweep();
};

}  // namespace ccsim::haas
