/**
 * @file
 * Live fault injection for a running ConfigurableCloud (Section VII).
 *
 * The paper's production story (5,760 servers x 30 days) is a story
 * about failures: hard FPGA deaths, bad cables, rolling reconfigurations
 * — and the architecture's claim is that HaaS + LTL retransmission make
 * all of them locally survivable. The FaultInjector applies those
 * faults to a live simulation so that claim can be demonstrated end to
 * end:
 *
 *  - link down/up flaps (NIC<->FPGA, FPGA<->TOR, inter-switch trunks);
 *  - bursty packet corruption (CRC drops -> LTL NACK/retransmit);
 *  - FPGA hard failures (node dark + haas::ResourceManager::reportFailure,
 *    so Service Managers fail over live);
 *  - reconfiguration pauses (node dark for a window, then repaired and
 *    rejoining the pool);
 *  - switch brown-outs (drop and/or ECN storms);
 *  - correlated domain faults (see fault/failure_domain.hpp): TOR hard
 *    deaths darkening a whole rack at once, pod power events with
 *    staggered host deaths, gray L2-spine degradation (sub-percent
 *    frame loss and latency inflation that still answers heartbeats),
 *    and rolling per-rack maintenance drains.
 *
 * Each fault is one call on the injector's imperative API. A
 * ChaosScenario (fault/chaos.hpp) is the way to script when each call
 * fires:
 *
 *     fault::FaultInjector inj(sq, cloud, FaultConfig{}.withSeed(7));
 *     fault::ChaosEngine chaos(sq, fault::ChaosScenario{}
 *         .withPhase("flap", t0, [&] { inj.flapHostLink(3, d); })
 *         .withPhase("kill", t1, [&] { inj.failFpga(5); }));
 *     chaos.start();
 *
 * Every fault and recovery is observable under `fault.*` in the cloud's
 * obs::Observability hub, and — all randomness coming from one seeded
 * sim::Rng — a fault script is deterministic per seed: same seed, byte-
 * identical metric snapshots.
 *
 * The injector runs on the ShardedEventQueue that drives the cloud (a
 * single-queue cloud is driven by a one-partition kernel). Every
 * injection and recovery executes at a conservative-sync barrier —
 * requestBarrier() pins a window end to the action's exact time — so
 * runs are byte-identical across worker counts, and a single-queue and
 * a sharded cloud see their faults at the same simulated times.
 * Corruption bursts and graceful reconfigs need a single-queue cloud:
 * their shared-RNG fault hooks and LTL quiesce callbacks run inside
 * partitions and would race across them. A graceful reconfig's cut
 * runs when the victim's LTL drain completes, inside a window; its end
 * is pinned like any other action, so it lands exactly whenever a
 * barrier falls between the cut and the end.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "core/cloud.hpp"
#include "fault/failure_domain.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace ccsim::sim {
class ShardedEventQueue;
}

namespace ccsim::fault {

/**
 * Injector configuration. Faults themselves are not configured here:
 * they are calls on the FaultInjector, timed by ChaosScenario phases or
 * made between runs.
 */
struct FaultConfig {
    /** Seed for the injector's RNG (corruption and gray-spine draws). */
    std::uint64_t seed = 1;

    /**
     * Report failures/repairs to the Resource Manager from inside the
     * injector (the pre-health-monitor behaviour, and the default).
     * Set false when a haas::HealthMonitor is attached: the injector
     * then only manipulates the hardware state, and detection/repair
     * must come from the monitor — the configuration every
     * detection-latency experiment wants.
     */
    bool selfReport = true;

    FaultConfig &withSeed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }
    FaultConfig &withSelfReport(bool report)
    {
        selfReport = report;
        return *this;
    }
};

/**
 * Injects faults into a running ConfigurableCloud; recoveries run at
 * the barriers of the ShardedEventQueue that drives it. One injector per
 * cloud (enforced through the cloud's fault-injector slot); destroy the
 * injector to free the slot.
 *
 * Call the fault API where the kernel is quiescent: from a ChaosScenario
 * phase (the way to fire a fault at an exact simulated time), between
 * sq.runUntil() runs, or from another barrier hook. Each entry point
 * validates its arguments and dies loudly on a bad target.
 *
 * The injector must outlive the simulation run: its barrier hook and
 * pending recovery actions capture it.
 */
class FaultInjector
{
  public:
    /**
     * Panics unless @p sq drives @p cloud (see
     * ConfigurableCloud::drivenBy). Actions run on the cloud's control
     * queue.
     */
    FaultInjector(sim::ShardedEventQueue &sq, core::ConfigurableCloud &cloud,
                  FaultConfig cfg = {});
    ~FaultInjector();

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    // --- fault API ---

    /** Cut the host's FPGA<->TOR cable for @p down_for. */
    void flapHostLink(int host, sim::TimePs down_for);
    /**
     * Corrupt packets on the host's FPGA<->TOR cable (both directions)
     * with probability @p drop_prob for @p duration. Corrupted frames
     * fail CRC at the receiving MAC; LTL recovers via NACK/retransmit.
     */
    void corruptionBurst(int host, double drop_prob, sim::TimePs duration);
    /**
     * Hard-fail a node: bridge and host link go dark permanently and the
     * failure is reported to the Resource Manager (Service Managers fail
     * over through their subscription). Idempotent per node.
     */
    void failFpga(int host);
    /** Repair a hard-failed node: links restored, RM repair (rejoin). */
    void repairFpga(int host);
    /**
     * Reconfiguration pause: the node goes dark (and is reported failed)
     * for @p window, then is repaired and rejoins the pool.
     */
    void reconfigPause(int host, sim::TimePs window);
    /**
     * Graceful reconfiguration: quiesce the node's LTL engine (drain,
     * then administratively reject stragglers), then dark for @p window,
     * then restore links + LTL admission. With selfReport the RM is
     * told at cut and rejoin; without, detection is the health
     * monitor's job.
     */
    void gracefulReconfig(int host, sim::TimePs window);
    /** Drop/ECN storm on a TOR for @p duration. */
    void switchBrownout(int pod, int rack, double drop_prob, bool ecn_storm,
                        sim::TimePs duration);

    // --- correlated domain faults ---

    /**
     * TOR switch hard death: every host in rack (pod, rack) goes dark
     * at once — host links held in ascending host order, materializing
     * lazy stubs first — and the rack's TOR<->L1 uplinks are cut, so
     * fluid flows through the rack stall. Idempotent per rack; the
     * injector owns the rack's uplinks until repairTor(). Dies if the
     * rack is outside the fabric.
     */
    void failTor(int pod, int rack);
    /** Repair a dead TOR: uplinks restored, hosts released/rejoined. */
    void repairTor(int pod, int rack);
    /**
     * Pod power event: the pod's hosts die in ascending order,
     * @p stagger apart, each out (dark + bridge down) for @p outage.
     */
    void podPowerEvent(int pod, sim::TimePs stagger, sim::TimePs outage);
    /**
     * Gray degradation of L2 spine @p l2_index: every L1<->L2 trunk
     * through it drops frames with probability @p drop_prob and adds
     * @p extra_latency of propagation — but no link goes admin-down, so
     * the hosts behind it still answer heartbeats. Loss draws come from
     * a dedicated per-channel RNG (seeded from cfg.seed and the trunk
     * coordinates), so sharded runs stay deterministic. Lasts until
     * graySpineClear().
     */
    void graySpineDegrade(int l2_index, double drop_prob,
                          sim::TimePs extra_latency);
    /** Clear a gray spine: hooks and latency inflation removed. */
    void graySpineClear(int l2_index);
    /**
     * Rolling maintenance over a pod: racks drain one at a time in
     * ascending order, each dark for @p window, starts @p stagger
     * apart (stagger >= window means at most one rack down at once).
     */
    void rollingMaintenance(int pod, sim::TimePs window, sim::TimePs stagger);

    // --- introspection ---

    /** Faults injected so far. */
    std::uint64_t injected() const { return statInjected; }
    /** Recovery actions completed (links restored, nodes repaired). */
    std::uint64_t recovered() const { return statRecovered; }
    /** True while @p host is dark due to at least one active fault. */
    bool nodeDown(int host) const;
    /** Cumulative dark time of @p host (including any ongoing outage). */
    sim::TimePs downtime(int host) const;

    /** The fabric's failure-domain hierarchy. */
    const FailureDomainMap &domains() const { return domainMap; }
    /** True while the TOR of rack (pod, rack) is hard-failed. */
    bool torFailed(int pod, int rack) const;
    std::uint64_t torFails() const { return statTorFails; }
    std::uint64_t grayFaults() const { return statGrayFaults; }
    /** Correlated domain-level faults injected (all four kinds). */
    std::uint64_t domainFaults() const { return statDomainFaults; }

    /**
     * The control queue's clock: the barrier time at a barrier, the
     * event time inside a window (a single-queue cloud's LTL callbacks).
     */
    sim::TimePs nowPs() const { return queue.now(); }

    const FaultConfig &config() const { return cfg; }

  private:
    sim::ShardedEventQueue &sq;
    core::ConfigurableCloud &cloud;
    sim::EventQueue &queue;  ///< the cloud's control queue
    FaultConfig cfg;
    sim::Rng rng;
    FailureDomainMap domainMap;

    /** Nesting depth of active host-link outages per host. */
    std::map<int, int> darkDepth;
    std::map<int, sim::TimePs> downSince;
    std::map<int, sim::TimePs> downAccum;
    std::map<int, bool> hardFailed;
    /** Generation counter per host so nested bursts end last-wins. */
    std::map<int, std::uint64_t> burstGen;
    /** Racks (global id) whose TOR is currently hard-failed. */
    std::map<int, bool> torDead;
    /** L2 spines currently gray-degraded. */
    std::map<int, bool> grayActive;
    /**
     * Barrier-scheduled actions: drained at each barrier in (time,
     * insertion) order — a total order independent of worker count.
     * Every insert also pins a window end at the action's time.
     */
    std::multimap<sim::TimePs, std::function<void()>> pending;

    obs::Observability *obsHub = nullptr;
    int obsTrack = 0;

    std::uint64_t statInjected = 0;
    std::uint64_t statRecovered = 0;
    std::uint64_t statLinkFlaps = 0;
    std::uint64_t statBursts = 0;
    std::uint64_t statHardFails = 0;
    std::uint64_t statReconfigs = 0;
    std::uint64_t statGraceful = 0;
    std::uint64_t statBrownouts = 0;
    std::uint64_t statTorFails = 0;
    std::uint64_t statPodEvents = 0;
    std::uint64_t statGrayFaults = 0;
    std::uint64_t statMaintenance = 0;
    std::uint64_t statDomainFaults = 0;

    /**
     * Run @p fn at the conservative-sync barrier whose window ends at
     * @p when (clamped to the next picosecond if already past).
     */
    void scheduleAction(sim::TimePs when, std::function<void()> fn);
    /** Barrier hook: execute due actions, return the next due time. */
    sim::TimePs drainPending(sim::TimePs e);
    /** Fatal if @p what targets a sharded cloud. */
    void requireSingleQueue(const char *what) const;
    void holdHostLink(int host);
    void releaseHostLink(int host);
    /** Install/remove gray degradation on one trunk channel. */
    void applyGray(net::Channel &ch, double drop_prob, std::uint64_t seed,
                   sim::TimePs extra);
    void attachObservability();
    void traceInstant(const std::string &name);
};

}  // namespace ccsim::fault
