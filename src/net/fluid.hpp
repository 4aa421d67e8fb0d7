/**
 * @file
 * Hybrid fluid/packet background traffic for paper-scale fabrics.
 *
 * Simulating every background flow packet-by-packet across a 250k-host
 * L2 fabric is intractable; simulating none of them under-reports the
 * queueing that shapes tail latency on monitored paths. The middle
 * ground used here (standard in large-scale network simulation) is a
 * fluid approximation: a background flow is a rate aggregate folded
 * into each channel along one deterministic ECMP-style path, slowing
 * packet serialization by the residual-rate effect, while its byte
 * progress advances analytically. Flows that cross a *monitored*
 * channel (a fig10 probe path, a sampled-trace link, a fault site) can
 * be promoted to packet fidelity at a conservation-checked boundary:
 * the fluid integral is folded to the instant of promotion, the rate
 * is removed from the path, and from then on real packets account the
 * bytes — no byte is ever counted in both regimes, and the sub-byte
 * remainder survives promote/demote round trips.
 *
 * All accounting is exact integer arithmetic in bit·picoseconds
 * (1 byte = 8e12 bit·ps), so a flow's byte total depends only on its
 * rate schedule — never on when the model happened to be folded.
 * That "fold-schedule independence" is the byte-stability invariant
 * the property tests pin down.
 */
#pragma once

#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "net/topology.hpp"
#include "sim/event_queue.hpp"

namespace ccsim::sim {
class ShardedEventQueue;
}

namespace ccsim::net {

/** One background flow: a compact record in the model's flow table. */
struct FluidFlow {
    /** The flow's id; 0 once the flow is removed. */
    std::uint64_t id = 0;
    int srcHost = 0;
    int dstHost = 0;
    /** Nominal rate while fluid, bits/s. */
    std::uint64_t rateBps = 0;
    /** True while the flow runs at packet fidelity. */
    bool promoted = false;
    /**
     * True while some hop of the path is administratively down (a cut
     * cable or a dead switch's trunk): the aggregate is zeroed — the
     * flow delivers nothing, accrues nothing, and stops slowing the
     * surviving hops — until a fold finds the path whole again. Stall
     * state is polled at fold points, so it is a pure function of
     * simulated state (deterministic on any worker count).
     */
    bool stalled = false;
    /** Simulation time the fluid integral was last folded to. */
    sim::TimePs lastFold = 0;
    /** Sub-byte remainder in bit·ps, carried across folds/promotions. */
    unsigned __int128 residualBitPs = 0;
    /** Bytes advanced analytically (fluid regime). */
    std::uint64_t fluidBytes = 0;
    /** Bytes credited by the packet regime while promoted. */
    std::uint64_t packetBytes = 0;
    /** Trunk channels the flow's rate is folded into, transmit order. */
    std::vector<Channel *> path;
};

/** Totals for the fluid/packet conservation invariant (see verify()). */
struct FluidConservation {
    std::uint64_t flows = 0;        ///< flows ever added (live + removed)
    std::uint64_t fluidBytes = 0;   ///< Σ per-flow fluid-regime bytes
    std::uint64_t packetBytes = 0;  ///< Σ per-flow packet-regime bytes
    /** Σ creditFluidBytes over every channel this model ever loaded. */
    std::uint64_t channelCredits = 0;
    /** What the per-flow integrals say that sum must be (bytes × hops). */
    std::uint64_t expectedChannelCredits = 0;
    bool ok = false;  ///< channelCredits == expectedChannelCredits
};

/**
 * Owner of all fluid background flows over one Topology. Single-writer:
 * fold/promote/demote/setRate must be called from the coordinator
 * thread while the kernel is quiescent (between runs, or from a barrier
 * hook in sharded mode) — the model touches channels on many
 * partitions.
 */
class FluidTrafficModel
{
  public:
    FluidTrafficModel(sim::EventQueue &eq, Topology &topo);
    /** Sharded kernel: "now" is the barrier time sq.now(). */
    FluidTrafficModel(sim::ShardedEventQueue &sq, Topology &topo);

    FluidTrafficModel(const FluidTrafficModel &) = delete;
    FluidTrafficModel &operator=(const FluidTrafficModel &) = delete;
    ~FluidTrafficModel();

    /**
     * Start a background flow src→dst at @p rate_bps. The path is
     * captured now (stub endpoints contribute no access cable) and the
     * rate folded into each hop. Returns the flow id.
     */
    std::uint64_t addFlow(int src_host, int dst_host,
                          std::uint64_t rate_bps);

    /** Fold the integral to now, then change the flow's rate. */
    void setRate(std::uint64_t id, std::uint64_t rate_bps);

    /** Fold, unload the path, and retire the flow (totals are kept). */
    void removeFlow(std::uint64_t id);

    // --- the fluid <-> packet fidelity boundary ---

    /**
     * Promote a flow to packet fidelity: the fluid integral is folded
     * to this instant (sub-byte remainder retained on the record), the
     * rate is removed from every hop, and the caller takes over driving
     * real packets, reporting their bytes via creditPacketBytes().
     * Idempotent.
     */
    void promote(std::uint64_t id);

    /** Account bytes the packet regime delivered for a promoted flow. */
    void creditPacketBytes(std::uint64_t id, std::uint64_t bytes);

    /**
     * Return a promoted flow to the fluid regime at @p rate_bps; the
     * carried remainder resumes exactly where promotion left it.
     */
    void demote(std::uint64_t id, std::uint64_t rate_bps);

    // --- monitored paths (promotion triggers) ---

    /** Mark / unmark a channel as monitored (probe path, fault site). */
    void setMonitored(const Channel *c, bool monitored);

    /** True if any hop of the flow's path is monitored. */
    bool crossesMonitored(std::uint64_t id) const;

    /** Ids of live, unpromoted flows crossing a monitored channel. */
    std::vector<std::uint64_t> flowsCrossingMonitored() const;

    // --- accounting ---

    /** Advance every live fluid flow's integral to now. */
    void foldAll();

    /** Check the conservation invariant over everything ever flowed. */
    FluidConservation verify() const;

    std::size_t liveFlows() const { return liveCount; }
    std::uint64_t flowsAdded() const { return flows.size(); }

    /** Live fluid flows currently stalled on a dead hop. */
    std::size_t stalledFlows() const;

    /** Transitions into the stalled state (fault-interplay telemetry). */
    std::uint64_t stallTransitions() const { return statStalls; }

    /**
     * A live flow's record (nullptr if removed/unknown). The pointer is
     * valid until the next addFlow().
     */
    const FluidFlow *flow(std::uint64_t id) const;

  private:
    Topology &topo;
    sim::EventQueue *eq = nullptr;
    sim::ShardedEventQueue *sq = nullptr;
    /**
     * Every flow ever added, at index id - 1 (ids are dense from 1). A
     * removed flow keeps its byte totals for verify() but has id 0 and
     * no path.
     */
    std::vector<FluidFlow> flows;
    std::size_t liveCount = 0;
    std::unordered_set<const Channel *> monitored;
    /** Every channel a flow was ever folded into (for verify()). */
    std::set<Channel *> touched;
    std::uint64_t expectedCredits = 0;  ///< Σ folded bytes × hops
    std::uint64_t statStalls = 0;

    sim::TimePs now() const;
    /** A live flow's record; fatal on an unknown id. */
    FluidFlow &get(std::uint64_t id);
    /**
     * Advance one flow's integral to now without touching its hops.
     * Returns the bytes each hop is owed (counted in expectedCredits).
     */
    std::uint64_t advance(FluidFlow &f);
    /** Advance one flow's integral to now and credit its hops. */
    void fold(FluidFlow &f);
    bool crossesMonitored(const FluidFlow &f) const;
    void loadPath(FluidFlow &f);
    void unloadPath(FluidFlow &f);
    /** True if any hop of the path is administratively down. */
    bool pathDead(const FluidFlow &f) const;
    /** Re-poll path health, moving the rate on/off the hops on change. */
    void refreshStall(FluidFlow &f);
};

}  // namespace ccsim::net
