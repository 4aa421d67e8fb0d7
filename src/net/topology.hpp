/**
 * @file
 * Builder for the paper's three-tier datacenter network.
 *
 * Tier L0: top-of-rack (TOR) switches, 24 hosts each in production.
 * Tier L1: pod switches; a pod of 40 racks = 960 machines.
 * Tier L2: datacenter spine connecting pods, reaching >250,000 machines.
 *
 * Each tier adds oversubscription, longer cable runs, and (at L1/L2)
 * background-traffic queueing jitter. The builder wires switches, links,
 * addresses, and routing tables; host endpoints are left free so the FPGA
 * layer can splice its bump-in-the-wire shell between the NIC and the TOR.
 */
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "net/channel.hpp"
#include "net/switch.hpp"
#include "sim/event_queue.hpp"

namespace ccsim::sim {
class ShardedEventQueue;
}
namespace ccsim::obs {
struct Observability;
}

namespace ccsim::net {

/** Per-tier switch parameters. */
struct TierParams {
    sim::TimePs forwardingLatency;
    /** Mean/cv/cap of lognormal background jitter; mean 0 disables it. */
    sim::TimePs jitterMean = 0;
    double jitterCv = 1.0;
    sim::TimePs jitterCap = 0;
    /** Probability a packet hits an additional congestion tail event. */
    double tailProb = 0.0;
    sim::TimePs tailMean = 0;
    double tailCv = 1.0;
    sim::TimePs tailCap = 0;
};

/** Line rate of every cable: the paper's 40 Gb/s Ethernet. */
inline constexpr double kLinkGbps = 40.0;

/** Configuration for a datacenter instance. */
struct TopologyConfig {
    int hostsPerRack = 24;
    int racksPerPod = 2;
    int l1PerPod = 2;
    int pods = 1;
    int l2Count = 2;

    /**
     * Calibrated to reproduce Figure 10's L0/L1/L2 latency bands
     * (L0 2.88 us avg / 2.9 p99.9; L1 7.72 / 8.24 with a small outlier
     * tail; L2 18.71 / 22.38 with max < 23.5).
     */
    TierParams torParams{450 * sim::kNanosecond,
                         5 * sim::kNanosecond,
                         1.0,
                         50 * sim::kNanosecond,
                         0.0,
                         0,
                         1.0,
                         0};
    TierParams l1Params{1340 * sim::kNanosecond,
                        60 * sim::kNanosecond,
                        0.8,
                        300 * sim::kNanosecond,
                        0.02,
                        200 * sim::kNanosecond,
                        0.6,
                        600 * sim::kNanosecond};
    TierParams l2Params{750 * sim::kNanosecond,
                        180 * sim::kNanosecond,
                        1.0,
                        1100 * sim::kNanosecond,
                        0.08,
                        1300 * sim::kNanosecond,
                        0.7,
                        2100 * sim::kNanosecond};

    std::uint64_t seed = 42;

    /**
     * Flyweight hosts: build() creates switches, trunks, routes, and
     * one null cable pointer per host (a host's address, MAC and
     * pod/rack coordinates are arithmetic on its index), but defers
     * each host's access cable and TOR port until the host is first
     * touched (attachHostDevice / hostTx / hostLink / materializeHost).
     * Materialization is deterministic: it depends only on the touch
     * itself, never on wall-clock or allocation state, and a
     * fully-materialized lazy fabric routes identically to an eager
     * one.
     */
    bool lazyHosts = false;
};

/** A built datacenter network. */
class Topology
{
  public:
    /** Where a host attaches: its coordinates and addresses. */
    struct HostPort {
        int pod = 0;
        int rack = 0;
        int indexInRack = 0;
        Ipv4Addr addr;
        MacAddr mac;
    };

    Topology(sim::EventQueue &eq, TopologyConfig cfg);

    /**
     * Partitioned construction: pod p's switches, links, and hosts live
     * on @p sq.partition(p); the L2 spine lives on partition `pods`
     * (so @p sq needs pods + 1 partitions). The only partition-crossing
     * cables are the L1<->L2 trunks; they are registered as cross edges
     * with lookahead = their propagation delay (300 m of cable), which
     * becomes the kernel's conservative sync window.
     */
    Topology(sim::ShardedEventQueue &sq, TopologyConfig cfg);

    int numHosts() const { return static_cast<int>(hostLinks.size()); }
    int numPods() const { return config.pods; }
    int racksPerPod() const { return config.racksPerPod; }
    int hostsPerRack() const { return config.hostsPerRack; }
    int l1PerPod() const { return config.l1PerPod; }
    int numL2() const { return config.l2Count; }

    /**
     * Host attachment point by global index, derived from the index
     * (the inverse of hostIndex()); nothing per host is stored for it.
     */
    HostPort host(int global_index) const;

    /** Global host index from (pod, rack, index-in-rack). */
    int hostIndex(int pod, int rack, int idx) const;

    /**
     * Attach a device to a host port: it will receive traffic from the TOR
     * and may transmit into hostTx().
     */
    void attachHostDevice(int global_index, PacketSink *device);

    /** Channel a host-side device transmits into (toward its TOR). */
    Channel &hostTx(int global_index);

    /**
     * IP address assigned to a host. Pods 0-255 map to 10.pod.rack.idx
     * exactly as before; pods 256-509 spill into the 11.x second octet
     * (the first two octets together encode the pod, so the /16
     * pod-prefix routes at L2 still work at paper scale — ~260 pods).
     */
    static Ipv4Addr hostAddr(int pod, int rack, int idx)
    {
        return Ipv4Addr::of(static_cast<std::uint8_t>(10 + (pod >> 8)),
                            static_cast<std::uint8_t>(pod & 0xff),
                            static_cast<std::uint8_t>(rack),
                            static_cast<std::uint8_t>(idx + 1));
    }

    /** Access switches for instrumentation. */
    Switch &tor(int pod, int rack);
    Switch &l1(int pod, int idx);
    Switch &l2(int idx);

    /** The host<->TOR cable of a host (for fault injection). Touching
     * it materializes the host in a lazy build. */
    Link &hostLink(int global_index);

    // --- flyweight hosts (lazyHosts) ---

    /**
     * Create a host's access cable and TOR port now (idempotent; no-op
     * in an eager build where every host is born materialized). Cable
     * name, rate, length, and routing are identical to the eager build;
     * only the TOR port number can differ, and nothing observable
     * depends on it (routing is by address, switch metrics aggregate
     * over ports).
     */
    void materializeHost(int global_index);

    /** True once a host's access cable exists. */
    bool hostMaterialized(int global_index) const
    {
        return hostLinks.at(global_index) != nullptr;
    }

    /** Hosts whose access cable exists (== numHosts() when eager). */
    int materializedHosts() const { return materialized; }

    /** True if this topology defers host materialization. */
    bool lazyHosts() const { return config.lazyHosts; }

    // --- fluid background traffic (ccsim::net::FluidTrafficModel) ---

    /** Trunk cable from L1 switch (pod, l1_idx) up to L2 spine l2_idx
     * (end A = L1, end B = L2). */
    Link &l1ToL2Link(int pod, int l1_idx, int l2_idx);

    /** Trunk cable from TOR (pod, rack) up to L1 l1_idx
     * (end A = TOR, end B = L1). */
    Link &torToL1Link(int pod, int rack, int l1_idx);

    /**
     * The trunk channels a src→dst flow occupies, in transmit order,
     * with one deterministic ECMP-style path per (src, dst) pair (a
     * seeded hash of the endpoint indices — the fluid model cannot
     * consult per-packet ECMP). Host access cables are included only if
     * materialized at call time; stub endpoints contribute no channel.
     * Same-host pairs return an empty path.
     */
    std::vector<Channel *> fluidPath(int src, int dst);

    /** Number of inter-switch (TOR<->L1, L1<->L2) trunk cables. */
    int numTrunkLinks() const { return static_cast<int>(trunks.size()); }

    /** An inter-switch trunk cable by index (for fault injection). */
    Link &trunkLink(int index) { return *trunks.at(index); }

    /**
     * Channels of trunks and materialized access cables that hold
     * per-priority queue state (Channel::holdsQueueState). A scan over
     * every cable, for memory reports.
     */
    int channelsHoldingQueueState() const;

    /** Aggregate drop count across all switches (excluding channels). */
    std::uint64_t totalSwitchDrops() const;

    /**
     * Attach the fabric to one hub per logical partition: @p hubs has
     * numPods() + 1 entries indexed by partition (pods, then the spine;
     * a single-queue cloud passes the same hub in every slot). Each
     * switch registers with its partition's hub: every hub gets one
     * probe family per switch tier (`switch.tor`, `switch.l1`,
     * `switch.l2`) over the switches it holds, and each channel
     * records flow spans into its *transmit-side* partition's recorder,
     * so no hub is ever touched by two worker threads. Host cables
     * materialized later read the same table.
     */
    void attachObservability(std::vector<obs::Observability *> hubs);

    /** The partition a pod's components run on (== the pod index). */
    int podPartition(int pod) const { return pod; }
    /** The partition the L2 spine runs on. */
    int spinePartition() const { return config.pods; }

  private:
    /**
     * Attach the switches of one tier, switch i to the hub of partition
     * @p partition (i), and register one probe family per hub.
     */
    void attachSwitchTier(std::string_view tier,
                          const std::vector<std::unique_ptr<Switch>> &sws,
                          const std::function<int(std::size_t)> &partition);

    sim::EventQueue &queue;  ///< sharded mode: the spine partition
    TopologyConfig config;
    sim::ShardedEventQueue *shards = nullptr;

    std::vector<std::unique_ptr<Switch>> tors;       // pod*racksPerPod+rack
    std::vector<std::unique_ptr<Switch>> l1Switches; // pod*l1PerPod+idx
    std::vector<std::unique_ptr<Switch>> l2Switches;
    std::vector<std::unique_ptr<Link>> links;
    /** (end A, end B) partitions of each link, aligned with `links`. */
    std::vector<std::pair<int, int>> linkEndPartitions;
    std::vector<Link *> trunks;  ///< inter-switch subset of `links`
    /**
     * Each host's access cable (host side is end A, TOR side end B), or
     * nullptr until a lazy build materializes it.
     */
    std::vector<Link *> hostLinks;
    int materialized = 0;
    /** Hub per partition (empty = detached); read by lazy cables too. */
    std::vector<obs::Observability *> partitionHubs;

    static std::shared_ptr<const DelayModel>
    makeJitter(const TierParams &p);
    static SwitchConfig makeSwitchConfig(
        const std::string &name, const TierParams &p,
        std::shared_ptr<const DelayModel> jitter, std::uint64_t seed);
    sim::EventQueue &podQueue(int pod);
    void build();
    void validateConfig() const;
    /** Per-pod stride in the `trunks` vector. */
    int trunksPerPod() const
    {
        return config.l1PerPod * config.l2Count +
               config.racksPerPod * config.l1PerPod;
    }
};

}  // namespace ccsim::net
