/**
 * @file
 * A cut-through datacenter Ethernet switch with per-traffic-class
 * buffering, ECN marking, and 802.1Qbb PFC generation.
 *
 * The paper's LTL relies on datacenter switches providing (a) "lossless"
 * traffic classes provisioned for RDMA/FCoE-style traffic and (b) ECN
 * marking for DC-QCN end-to-end congestion control; both are modelled here.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/channel.hpp"
#include "net/delay_model.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace ccsim::net {

/** Static configuration for a Switch. */
struct SwitchConfig {
    std::string name = "switch";
    /** Cut-through forwarding latency (first bit in to first bit out). */
    sim::TimePs forwardingLatency = 450 * sim::kNanosecond;
    /** Optional extra per-packet delay modelling background traffic. */
    std::shared_ptr<const DelayModel> jitter;
    /** Mark ECN (on ECT packets) when egress queue exceeds this. */
    std::uint32_t ecnThresholdBytes = 80 * 1024;
    /** Bitmask of priorities treated as lossless (PFC-protected). */
    std::uint32_t losslessMask = 1u << kTcLossless;
    /**
     * Per-ingress-priority occupancy that triggers PFC X-OFF. Sized so
     * that ~30 simultaneously paused ingress ports still fit in the
     * egress channel buffering (1 MB per priority by default).
     */
    std::uint32_t pfcXoffBytes = 32 * 1024;
    /** Occupancy below which PFC X-ON (resume) is sent. */
    std::uint32_t pfcXonBytes = 16 * 1024;
    /** Pause duration carried in each PFC frame. */
    sim::TimePs pfcPauseTime = 20 * sim::kMicrosecond;
    /** RNG seed for the jitter model. */
    std::uint64_t seed = 1;
};

/**
 * An output-queued (per-channel) switch with ingress-based PFC accounting.
 */
class Switch : private TxReleaseListener
{
  public:
    Switch(sim::EventQueue &eq, SwitchConfig cfg);

    /**
     * Add a port transmitting into @p tx.
     *
     * @return The port index; pass portSink(index) to Link::attachA/B so
     *         the reverse direction delivers into this switch.
     */
    int addPort(Channel *tx);

    /** The packet sink for a port's receive side. */
    PacketSink *portSink(int port);

    /** Route: packets to dst/prefix_len leave via @p port (ECMP if repeated). */
    void addRoute(Ipv4Addr dst, int prefix_len, int port);

    /** Exact host route (fast path). */
    void addHostRoute(Ipv4Addr dst, int port);

    /** Default route(s); multiple ports ECMP-balance on the flow hash. */
    void setDefaultRoutes(std::vector<int> ports);

    /** Number of ports. */
    int numPorts() const { return static_cast<int>(ports.size()); }

    const std::string &name() const { return config.name; }

    /**
     * Emit trace instants for PFC X-OFF/X-ON and ECN marks under
     * `switch.<name>`. Pass nullptr to detach. The statistics are
     * exported by the owner as probe families over kProbeLeaves (see
     * Topology::attachObservability).
     */
    void attachObservability(obs::Observability *o);

    /**
     * The probe leaves of a switch, `switch.<name>.<leaf>`: the packet
     * counters, then per-class aggregate egress depth `q<prio>.depth`
     * (bytes queued across all ports).
     */
    static constexpr std::array<std::string_view, 14> kProbeLeaves = {
        "forwarded",  "dropped",        "ecn_marked", "pfc_frames",
        "route_misses", "brownout_drops", "q0.depth", "q1.depth",
        "q2.depth",   "q3.depth",       "q4.depth",   "q5.depth",
        "q6.depth",   "q7.depth"};

    /** The current value of kProbeLeaves[@p leaf]. */
    double probeValue(std::size_t leaf) const;

    // --- fault injection hooks (ccsim::fault) ---

    /**
     * Enter a brown-out: arriving packets are dropped with probability
     * @p drop_prob (drawn from the switch's own seeded RNG), and — when
     * @p force_ecn — every ECN-capable packet is marked on egress
     * regardless of queue depth (an ECN storm). Drops bypass ingress PFC
     * accounting, exactly like a corrupted frame at the ingress MAC.
     */
    void setBrownout(double drop_prob, bool force_ecn);

    /** Leave the brown-out. */
    void clearBrownout() { setBrownout(0.0, false); }

    /** True while a brown-out is active. */
    bool inBrownout() const
    {
        return brownoutDropProb > 0.0 || brownoutForceEcn;
    }

    /** Packets lost to brown-out drops. */
    std::uint64_t brownoutDrops() const { return brownoutDropped; }

    // --- statistics ---
    std::uint64_t packetsForwarded() const { return forwarded; }
    std::uint64_t packetsDropped() const { return dropped; }
    std::uint64_t packetsEcnMarked() const { return ecnMarked; }
    std::uint64_t pfcFramesSent() const { return pfcSent; }
    std::uint64_t routeMisses() const { return noRoute; }
    /** Bytes of class @p prio queued for egress across all ports. */
    std::uint64_t egressQueuedBytes(std::uint8_t prio) const;

  private:
    class PortSink : public PacketSink
    {
      public:
        PortSink(Switch *sw, int port) : parent(sw), portIndex(port) {}
        void acceptPacket(const PacketPtr &pkt) override
        {
            parent->handlePacket(portIndex, pkt);
        }

      private:
        Switch *parent;
        int portIndex;
    };

    struct Port {
        Channel *tx = nullptr;
        std::unique_ptr<PortSink> sink;
        /** Buffered bytes attributable to this ingress port, per priority. */
        std::uint32_t ingressBytes[kNumTrafficClasses] = {};
        /** True while an X-OFF is outstanding for a priority. */
        bool xoffSent[kNumTrafficClasses] = {};
        /**
         * Latest scheduled forward time for traffic that entered via
         * this port: jitter must never reorder packets within one
         * ingress stream (real switch queues are FIFO per class).
         */
        sim::TimePs lastForwardAt = 0;
    };

    struct PrefixRoute {
        std::uint32_t prefix;
        std::uint32_t mask;
        int len;
        std::vector<int> ports;
    };

    sim::EventQueue &queue;
    SwitchConfig config;
    sim::Rng rng;
    obs::Observability *obsHub = nullptr;
    std::string obsPrefix;  ///< "switch.<name>"
    int obsTrack = 0;
    std::vector<std::unique_ptr<Port>> ports;
    std::unordered_map<Ipv4Addr, std::vector<int>> hostRoutes;
    std::vector<PrefixRoute> prefixRoutes;
    std::vector<int> defaultRoutes;

    double brownoutDropProb = 0.0;
    bool brownoutForceEcn = false;

    std::uint64_t forwarded = 0;
    std::uint64_t dropped = 0;
    std::uint64_t ecnMarked = 0;
    std::uint64_t pfcSent = 0;
    std::uint64_t noRoute = 0;
    std::uint64_t brownoutDropped = 0;

    void handlePacket(int in_port, const PacketPtr &pkt);
    void forward(int in_port, int out_port, const PacketPtr &pkt);
    int lookupRoute(const PacketPtr &pkt) const;
    bool isLossless(std::uint8_t prio) const
    {
        return (config.losslessMask >> prio) & 1u;
    }
    void accountIngress(int in_port, std::uint8_t prio, std::int64_t delta);
    /** A lossless packet from @p in_port left its egress channel. */
    void releaseTx(int in_port, const Packet &pkt) override;
    void maybeSendXoff(int in_port, std::uint8_t prio);
    void refreshPfc(int in_port, std::uint8_t prio);
};

}  // namespace ccsim::net
