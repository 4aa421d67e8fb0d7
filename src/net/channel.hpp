/**
 * @file
 * Serialized point-to-point channels and full-duplex links.
 *
 * A Channel is one direction of a cable: it serializes packets at the link
 * rate, applies propagation delay, keeps per-priority transmit queues, and
 * honors 802.1Qbb PFC pause per priority (queues and pause state are
 * allocated when the first packet or pause arrives). A Link bundles two
 * channels and transparently intercepts PFC frames: a pause frame received
 * at one end throttles that end's transmitter, exactly as a MAC would.
 */
#pragma once

#include <array>
#include <memory>
#include <string>

#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "sim/stats.hpp"

namespace ccsim::sim {
class ShardedEventQueue;
}

namespace ccsim::net {

/**
 * Told when a packet queued with Channel::send() has been fully
 * serialized onto the wire (switches use it for ingress buffer
 * accounting). A typed pointer plus a port keeps the transmit entry, and
 * with it every transmit-completion event, inside sim::EventFn's inline
 * buffer.
 */
class TxReleaseListener
{
  public:
    /** @p pkt, queued with release port @p port, has left the channel. */
    virtual void releaseTx(int port, const Packet &pkt) = 0;

  protected:
    ~TxReleaseListener() = default;
};

/** One direction of a link. */
class Channel
{
  public:
    /**
     * @param eq          Event queue driving this channel.
     * @param name        Trace name.
     * @param gbps        Line rate in Gb/s.
     * @param prop_delay  One-way propagation delay.
     * @param queue_cap_bytes Per-priority transmit queue capacity.
     */
    Channel(sim::EventQueue &eq, std::string name, double gbps,
            sim::TimePs prop_delay, std::uint32_t queue_cap_bytes);

    /** Set the receiving device at the far end. */
    void setSink(PacketSink *s) { sink = s; }

    /**
     * Enqueue a packet for transmission.
     *
     * Lossy-priority packets are dropped (and counted) when the transmit
     * queue for their priority is full; callers using lossless priorities
     * are expected to respect PFC back-pressure via queuedBytes().
     *
     * @param pkt     The packet.
     * @param release Optional listener told, with @p port, when the last
     *                bit has been serialized onto the wire; it runs after
     *                the delivery has been scheduled.
     * @param port    Passed back to @p release.
     * @return true if the packet was enqueued, false if dropped.
     */
    bool send(const PacketPtr &pkt, TxReleaseListener *release = nullptr,
              int port = 0);

    /**
     * Pause transmission of @p priority for @p duration from now.
     * Duration zero resumes immediately (X-ON).
     */
    void pausePriority(std::uint8_t priority, sim::TimePs duration);

    /** Bytes currently queued at @p priority (for sender back-pressure). */
    std::uint32_t queuedBytes(std::uint8_t priority) const
    {
        return prioState ? prioState->queueBytes[priority] : 0;
    }

    /**
     * True once a packet or a PFC pause has reached this channel: only
     * then does it own its per-priority queues and pause state.
     */
    bool holdsQueueState() const { return prioState != nullptr; }

    // --- fluid background load (ccsim::net::FluidTrafficModel) ---

    /**
     * Fold an aggregate background-flow rate into this channel. Fluid
     * flows are not simulated packet by packet; their only effect on the
     * packet path is that serialization proceeds at the residual rate
     * (line rate minus the fluid aggregate, floored at 5% of line rate
     * so a mis-modeled overload degrades instead of wedging). Rates are
     * integer bits/s so add/remove pairs cancel exactly: a channel whose
     * fluid load returns to zero is bit-for-bit the channel that never
     * saw any.
     */
    void addFluidBps(std::uint64_t bps) { fluidRateBps += bps; }

    /** Remove @p bps of fluid load (must match a previous add). */
    void removeFluidBps(std::uint64_t bps);

    /** Current aggregate fluid rate in bits/s. */
    std::uint64_t fluidBps() const { return fluidRateBps; }

    /** Fraction of the line rate consumed by fluid background load. */
    double fluidUtilization() const
    {
        return static_cast<double>(fluidRateBps) / (gbps * 1e9);
    }

    /**
     * Account bytes advanced by the fluid model for flows traversing
     * this channel (the fluid analogue of bytesSent()). Called by
     * FluidTrafficModel at fold points; the conservation tests compare
     * these credits against per-flow integrals.
     */
    void creditFluidBytes(std::uint64_t bytes) { fluidBytes += bytes; }

    /** Cumulative fluid bytes advanced across this channel. */
    std::uint64_t fluidBytesDelivered() const { return fluidBytes; }

    // --- partitioned execution (ccsim::sim::ShardedEventQueue) ---

    /**
     * Route deliveries across a partition boundary. The transmit side
     * (queueing, PFC, serialization, fault check, tracing) stays on this
     * channel's own queue — partition @p src_lp — and only the final
     * propagation hop is handed to partition @p dst_lp as a cross-shard
     * message. The channel's propagation delay is the edge's lookahead
     * contribution, so it must be >= the kernel's sync window (enforced
     * by ShardedEventQueue::registerCrossEdge, which the caller — in
     * practice Link::setCrossShard / the topology builder — invokes).
     */
    void setCrossShardDelivery(sim::ShardedEventQueue *sq, int src_lp,
                               int dst_lp);

    /** One-way propagation delay (the lookahead this channel provides). */
    sim::TimePs propagationDelay() const { return propDelay; }

    // --- fault injection hooks (ccsim::fault) ---

    /**
     * Administratively cut this direction of the cable. While down, frames
     * still serialize (the transmitter cannot see the cut) but every bit
     * is lost on the wire: nothing reaches the sink. Counted in
     * faultDrops(). Raising the channel back up does not resurrect frames
     * lost while it was down — recovery is the transport's job (LTL).
     */
    void setAdminDown(bool down) { adminDown = down; }

    /** True if the channel is administratively down. */
    bool isAdminDown() const { return adminDown; }

    /**
     * Install a delivery-time fault hook, called once per non-PFC packet
     * as it would reach the far end; return true to drop it (models CRC
     * corruption on the wire). Pass an empty function to remove. The hook
     * must be deterministic for reproducible runs (draw randomness from a
     * seeded sim::Rng only).
     */
    void setFaultHook(std::function<bool(const PacketPtr &)> hook)
    {
        faultHook = std::move(hook);
    }

    /** Packets lost to admin-down or the fault hook. */
    std::uint64_t faultDrops() const { return faultDropped; }

    /**
     * Inflate delivery latency by @p extra on top of the propagation
     * delay (the gray-fault model: a degraded optic or overheating
     * switch that still forwards every frame, slower). Applies to
     * packets whose propagation hop starts after the call; zero restores
     * nominal latency. Safe on sharded runs: latency only ever increases
     * above the registered cross-edge minimum, so the conservative
     * lookahead still holds.
     */
    void setExtraLatency(sim::TimePs extra) { extraDelay = extra; }

    // --- flow tracing (ccsim::obs) ---

    /**
     * Attach (or detach, with nullptr) a flight recorder. Sampled packets
     * then get queueing / PFC-pause / serialization / propagation spans
     * recorded against their flow; unsampled packets pay one predicted
     * branch per stage.
     */
    void setFlowRecorder(obs::FlightRecorder *r) { flowRec = r; }

    // --- statistics ---
    std::uint64_t bytesSent() const { return txBytes; }
    std::uint64_t packetsDropped() const { return drops; }
    std::uint64_t pausesReceived() const { return pauses; }

  private:
    sim::EventQueue &queue;
    std::string label;
    double gbps;
    sim::TimePs propDelay;
    std::uint32_t queueCapBytes;
    PacketSink *sink = nullptr;

    struct TxEntry {
        PacketPtr pkt;
        TxReleaseListener *release = nullptr;
        int releasePort = 0;
        sim::TimePs enqueuedAt = 0;  ///< sampled packets only
        sim::TimePs pauseBase = 0;   ///< pausedTimeNow() at enqueue
    };
    /**
     * Cumulative PFC pause-time clock for one priority. Folding happens
     * in pausePriority(); pausedTimeNow() reads the running total. The
     * difference between two reads is exactly the pause time the channel
     * saw in between, which splits a sampled packet's queue wait into
     * true queueing vs. PFC pause.
     */
    struct PauseClock {
        sim::TimePs accum = 0;
        sim::TimePs curStart = 0;
        sim::TimePs curEnd = 0;
    };
    /**
     * Per-priority transmit queues and PFC state. Most cables of a
     * paper-scale fabric carry only fluid aggregates and never queue a
     * packet, so the block is allocated by the first send() or
     * pausePriority(), on the partition that owns this transmitter.
     * Transmission only ever starts from one of those two, so the
     * transmit path always finds the block; queuedBytes() reads a
     * missing one as empty queues.
     */
    struct PriorityState {
        std::array<sim::Fifo<TxEntry>, kNumTrafficClasses> txQueues;
        std::array<std::uint32_t, kNumTrafficClasses> queueBytes{};
        std::array<sim::TimePs, kNumTrafficClasses> pausedUntil{};
        std::array<PauseClock, kNumTrafficClasses> pauseClock{};
    };
    std::unique_ptr<PriorityState> prioState;
    obs::FlightRecorder *flowRec = nullptr;
    bool transmitting = false;
    sim::EventId resumeEvent = sim::kNoEvent;
    bool adminDown = false;
    sim::TimePs extraDelay = 0;
    std::function<bool(const PacketPtr &)> faultHook;
    sim::ShardedEventQueue *crossShard = nullptr;
    int crossSrc = 0;
    int crossDst = 0;
    std::uint64_t fluidRateBps = 0;
    std::uint64_t fluidBytes = 0;

    std::uint64_t txBytes = 0;
    std::uint64_t drops = 0;
    std::uint64_t pauses = 0;
    std::uint64_t faultDropped = 0;

    PriorityState &priorityState();
    void tryTransmit();
    void finishTransmit(TxEntry entry);
    double effectiveGbps() const;
    int pickQueue() const;
    sim::TimePs earliestUnpause() const;
    sim::TimePs pausedTimeNow(std::uint8_t priority) const;
};

/** A full-duplex cable between two devices, with MAC-level PFC handling. */
class Link
{
  public:
    /**
     * @param eq              Event queue.
     * @param name            Trace name; channels get name+".ab"/".ba".
     * @param gbps            Line rate each direction.
     * @param length_meters   Cable length (propagation at ~5 ns/m).
     * @param queue_cap_bytes Per-priority transmit queue capacity.
     */
    Link(sim::EventQueue &eq, std::string name, double gbps,
         double length_meters,
         std::uint32_t queue_cap_bytes = 1024 * 1024);

    /**
     * Partition-spanning link: end A (and the A-to-B transmitter) lives
     * on @p eq_a, end B (and the B-to-A transmitter) on @p eq_b. Wire
     * up delivery with setCrossShard() when the two queues are
     * partitions of a ShardedEventQueue.
     */
    Link(sim::EventQueue &eq_a, sim::EventQueue &eq_b, std::string name,
         double gbps, double length_meters,
         std::uint32_t queue_cap_bytes = 1024 * 1024);

    /**
     * Register this link as the (lp_a <-> lp_b) partition crossing:
     * registers both cross edges with lookahead = propagation delay and
     * routes both directions' deliveries through @p sq. Requires the
     * two-queue constructor with eq_a == sq.partition(lp_a) and
     * eq_b == sq.partition(lp_b).
     */
    void setCrossShard(sim::ShardedEventQueue &sq, int lp_a, int lp_b);

    /** The A-to-B direction (device A transmits here). */
    Channel &aToB() { return *ab; }
    /** The B-to-A direction. */
    Channel &bToA() { return *ba; }

    /** Attach the device at end A (receives B-to-A traffic). */
    void attachA(PacketSink *a);
    /** Attach the device at end B (receives A-to-B traffic). */
    void attachB(PacketSink *b);

    /** Cut (or restore) both directions of the cable at once. */
    void setAdminDown(bool down)
    {
        ab->setAdminDown(down);
        ba->setAdminDown(down);
    }

    /** True if either direction is administratively down. */
    bool isAdminDown() const
    {
        return ab->isAdminDown() || ba->isAdminDown();
    }

    /** Attach a flight recorder to both directions (nullptr detaches). */
    void setFlowRecorder(obs::FlightRecorder *r)
    {
        ab->setFlowRecorder(r);
        ba->setFlowRecorder(r);
    }

    /** Channels of this cable that hold per-priority queue state. */
    int channelsHoldingQueueState() const
    {
        return int(ab->holdsQueueState()) + int(ba->holdsQueueState());
    }

    /**
     * Bytes an idle cable owns: the link, its two channels and its two
     * PFC shims (names and hooks behind pointers not counted).
     */
    static constexpr std::size_t idleBytes()
    {
        return sizeof(Link) + 2 * sizeof(Channel) + 2 * sizeof(PfcShim);
    }

  private:
    /** Shim that consumes PFC frames and forwards the rest. */
    class PfcShim : public PacketSink
    {
      public:
        PfcShim(Channel *reverse_tx) : reverseTx(reverse_tx) {}
        void setInner(PacketSink *s) { inner = s; }
        void acceptPacket(const PacketPtr &pkt) override;

      private:
        Channel *reverseTx;
        PacketSink *inner = nullptr;
    };

    std::unique_ptr<Channel> ab;
    std::unique_ptr<Channel> ba;
    std::unique_ptr<PfcShim> shimA;  ///< sits in front of device A
    std::unique_ptr<PfcShim> shimB;  ///< sits in front of device B
};

}  // namespace ccsim::net
