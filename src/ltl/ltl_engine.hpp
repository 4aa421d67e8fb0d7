/**
 * @file
 * The LTL (Lightweight Transport Layer) protocol engine (Section V-A).
 *
 * LTL provides ordered, reliable, connection-based messaging between
 * FPGAs across the datacenter Ethernet fabric:
 *
 *  - UDP encapsulation, IP routing, lossless traffic class;
 *  - statically allocated, persistent send/receive connection tables;
 *  - an unacknowledged frame store with ACK/NACK-based retransmission
 *    (NACKs request timely retransmit when reordering is detected,
 *    without waiting for the 50 us timeout);
 *  - configurable retransmission timeout (default 50 us, as deployed),
 *    which doubles as fast failure detection for the HaaS layer;
 *  - DC-QCN end-to-end congestion control (ECN -> CNP -> rate cut);
 *  - bandwidth limiting so a donated FPGA cannot starve its host.
 */
#pragma once

#include <functional>
#include <vector>

#include "ltl/dcqcn.hpp"
#include "ltl/ltl_frame.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "sim/stats.hpp"

namespace ccsim::ltl {

/** A fully reassembled LTL message handed to the local consumer. */
struct LtlMessage {
    std::uint16_t conn = 0;      ///< receive-connection index
    std::uint64_t msgId = 0;
    std::uint32_t bytes = 0;
    std::uint8_t vc = 0;         ///< VC for Elastic Router delivery
    std::shared_ptr<void> payload;
    sim::TimePs sentAt = 0;      ///< when the sender created the message
    obs::TraceContext trace;     ///< causal flow context (from the sender)
};

/** Engine configuration. */
struct LtlConfig {
    net::Ipv4Addr localIp;
    std::uint16_t udpPort = kLtlUdpPort;
    std::uint8_t trafficClass = net::kTcLossless;

    /** Packetizer + MAC egress latency (header generated -> on wire). */
    sim::TimePs txPathDelay = 400 * sim::kNanosecond;
    /** MAC ingress + depacketizer latency. */
    sim::TimePs rxPathDelay = 400 * sim::kNanosecond;
    /** Ack Generation module latency. */
    sim::TimePs ackGenDelay = 180 * sim::kNanosecond;

    /** Retransmission timeout; the deployed value is 50 us. */
    sim::TimePs retransmitTimeout = 50 * sim::kMicrosecond;
    /** Consecutive timeouts before the connection is declared failed. */
    int maxRetries = 16;

    /** Maximum unacknowledged frames in flight per connection. */
    std::uint32_t sendWindowFrames = 128;
    /** Unacked frame store capacity in bytes (per connection). */
    std::uint32_t unackedStoreBytes = 256 * 1024;
    /** Maximum LTL payload per frame (fits in one MTU with headers). */
    std::uint32_t maxFramePayload = 1408;

    /** Static bandwidth cap (configured by the Service Manager). */
    double bandwidthLimitGbps = 40.0;
    /** Enable DC-QCN reaction point. */
    bool enableDcqcn = true;
    /** Enable NACK fast retransmit (ablation knob; timeout-only if off). */
    bool enableNack = true;
    /** Minimum spacing between CNPs sent for one connection. */
    sim::TimePs cnpMinInterval = 50 * sim::kMicrosecond;
    DcqcnConfig dcqcn;

    std::uint16_t maxConnections = 1024;

    /**
     * How long beginQuiesce() waits for in-flight frames to drain before
     * abandoning the stragglers and declaring the engine quiesced.
     */
    sim::TimePs quiesceDrainTimeout = 200 * sim::kMicrosecond;
};

/**
 * One LTL protocol engine instance (one per FPGA shell).
 */
class LtlEngine
{
  public:
    /** How the engine puts frames on the wire (bound to the shell's tap). */
    using NetworkTx = std::function<void(const net::PacketPtr &)>;
    /** Delivery of a complete message to the local consumer. */
    using DeliveryFn = std::function<void(const LtlMessage &)>;
    /** Notification that a connection has been declared failed. */
    using FailureFn = std::function<void(std::uint16_t conn)>;

    LtlEngine(sim::EventQueue &eq, LtlConfig cfg, NetworkTx tx);

    // ------------------------------------------------------------------
    // Connection table management (driven by the control plane / HaaS FM).
    // ------------------------------------------------------------------

    /**
     * Allocate a send connection toward @p remote_ip whose frames will be
     * demultiplexed by the remote engine's receive connection
     * @p remote_conn.
     *
     * @return The local send-connection index.
     */
    std::uint16_t openSend(net::Ipv4Addr remote_ip, std::uint16_t remote_conn);

    /**
     * Allocate a receive connection.
     *
     * @param vc Virtual channel that delivered messages are tagged with.
     * @return The receive-connection index (give it to the remote sender).
     */
    std::uint16_t openReceive(std::uint8_t vc = 0);

    /**
     * Deallocate a send connection. Closing an already-closed (or failed
     * and reaped) connection is a no-op, so RAII handles and fault-driven
     * teardown can race without double-free hazards.
     */
    void closeSend(std::uint16_t conn);
    /** Deallocate a receive connection (no-op if already closed). */
    void closeReceive(std::uint16_t conn);

    // ------------------------------------------------------------------
    // Data path.
    // ------------------------------------------------------------------

    /**
     * Send a message on connection @p conn. Segmentation, windowing,
     * pacing, retransmission are handled internally.
     *
     * @param parent An existing flow context to continue. When it is not
     *   sampled and flow tracing is enabled, the engine begins (and later
     *   ends) a flow of its own for this message.
     */
    void sendMessage(std::uint16_t conn, std::uint32_t bytes,
                     std::shared_ptr<void> payload = nullptr,
                     std::uint8_t vc = 0,
                     obs::TraceContext parent = {});

    /** Entry point for LTL-addressed packets delivered by the shell. */
    void onNetworkPacket(const net::PacketPtr &pkt);

    /** Register the local message consumer. */
    void setDeliveryHandler(DeliveryFn fn) { deliver = std::move(fn); }

    /** Register the connection-failure consumer (HaaS). */
    void setFailureHandler(FailureFn fn) { onFailure = std::move(fn); }

    /**
     * Observer of retransmission-timeout streaks: called on every timeout
     * with the connection's consecutive-timeout count and its remote
     * address. Feeds passive failure suspicion (haas::HealthMonitor).
     */
    using TimeoutObserver = std::function<void(
        std::uint16_t conn, int streak, net::Ipv4Addr remote)>;
    void setTimeoutObserver(TimeoutObserver fn)
    {
        onTimeoutStreak = std::move(fn);
    }

    // ------------------------------------------------------------------
    // Quiesce / drain (planned-reconfiguration protocol).
    // ------------------------------------------------------------------

    /** Engine admission state. */
    enum class QuiesceState {
        kActive,    ///< normal operation
        kDraining,  ///< no new sends; in-flight frames completing
        kQuiesced,  ///< idle; incoming data answered with kFlagReject
    };

    /**
     * Stop admitting new sends and wait for every send connection to
     * drain (all queued frames transmitted and acknowledged), then call
     * @p drained. Connections that cannot drain within @p drain_timeout
     * have their remaining frames abandoned (counted) so reconfiguration
     * is never blocked by a dead peer. While quiesced, arriving data
     * frames are answered with kFlagReject instead of being silently
     * dropped — the sender fails over immediately.
     */
    void beginQuiesce(sim::TimePs drain_timeout,
                      std::function<void()> drained = {});

    /** Resume admitting sends (after reconfiguration completes). */
    void endQuiesce();

    QuiesceState quiesceState() const { return qState; }

    /**
     * Reset a send connection to a fresh handshake: sequence numbers
     * rewound, failure flag and retry budget cleared, any leftover
     * frames abandoned. Pair with resyncReceive() on the peer (see
     * core::LtlChannel::rehandshake) after the remote node rejoined.
     */
    void resyncSend(std::uint16_t conn);

    /** Reset a receive connection to expect a fresh handshake (seq 0). */
    void resyncReceive(std::uint16_t conn);

    // ------------------------------------------------------------------
    // Observability.
    // ------------------------------------------------------------------

    /**
     * Export this engine's statistics under `ltl.<node>.*` (probes for
     * the frame/ACK/CNP counters, a registry histogram `ltl.<node>.rtt_us`)
     * and emit trace spans/instants when @p o->trace is enabled. Pass
     * nullptr to detach. Attaching never changes protocol behaviour.
     */
    void attachObservability(obs::Observability *o, const std::string &node);

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    const LtlConfig &config() const { return cfg; }

    /**
     * Summary of the data-frame RTT samples (header generated -> ACK
     * received), in us. The samples themselves go to the registry
     * histogram `ltl.<node>.rtt_us` and the RTT observer.
     */
    const sim::RunningStats &rttUs() const { return statRtt; }

    /**
     * Call @p fn with every RTT sample, in us, as it is taken; null (the
     * default) keeps none. For callers that need every sample.
     */
    void setRttObserver(std::function<void(double)> fn)
    {
        rttObserver = std::move(fn);
    }

    /** Current DC-QCN rate of a send connection, Gb/s. */
    double currentRateGbps(std::uint16_t conn) const;

    std::uint64_t framesSent() const { return statFramesSent; }
    std::uint64_t framesRetransmitted() const { return statRetransmits; }
    std::uint64_t timeouts() const { return statTimeouts; }
    std::uint64_t nacksSent() const { return statNacksSent; }
    std::uint64_t cnpsSent() const { return statCnpsSent; }
    std::uint64_t cnpsReceived() const { return statCnpsReceived; }
    std::uint64_t messagesDelivered() const { return statDelivered; }
    std::uint64_t duplicateFrames() const { return statDuplicates; }
    std::uint64_t outOfOrderFrames() const { return statOutOfOrder; }

    /** Distinct data frames cumulatively acknowledged by the peer. */
    std::uint64_t framesAcked() const { return statFramesAcked; }
    /** Frames written off when a connection failed or was closed. */
    std::uint64_t framesAbandoned() const { return statFramesAbandoned; }
    /** Transmitted frames currently awaiting acknowledgement. */
    std::uint64_t framesInFlight() const { return inFlightFrames; }
    /**
     * Frames send connection @p conn has transmitted that await
     * acknowledgement; 0 for a closed or failed connection.
     */
    std::size_t unackedFrames(std::uint16_t conn) const
    {
        return conn < sendTable.size() && sendTable[conn].valid &&
                       !sendTable[conn].failed
                   ? sendTable[conn].unacked.size()
                   : 0;
    }

    /** Send connections declared failed (retry exhaustion or reject). */
    std::uint64_t connectionFailures() const { return statConnFailures; }

    /** Sends refused because the engine was draining or quiesced. */
    std::uint64_t sendsRejected() const { return statSendsRejected; }
    /** Reject control frames sent for data arriving while quiesced. */
    std::uint64_t rejectsSent() const { return statRejectsSent; }
    /** Reject frames received (each fails its send connection). */
    std::uint64_t rejectsReceived() const { return statRejectsReceived; }
    /** beginQuiesce() calls. */
    std::uint64_t quiesces() const { return statQuiesces; }

    /** True if @p conn is an open send connection declared failed. */
    bool sendConnectionFailed(std::uint16_t conn) const
    {
        return conn < sendTable.size() && sendTable[conn].valid &&
               sendTable[conn].failed;
    }

  private:
    struct PendingFrame {
        LtlHeaderPtr header;
        sim::TimePs queuedAt = 0;  ///< for congestion-window attribution
    };
    struct UnackedFrame {
        LtlHeaderPtr header;
        sim::TimePs firstSentAt = 0;
        sim::TimePs lastSentAt = 0;
        bool retransmitted = false;
    };
    struct SendConnection {
        bool valid = false;
        net::Ipv4Addr remoteIp;
        std::uint16_t remoteConn = 0;
        std::uint32_t nextSeq = 0;
        sim::Fifo<PendingFrame> sendQueue;
        sim::Fifo<UnackedFrame> unacked;
        std::uint32_t unackedBytes = 0;
        sim::TimePs nextSendTime = 0;
        sim::EventId pumpEvent = sim::kNoEvent;
        sim::EventId timeoutEvent = sim::kNoEvent;
        int consecutiveTimeouts = 0;
        bool failed = false;
        std::unique_ptr<DcqcnController> dcqcn;
        std::uint64_t nextMsgId = 1;
    };
    struct ReceiveConnection {
        bool valid = false;
        std::uint8_t vc = 0;
        std::uint32_t expectedSeq = 0;
        /** Last NACKed sequence, to avoid NACK storms for one gap. */
        std::uint32_t lastNackSeq = UINT32_MAX;
        sim::TimePs lastCnpAt = -(1 << 30);
    };

    sim::EventQueue &queue;
    LtlConfig cfg;
    NetworkTx networkTx;
    DeliveryFn deliver;
    FailureFn onFailure;
    TimeoutObserver onTimeoutStreak;

    std::vector<SendConnection> sendTable;
    /**
     * Frames in the `unacked` stores of all send connections. A failed
     * connection's store is emptied when it fails, so this counts only
     * open, unfailed connections.
     */
    std::uint64_t inFlightFrames = 0;
    std::vector<ReceiveConnection> recvTable;

    QuiesceState qState = QuiesceState::kActive;
    std::function<void()> drainedCb;
    sim::EventId drainDeadlineEvent = sim::kNoEvent;

    obs::Observability *obsHub = nullptr;
    std::string obsPrefix;                       ///< "ltl.<node>"
    sim::LogHistogram *obsRttHist = nullptr;     ///< registry-owned
    int obsTrack = 0;                            ///< trace timeline id

    sim::RunningStats statRtt;
    std::function<void(double)> rttObserver;
    std::uint64_t statFramesSent = 0;
    std::uint64_t statRetransmits = 0;
    std::uint64_t statTimeouts = 0;
    std::uint64_t statAcksSent = 0;
    std::uint64_t statNacksSent = 0;
    std::uint64_t statCnpsSent = 0;
    std::uint64_t statCnpsReceived = 0;
    std::uint64_t statDelivered = 0;
    std::uint64_t statDuplicates = 0;
    std::uint64_t statOutOfOrder = 0;
    std::uint64_t statFramesAcked = 0;
    std::uint64_t statFramesAbandoned = 0;
    std::uint64_t statConnFailures = 0;
    std::uint64_t statSendsRejected = 0;
    std::uint64_t statRejectsSent = 0;
    std::uint64_t statRejectsReceived = 0;
    std::uint64_t statQuiesces = 0;

    SendConnection &sendConn(std::uint16_t conn);
    void abandonSendState(SendConnection &sc);
    ReceiveConnection &recvConn(std::uint16_t conn);
    void failConnection(std::uint16_t conn, const char *why);
    bool allDrained() const;
    void maybeFinishDrain();
    void finishQuiesce();

    void pumpSend(std::uint16_t conn);
    void transmitFrame(SendConnection &sc, const LtlHeaderPtr &header,
                       bool is_retransmit);
    void armTimeout(std::uint16_t conn);
    void onTimeout(std::uint16_t conn);
    void handleAck(std::uint16_t conn, std::uint32_t ack_seq, bool is_nack);
    void handleData(const net::PacketPtr &pkt, const LtlHeaderPtr &header);
    void sendControl(net::Ipv4Addr to, std::uint16_t dst_conn,
                     std::uint8_t flags, std::uint32_t ack_seq,
                     sim::TimePs delay, obs::TraceContext ctx = {});
    double effectiveRateGbps(const SendConnection &sc) const;
    net::PacketPtr buildPacket(const SendConnection &sc,
                               const LtlHeaderPtr &header) const;
};

}  // namespace ccsim::ltl
