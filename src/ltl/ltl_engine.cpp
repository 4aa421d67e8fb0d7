#include "ltl/ltl_engine.hpp"

#include "sim/logging.hpp"
#include "sim/pool.hpp"

namespace ccsim::ltl {

LtlEngine::LtlEngine(sim::EventQueue &eq, LtlConfig config, NetworkTx tx)
    : queue(eq), cfg(std::move(config)), networkTx(std::move(tx))
{
    if (!networkTx)
        sim::fatal("LtlEngine: a network transmit function is required");
}

LtlEngine::SendConnection &
LtlEngine::sendConn(std::uint16_t conn)
{
    if (conn >= sendTable.size() || !sendTable[conn].valid)
        sim::panicf("LtlEngine: bad send connection ", conn);
    return sendTable[conn];
}

LtlEngine::ReceiveConnection &
LtlEngine::recvConn(std::uint16_t conn)
{
    if (conn >= recvTable.size() || !recvTable[conn].valid)
        sim::panicf("LtlEngine: bad receive connection ", conn);
    return recvTable[conn];
}

template <typename Table>
std::uint16_t
LtlEngine::freeSlot(Table &table, const char *kind)
{
    // Lowest free id first, as a table of maxConnections slots would give.
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (!table[i].valid)
            return static_cast<std::uint16_t>(i);
    }
    if (table.size() >= cfg.maxConnections)
        sim::fatalf("LtlEngine: ", kind, " connection table exhausted");
    table.emplace_back();
    return static_cast<std::uint16_t>(table.size() - 1);
}

bool
LtlEngine::holdsFrames(const SendConnection &sc)
{
    return sc.valid && !sc.failed &&
           (!sc.unacked.empty() || !sc.sendQueue.empty());
}

void
LtlEngine::attachObservability(obs::Observability *o, const std::string &node)
{
    obsHub = o;
    obsRttHist = nullptr;
    if (!o)
        return;
    obsPrefix = "ltl." + node;
    obsTrack = o->trace.track(obsPrefix);
    obsRttHist = &o->registry.histogram(obsPrefix + ".rtt_us");
    auto &reg = o->registry;
    reg.registerProbe(obsPrefix + ".frames_sent",
                      [this] { return double(statFramesSent); });
    reg.registerProbe(obsPrefix + ".frames_acked",
                      [this] { return double(statFramesAcked); });
    reg.registerProbe(obsPrefix + ".frames_abandoned",
                      [this] { return double(statFramesAbandoned); });
    reg.registerProbe(obsPrefix + ".frames_in_flight",
                      [this] { return double(framesInFlight()); });
    reg.registerProbe(obsPrefix + ".retransmits",
                      [this] { return double(statRetransmits); });
    reg.registerProbe(obsPrefix + ".timeouts",
                      [this] { return double(statTimeouts); });
    reg.registerProbe(obsPrefix + ".acks_sent",
                      [this] { return double(statAcksSent); });
    reg.registerProbe(obsPrefix + ".nacks_sent",
                      [this] { return double(statNacksSent); });
    reg.registerProbe(obsPrefix + ".cnps_sent",
                      [this] { return double(statCnpsSent); });
    reg.registerProbe(obsPrefix + ".cnps_received",
                      [this] { return double(statCnpsReceived); });
    reg.registerProbe(obsPrefix + ".messages_delivered",
                      [this] { return double(statDelivered); });
    reg.registerProbe(obsPrefix + ".duplicate_frames",
                      [this] { return double(statDuplicates); });
    reg.registerProbe(obsPrefix + ".out_of_order_frames",
                      [this] { return double(statOutOfOrder); });
    reg.registerProbe(obsPrefix + ".conn_failures",
                      [this] { return double(statConnFailures); });
    reg.registerProbe(obsPrefix + ".sends_rejected",
                      [this] { return double(statSendsRejected); });
    reg.registerProbe(obsPrefix + ".rejects_sent",
                      [this] { return double(statRejectsSent); });
    reg.registerProbe(obsPrefix + ".rejects_received",
                      [this] { return double(statRejectsReceived); });
    reg.registerProbe(obsPrefix + ".quiesces",
                      [this] { return double(statQuiesces); });
}

void
LtlEngine::abandonSendState(SendConnection &sc)
{
    if (obsHub) {
        // Engine-begun flows whose closing frame is being written off will
        // never be acked; drop them from the recorder's active set.
        auto maybeAbandon = [this](const LtlHeader &h) {
            if (h.trace.sampled && h.traceEndsFlow &&
                h.msgOffset + h.frameBytes >= h.msgBytes)
                obsHub->flows.abandonFlow(h.trace);
        };
        for (const auto &uf : sc.unacked)
            maybeAbandon(*uf.header);
        for (const auto &pf : sc.sendQueue)
            maybeAbandon(*pf.header);
    }
    statFramesAbandoned += sc.unacked.size();
    inFlightFrames -= sc.unacked.size();
    sc.unacked.clear();
    sc.unackedBytes = 0;
    sc.sendQueue.clear();
}

std::uint16_t
LtlEngine::openSend(net::Ipv4Addr remote_ip, std::uint16_t remote_conn)
{
    const std::uint16_t i = freeSlot(sendTable, "send");
    SendConnection &sc = sendTable[i];
    sc = SendConnection{};
    sc.valid = true;
    sc.remoteIp = remote_ip;
    sc.remoteConn = remote_conn;
    if (cfg.enableDcqcn) {
        DcqcnConfig dc = cfg.dcqcn;
        dc.lineRateGbps = std::min(dc.lineRateGbps, cfg.bandwidthLimitGbps);
        sc.dcqcn = std::make_unique<DcqcnController>(queue, dc);
    }
    return i;
}

std::uint16_t
LtlEngine::openReceive(std::uint8_t vc)
{
    const std::uint16_t i = freeSlot(recvTable, "receive");
    recvTable[i] = ReceiveConnection{};
    recvTable[i].valid = true;
    recvTable[i].vc = vc;
    return i;
}

void
LtlEngine::closeSend(std::uint16_t conn)
{
    if (conn >= sendTable.size() || !sendTable[conn].valid)
        return;
    SendConnection &sc = sendTable[conn];
    if (sc.timeoutEvent != sim::kNoEvent)
        queue.cancel(sc.timeoutEvent);
    if (sc.pumpEvent != sim::kNoEvent)
        queue.cancel(sc.pumpEvent);
    if (!sc.failed)
        abandonSendState(sc);  // frames still in flight are written off
    sc = SendConnection{};
}

void
LtlEngine::closeReceive(std::uint16_t conn)
{
    if (conn >= recvTable.size() || !recvTable[conn].valid)
        return;
    recvTable[conn] = ReceiveConnection{};
}

double
LtlEngine::currentRateGbps(std::uint16_t conn) const
{
    if (conn >= sendTable.size() || !sendTable[conn].valid)
        return 0.0;
    return effectiveRateGbps(sendTable[conn]);
}

double
LtlEngine::effectiveRateGbps(const SendConnection &sc) const
{
    double rate = cfg.bandwidthLimitGbps;
    if (sc.dcqcn)
        rate = std::min(rate, sc.dcqcn->currentRateGbps());
    return rate;
}

void
LtlEngine::sendMessage(std::uint16_t conn, std::uint32_t bytes,
                       std::shared_ptr<void> payload, std::uint8_t vc,
                       obs::TraceContext parent)
{
    SendConnection &sc = sendConn(conn);
    if (qState != QuiesceState::kActive) {
        // Draining or quiesced for reconfiguration: refuse admission
        // loudly instead of queueing frames that could never drain.
        ++statSendsRejected;
        CCSIM_LOG(sim::LogLevel::kWarn, "ltl", queue.now(),
                  "sendMessage on connection ", conn,
                  " refused: engine quiescing");
        if (parent.sampled && obsHub)
            obsHub->flows.abandonFlow(parent);
        return;
    }
    if (sc.failed) {
        CCSIM_LOG(sim::LogLevel::kWarn, "ltl", queue.now(),
                  "sendMessage on failed connection ", conn);
        if (parent.sampled && obsHub)
            obsHub->flows.abandonFlow(parent);
        return;
    }
    obs::TraceContext ctx = parent;
    bool ends_flow = false;
    if (!ctx.sampled && obsHub && obsHub->flows.enabled()) {
        ctx = obsHub->flows.beginFlow(obsPrefix + ".msg", queue.now());
        ends_flow = ctx.sampled;
    }
    const std::uint64_t msg_id = sc.nextMsgId++;
    const std::uint32_t size = bytes == 0 ? 1 : bytes;
    std::uint32_t offset = 0;
    while (offset < size) {
        const std::uint32_t chunk =
            std::min(cfg.maxFramePayload, size - offset);
        auto header = sim::makePooled<LtlHeader>();
        header->flags = kFlagData;
        header->srcConn = conn;
        header->dstConn = sc.remoteConn;
        header->createdAt = queue.now();
        header->seq = sc.nextSeq++;
        header->msgId = msg_id;
        header->msgBytes = size;
        header->msgOffset = offset;
        header->frameBytes = chunk;
        header->vc = vc;
        header->trace = ctx;
        header->traceEndsFlow = ends_flow;
        offset += chunk;
        if (offset >= size)
            header->appPayload = std::move(payload);
        sc.sendQueue.push_back(PendingFrame{std::move(header), queue.now()});
    }
    pumpSend(conn);
}

net::PacketPtr
LtlEngine::buildPacket(const SendConnection &sc,
                       const LtlHeaderPtr &header) const
{
    auto pkt = net::makePacket();
    pkt->ipSrc = cfg.localIp;
    pkt->ipDst = sc.remoteIp;
    pkt->ipProto = net::IpProto::kUdp;
    pkt->srcPort = cfg.udpPort;
    pkt->dstPort = cfg.udpPort;
    pkt->priority = cfg.trafficClass;
    pkt->ecnCapable = true;
    pkt->payloadBytes = kLtlHeaderBytes + header->frameBytes;
    pkt->meta = header;
    pkt->createdAt = queue.now();
    pkt->trace = header->trace;
    return pkt;
}

void
LtlEngine::pumpSend(std::uint16_t conn)
{
    SendConnection &sc = sendConn(conn);
    const sim::TimePs now = queue.now();
    while (!sc.sendQueue.empty() &&
           sc.unacked.size() < cfg.sendWindowFrames &&
           sc.unackedBytes < cfg.unackedStoreBytes) {
        if (sc.nextSendTime > now) {
            // Pacing: resume when the token interval elapses.
            if (sc.pumpEvent == sim::kNoEvent) {
                sc.pumpEvent =
                    queue.schedule(sc.nextSendTime, [this, conn] {
                        sendTable[conn].pumpEvent = sim::kNoEvent;
                        if (sendTable[conn].valid)
                            pumpSend(conn);
                    });
            }
            return;
        }
        LtlHeaderPtr header = sc.sendQueue.front().header;
        const sim::TimePs queued_at = sc.sendQueue.front().queuedAt;
        sc.sendQueue.pop_front();
        if (header->trace.sampled && obsHub && queued_at < now) {
            // Time spent waiting for the send window / pacing tokens.
            obsHub->flows.recordSpan(header->trace, obsPrefix + ".window",
                                     obs::Component::kCongestionWindow,
                                     queued_at, now);
        }

        UnackedFrame uf;
        uf.header = header;
        uf.firstSentAt = now;
        uf.lastSentAt = now;
        sc.unacked.push_back(uf);
        sc.unackedBytes += header->frameBytes;
        ++inFlightFrames;

        transmitFrame(sc, header, false);

        // Token-bucket pacing at the effective (DC-QCN) rate.
        const double rate = effectiveRateGbps(sc);
        const std::uint32_t wire_bytes =
            kLtlHeaderBytes + header->frameBytes + 46;  // L2-4 overheads
        const sim::TimePs interval =
            sim::serializationDelay(wire_bytes, rate);
        sc.nextSendTime = std::max(sc.nextSendTime, now) + interval;
    }
    armTimeout(conn);
}

void
LtlEngine::transmitFrame(SendConnection &sc, const LtlHeaderPtr &header,
                         bool is_retransmit)
{
    auto pkt = buildPacket(sc, header);
    if (is_retransmit) {
        ++statRetransmits;
        if (obsHub && obsHub->trace.enabled())
            obsHub->trace.instant(obsTrack, "ltl", obsPrefix + ".retransmit",
                                  queue.now());
    } else {
        ++statFramesSent;
    }
    if (header->trace.sampled && obsHub) {
        // Packetizer + MAC egress occupancy.
        obsHub->flows.recordSpan(header->trace, obsPrefix + ".tx",
                                 obs::Component::kCompute, queue.now(),
                                 queue.now() + cfg.txPathDelay);
    }
    queue.scheduleAfter(cfg.txPathDelay,
                        [this, pkt] { networkTx(pkt); });
}

void
LtlEngine::armTimeout(std::uint16_t conn)
{
    SendConnection &sc = sendTable[conn];
    if (!sc.valid || sc.unacked.empty() || sc.timeoutEvent != sim::kNoEvent)
        return;
    const sim::TimePs deadline =
        sc.unacked.front().lastSentAt + cfg.retransmitTimeout;
    sc.timeoutEvent = queue.schedule(
        std::max(deadline, queue.now()), [this, conn] {
            sendTable[conn].timeoutEvent = sim::kNoEvent;
            if (sendTable[conn].valid)
                onTimeout(conn);
        });
}

void
LtlEngine::onTimeout(std::uint16_t conn)
{
    SendConnection &sc = sendTable[conn];
    if (sc.unacked.empty())
        return;
    const sim::TimePs now = queue.now();
    if (sc.unacked.front().lastSentAt + cfg.retransmitTimeout > now) {
        // Newer transmission moved the deadline; re-arm.
        armTimeout(conn);
        return;
    }
    ++statTimeouts;
    ++sc.consecutiveTimeouts;
    if (obsHub && obsHub->trace.enabled())
        obsHub->trace.instant(obsTrack, "ltl", obsPrefix + ".timeout", now);
    if (onTimeoutStreak)
        onTimeoutStreak(conn, sc.consecutiveTimeouts, sc.remoteIp);
    if (sc.consecutiveTimeouts > cfg.maxRetries) {
        failConnection(conn, "retry exhaustion");
        return;
    }
    // Go-back-N: retransmit every unacknowledged frame.
    for (auto &uf : sc.unacked) {
        if (uf.header->trace.sampled && obsHub) {
            // The whole wait since the lost copy went out is retransmit
            // time; kRetransmit outranks every other component in the
            // attribution sweep so it can never inflate `queueing`.
            obsHub->flows.recordSpan(uf.header->trace,
                                     obsPrefix + ".retransmit",
                                     obs::Component::kRetransmit,
                                     uf.lastSentAt, now);
        }
        uf.retransmitted = true;
        uf.lastSentAt = now;
        transmitFrame(sc, uf.header, true);
    }
    armTimeout(conn);
}

void
LtlEngine::failConnection(std::uint16_t conn, const char *why)
{
    SendConnection &sc = sendTable[conn];
    if (!sc.valid || sc.failed)
        return;
    sc.failed = true;
    ++statConnFailures;
    if (sc.timeoutEvent != sim::kNoEvent) {
        queue.cancel(sc.timeoutEvent);
        sc.timeoutEvent = sim::kNoEvent;
    }
    if (sc.pumpEvent != sim::kNoEvent) {
        queue.cancel(sc.pumpEvent);
        sc.pumpEvent = sim::kNoEvent;
    }
    abandonSendState(sc);  // nothing will ever be ACKed now
    CCSIM_LOG(sim::LogLevel::kWarn, "ltl", queue.now(), cfg.localIp.str(),
              " connection ", conn, " to ", sc.remoteIp.str(),
              " connection ", sc.remoteConn, " failed: ", why);
    if (obsHub && obsHub->trace.enabled())
        obsHub->trace.instant(obsTrack, "ltl", obsPrefix + ".conn_failed",
                              queue.now());
    if (onFailure)
        onFailure(conn);
    if (qState == QuiesceState::kDraining)
        maybeFinishDrain();  // a dead conn no longer blocks the drain
}

bool
LtlEngine::allDrained() const
{
    for (std::size_t i = 0; i < sendTable.size(); ++i) {
        if (holdsFrames(sendTable[i]))
            return false;
    }
    return true;
}

void
LtlEngine::maybeFinishDrain()
{
    if (qState != QuiesceState::kDraining || !allDrained())
        return;
    if (drainDeadlineEvent != sim::kNoEvent) {
        queue.cancel(drainDeadlineEvent);
        drainDeadlineEvent = sim::kNoEvent;
    }
    finishQuiesce();
}

void
LtlEngine::finishQuiesce()
{
    qState = QuiesceState::kQuiesced;
    CCSIM_LOG(sim::LogLevel::kInfo, "ltl", queue.now(), "engine quiesced");
    if (obsHub && obsHub->trace.enabled())
        obsHub->trace.instant(obsTrack, "ltl", obsPrefix + ".quiesced",
                              queue.now());
    auto cb = std::move(drainedCb);
    drainedCb = {};
    if (cb)
        cb();
}

void
LtlEngine::beginQuiesce(sim::TimePs drain_timeout,
                        std::function<void()> drained)
{
    if (qState == QuiesceState::kQuiesced) {
        if (drained)
            drained();  // already there
        return;
    }
    if (qState == QuiesceState::kDraining)
        sim::fatal("LtlEngine::beginQuiesce: a drain is already in "
                   "progress (one quiesce initiator at a time)");
    if (drain_timeout <= 0)
        sim::fatal("LtlEngine::beginQuiesce: drain_timeout must be "
                   "positive");
    ++statQuiesces;
    qState = QuiesceState::kDraining;
    drainedCb = std::move(drained);
    if (allDrained()) {
        finishQuiesce();
        return;
    }
    drainDeadlineEvent = queue.scheduleAfter(drain_timeout, [this] {
        drainDeadlineEvent = sim::kNoEvent;
        // Drain deadline: write off whatever refuses to complete so
        // reconfiguration is never held hostage by a dead peer.
        for (std::size_t i = 0; i < sendTable.size(); ++i) {
            if (holdsFrames(sendTable[i]))
                abandonSendState(sendTable[i]);
        }
        finishQuiesce();
    });
}

void
LtlEngine::endQuiesce()
{
    if (qState == QuiesceState::kDraining) {
        // Aborting an unfinished drain: keep the leftovers, drop the
        // pending deadline and completion callback.
        if (drainDeadlineEvent != sim::kNoEvent) {
            queue.cancel(drainDeadlineEvent);
            drainDeadlineEvent = sim::kNoEvent;
        }
        drainedCb = {};
    }
    qState = QuiesceState::kActive;
}

void
LtlEngine::resyncSend(std::uint16_t conn)
{
    SendConnection &sc = sendConn(conn);
    if (sc.timeoutEvent != sim::kNoEvent) {
        queue.cancel(sc.timeoutEvent);
        sc.timeoutEvent = sim::kNoEvent;
    }
    if (sc.pumpEvent != sim::kNoEvent) {
        queue.cancel(sc.pumpEvent);
        sc.pumpEvent = sim::kNoEvent;
    }
    abandonSendState(sc);
    sc.failed = false;
    sc.consecutiveTimeouts = 0;
    sc.nextSeq = 0;
    sc.nextSendTime = 0;
}

void
LtlEngine::resyncReceive(std::uint16_t conn)
{
    ReceiveConnection &rc = recvConn(conn);
    rc.expectedSeq = 0;
    rc.lastNackSeq = UINT32_MAX;
}

void
LtlEngine::handleAck(std::uint16_t conn, std::uint32_t ack_seq, bool is_nack)
{
    if (conn >= sendTable.size() || !sendTable[conn].valid ||
        sendTable[conn].failed)
        return;  // stale ACK for a closed or failed connection
    SendConnection &sc = sendTable[conn];
    const sim::TimePs now = queue.now();

    bool progressed = false;
    while (!sc.unacked.empty() && sc.unacked.front().header->seq < ack_seq) {
        const UnackedFrame &uf = sc.unacked.front();
        const LtlHeader &h = *uf.header;
        if (h.trace.sampled && h.traceEndsFlow && obsHub &&
            h.msgOffset + h.frameBytes >= h.msgBytes) {
            // The message's last frame is now cumulatively acknowledged:
            // the engine-begun flow is complete.
            obsHub->flows.endFlow(h.trace, now);
        }
        if (!uf.retransmitted) {
            // Karn's rule: only un-retransmitted frames give RTT samples.
            const double rtt_us = sim::toMicros(now - uf.firstSentAt);
            statRtt.add(rtt_us);
            if (rttObserver)
                rttObserver(rtt_us);
            if (obsRttHist)
                obsRttHist->add(rtt_us);
        }
        sc.unackedBytes -= uf.header->frameBytes;
        sc.unacked.pop_front();
        --inFlightFrames;
        ++statFramesAcked;
        progressed = true;
    }
    if (progressed) {
        sc.consecutiveTimeouts = 0;
        if (sc.timeoutEvent != sim::kNoEvent) {
            queue.cancel(sc.timeoutEvent);
            sc.timeoutEvent = sim::kNoEvent;
        }
    }
    if (is_nack) {
        // Fast retransmit from the requested sequence (go-back-N).
        for (auto &uf : sc.unacked) {
            if (uf.header->seq >= ack_seq) {
                if (uf.header->trace.sampled && obsHub) {
                    obsHub->flows.recordSpan(uf.header->trace,
                                             obsPrefix + ".retransmit",
                                             obs::Component::kRetransmit,
                                             uf.lastSentAt, now);
                }
                uf.retransmitted = true;
                uf.lastSentAt = now;
                transmitFrame(sc, uf.header, true);
            }
        }
    }
    armTimeout(conn);
    pumpSend(conn);
    if (progressed && qState == QuiesceState::kDraining)
        maybeFinishDrain();
}

void
LtlEngine::sendControl(net::Ipv4Addr to, std::uint16_t dst_conn,
                       std::uint8_t flags, std::uint32_t ack_seq,
                       sim::TimePs delay, obs::TraceContext ctx)
{
    auto header = sim::makePooled<LtlHeader>();
    header->flags = flags;
    header->dstConn = dst_conn;
    header->ackSeq = ack_seq;
    header->trace = ctx;

    auto pkt = net::makePacket();
    pkt->ipSrc = cfg.localIp;
    pkt->ipDst = to;
    pkt->ipProto = net::IpProto::kUdp;
    pkt->srcPort = cfg.udpPort;
    pkt->dstPort = cfg.udpPort;
    pkt->priority = cfg.trafficClass;
    pkt->payloadBytes = kLtlHeaderBytes;
    pkt->meta = header;
    pkt->createdAt = queue.now();
    pkt->trace = ctx;
    if (ctx.sampled && obsHub) {
        // ACK/NACK/CNP generation + egress occupancy on the reply path.
        obsHub->flows.recordSpan(ctx, obsPrefix + ".ctrl_tx",
                                 obs::Component::kCompute, queue.now(),
                                 queue.now() + delay + cfg.txPathDelay);
    }
    queue.scheduleAfter(delay + cfg.txPathDelay,
                        [this, pkt] { networkTx(pkt); });
}

void
LtlEngine::onNetworkPacket(const net::PacketPtr &pkt)
{
    if (pkt->trace.sampled && obsHub) {
        // MAC ingress + depacketizer occupancy.
        obsHub->flows.recordSpan(pkt->trace, obsPrefix + ".rx",
                                 obs::Component::kCompute, queue.now(),
                                 queue.now() + cfg.rxPathDelay);
    }
    queue.scheduleAfter(cfg.rxPathDelay, [this, pkt] {
        auto header = std::static_pointer_cast<LtlHeader>(pkt->meta);
        if (!header) {
            CCSIM_LOG(sim::LogLevel::kWarn, "ltl", queue.now(),
                      "non-LTL packet on LTL port");
            return;
        }
        if (header->flags & kFlagCnp) {
            ++statCnpsReceived;
            if (header->dstConn < sendTable.size() &&
                sendTable[header->dstConn].valid &&
                sendTable[header->dstConn].dcqcn) {
                SendConnection &sc = sendTable[header->dstConn];
                sc.dcqcn->onCongestionNotification();
                if (obsHub && obsHub->trace.enabled()) {
                    // Record the post-cut DC-QCN rate as a counter series.
                    obsHub->trace.counter(
                        "ltl",
                        obsPrefix + ".conn" +
                            std::to_string(header->dstConn) + ".rate_gbps",
                        queue.now(), effectiveRateGbps(sc));
                }
            }
            return;
        }
        if (header->flags & kFlagReject) {
            // The peer is quiesced for reconfiguration: fail this send
            // connection now instead of waiting out the retry budget.
            ++statRejectsReceived;
            if (header->dstConn < sendTable.size() &&
                sendTable[header->dstConn].valid)
                failConnection(header->dstConn, "rejected by peer");
            return;
        }
        if (header->flags & (kFlagAck | kFlagNack)) {
            handleAck(header->dstConn, header->ackSeq,
                      header->flags & kFlagNack);
            return;
        }
        if (header->flags & kFlagData) {
            handleData(pkt, header);
        }
    });
}

void
LtlEngine::handleData(const net::PacketPtr &pkt, const LtlHeaderPtr &header)
{
    if (header->dstConn >= recvTable.size() ||
        !recvTable[header->dstConn].valid) {
        CCSIM_LOG(sim::LogLevel::kDebug, "ltl", queue.now(),
                  "data frame for invalid receive connection ",
                  header->dstConn);
        return;
    }
    ReceiveConnection &rc = recvTable[header->dstConn];
    const net::Ipv4Addr sender_ip = pkt->ipSrc;
    const std::uint16_t sender_conn = header->srcConn;

    if (qState == QuiesceState::kQuiesced) {
        // Mid-reconfiguration: answer with an administrative reject so
        // the sender is not black-holed into 16 blind retransmissions.
        ++statRejectsSent;
        sendControl(sender_ip, sender_conn, kFlagReject, 0,
                    cfg.ackGenDelay, header->trace);
        return;
    }

    // DC-QCN notification point: reflect ECN marks as CNPs (rate-limited).
    if (pkt->ecnMarked &&
        queue.now() - rc.lastCnpAt >= cfg.cnpMinInterval) {
        rc.lastCnpAt = queue.now();
        ++statCnpsSent;
        sendControl(sender_ip, sender_conn, kFlagCnp, 0, 0,
                    header->trace);
    }

    if (header->seq == rc.expectedSeq) {
        rc.expectedSeq += 1;
        rc.lastNackSeq = UINT32_MAX;
        // Deliver the completed message when its final frame arrives.
        if (header->msgOffset + header->frameBytes >= header->msgBytes) {
            ++statDelivered;
            if (obsHub && obsHub->trace.enabled()) {
                // One span per delivered message: send-side header
                // generation through receive-side delivery.
                obsHub->trace.complete(obsTrack, "ltl", obsPrefix + ".msg",
                                       header->createdAt,
                                       queue.now() - header->createdAt);
            }
            if (deliver) {
                LtlMessage msg;
                msg.conn = header->dstConn;
                msg.msgId = header->msgId;
                msg.bytes = header->msgBytes;
                msg.vc = rc.vc;
                msg.payload = header->appPayload;
                msg.sentAt = header->createdAt;
                msg.trace = header->trace;
                deliver(msg);
            }
        }
        // Cumulative ACK after the Ack Generation latency.
        ++statAcksSent;
        sendControl(sender_ip, sender_conn, kFlagAck, rc.expectedSeq,
                    cfg.ackGenDelay, header->trace);
    } else if (header->seq > rc.expectedSeq) {
        // Gap: packet loss or reorder. NACK once per gap.
        ++statOutOfOrder;
        if (cfg.enableNack && rc.lastNackSeq != rc.expectedSeq) {
            rc.lastNackSeq = rc.expectedSeq;
            ++statNacksSent;
            if (obsHub && obsHub->trace.enabled())
                obsHub->trace.instant(obsTrack, "ltl", obsPrefix + ".nack",
                                      queue.now());
            sendControl(sender_ip, sender_conn, kFlagNack, rc.expectedSeq,
                        cfg.ackGenDelay, header->trace);
        }
    } else {
        // Duplicate (e.g. a retransmission raced the original): re-ACK.
        ++statDuplicates;
        ++statAcksSent;
        sendControl(sender_ip, sender_conn, kFlagAck, rc.expectedSeq,
                    cfg.ackGenDelay, header->trace);
    }
}

}  // namespace ccsim::ltl
