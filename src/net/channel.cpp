#include "net/channel.hpp"

#include <algorithm>

#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::net {

Channel::Channel(sim::EventQueue &eq, std::string name, double rate_gbps,
                 sim::TimePs prop_delay, std::uint32_t queue_cap_bytes)
    : queue(eq), label(std::move(name)), gbps(rate_gbps),
      propDelay(prop_delay), queueCapBytes(queue_cap_bytes)
{
    if (gbps <= 0.0)
        sim::panic("Channel: rate must be positive");
}

void
Channel::removeFluidBps(std::uint64_t bps)
{
    if (bps > fluidRateBps)
        sim::panic("Channel: fluid rate underflow (remove without add)");
    fluidRateBps -= bps;
}

double
Channel::effectiveGbps() const
{
    // Residual line rate after the fluid aggregate, floored at 5% so an
    // over-subscribed channel slows packets down rather than stalling.
    const double line_bps = gbps * 1e9;
    const double residual = line_bps - static_cast<double>(fluidRateBps);
    return std::max(residual, 0.05 * line_bps) / 1e9;
}

Channel::PriorityState &
Channel::priorityState()
{
    if (!prioState)
        prioState = std::make_unique<PriorityState>();
    return *prioState;
}

bool
Channel::send(const PacketPtr &pkt, TxReleaseListener *release, int port)
{
    const std::uint8_t prio = pkt->isPfc() ? 7 : pkt->priority;
    const std::uint32_t wire = pkt->wireBytes();
    PriorityState &ps = priorityState();
    // PFC control frames are never dropped and jump to the control queue
    // (priority 7 is reserved for control in our configuration).
    if (!pkt->isPfc() && ps.queueBytes[prio] + wire > queueCapBytes) {
        ++drops;
        CCSIM_LOG(sim::LogLevel::kDebug, label, queue.now(),
                  "tx queue full, dropping packet ", pkt->id, " prio ",
                  int(prio));
        return false;
    }
    TxEntry entry{pkt, release, port};
    if (pkt->trace.sampled && flowRec) {
        entry.enqueuedAt = queue.now();
        entry.pauseBase = pausedTimeNow(prio);
    }
    ps.txQueues[prio].push_back(std::move(entry));
    ps.queueBytes[prio] += wire;
    tryTransmit();
    return true;
}

sim::TimePs
Channel::pausedTimeNow(std::uint8_t priority) const
{
    const PauseClock &pc = prioState->pauseClock[priority];
    const sim::TimePs now = queue.now();
    const sim::TimePs cur = std::min(pc.curEnd, now) - pc.curStart;
    return pc.accum + (cur > 0 ? cur : 0);
}

void
Channel::pausePriority(std::uint8_t priority, sim::TimePs duration)
{
    ++pauses;
    const sim::TimePs now = queue.now();
    // Fold the elapsed part of any current pause into the clock, then
    // start the new interval (zero duration = X-ON, closes it).
    PriorityState &ps = priorityState();
    PauseClock &pc = ps.pauseClock[priority];
    const sim::TimePs cur = std::min(pc.curEnd, now) - pc.curStart;
    pc.accum += cur > 0 ? cur : 0;
    pc.curStart = now;
    pc.curEnd = duration > 0 ? now + duration : now;
    ps.pausedUntil[priority] = duration > 0 ? now + duration : 0;
    if (duration == 0) {
        tryTransmit();
    }
}

int
Channel::pickQueue() const
{
    // Strict priority, highest first; PFC control traffic (7) always wins.
    const sim::TimePs now = queue.now();
    for (int prio = kNumTrafficClasses - 1; prio >= 0; --prio) {
        if (prioState->txQueues[prio].empty())
            continue;
        const bool is_ctrl = prioState->txQueues[prio].front().pkt->isPfc();
        if (!is_ctrl && prioState->pausedUntil[prio] > now)
            continue;
        return prio;
    }
    return -1;
}

sim::TimePs
Channel::earliestUnpause() const
{
    sim::TimePs t = sim::kTimeNever;
    const sim::TimePs now = queue.now();
    for (int prio = 0; prio < kNumTrafficClasses; ++prio) {
        if (!prioState->txQueues[prio].empty() &&
            prioState->pausedUntil[prio] > now)
            t = std::min(t, prioState->pausedUntil[prio]);
    }
    return t;
}

void
Channel::tryTransmit()
{
    if (transmitting)
        return;
    const int prio = pickQueue();
    if (prio < 0) {
        // Everything pending is paused; re-arm at the earliest unpause.
        const sim::TimePs when = earliestUnpause();
        if (when != sim::kTimeNever && resumeEvent == sim::kNoEvent) {
            resumeEvent = queue.schedule(when, [this] {
                resumeEvent = sim::kNoEvent;
                tryTransmit();
            });
        }
        return;
    }
    TxEntry entry = std::move(prioState->txQueues[prio].front());
    prioState->txQueues[prio].pop_front();
    prioState->queueBytes[prio] -= entry.pkt->wireBytes();
    transmitting = true;
    // With no fluid load the serialization rate is the configured gbps
    // *by the same expression as always*, keeping legacy runs
    // byte-identical; fluid load shifts it to the residual rate.
    const sim::TimePs ser = sim::serializationDelay(
        entry.pkt->wireBytes(),
        fluidRateBps == 0 ? gbps : effectiveGbps());
    if (entry.pkt->trace.sampled && flowRec) {
        // Split the queue wait into true queueing and PFC pause (the
        // pause-clock delta, clamped to the wait, placed at its end),
        // then the serialization occupancy.
        const sim::TimePs now = queue.now();
        const sim::TimePs wait = now - entry.enqueuedAt;
        sim::TimePs pause =
            pausedTimeNow(static_cast<std::uint8_t>(prio)) - entry.pauseBase;
        pause = pause < 0 ? 0 : (pause > wait ? wait : pause);
        const sim::TimePs queued = wait - pause;
        if (queued > 0)
            flowRec->recordSpan(entry.pkt->trace, label + ".q",
                                obs::Component::kQueueing, entry.enqueuedAt,
                                entry.enqueuedAt + queued);
        if (pause > 0)
            flowRec->recordSpan(entry.pkt->trace, label + ".pfc",
                                obs::Component::kPfcPause,
                                entry.enqueuedAt + queued, now);
        flowRec->recordSpan(entry.pkt->trace, label,
                            obs::Component::kSerialization, now, now + ser);
    }
    // Every packet takes this path: the completion must stay inline.
    static_assert(sizeof(TxEntry) + sizeof(this) <= sim::EventFn::kInlineSize);
    queue.scheduleAfter(ser, [this, e = std::move(entry)]() mutable {
        finishTransmit(std::move(e));
    });
}

void
Channel::finishTransmit(TxEntry entry)
{
    txBytes += entry.pkt->wireBytes();
    transmitting = false;
    // Fault model: a cut cable or corrupted-on-the-wire frame fails CRC
    // at the receiving MAC and is dropped there. The transmitter never
    // learns — ingress accounting (the release hook) proceeds as normal.
    const bool lost =
        adminDown ||
        (faultHook && !entry.pkt->isPfc() && faultHook(entry.pkt));
    if (lost) {
        ++faultDropped;
        CCSIM_LOG(sim::LogLevel::kDebug, label, queue.now(),
                  "fault drop of packet ", entry.pkt->id,
                  adminDown ? " (link down)" : " (corrupted)");
    } else if (sink) {
        // Gray-fault latency inflation rides on top of propagation; it
        // only ever adds, so cross-shard lookahead is unaffected.
        const sim::TimePs prop = propDelay + extraDelay;
        if (entry.pkt->trace.sampled && flowRec && prop > 0)
            flowRec->recordSpan(entry.pkt->trace, label,
                                obs::Component::kPropagation, queue.now(),
                                queue.now() + prop);
        if (crossShard) {
            // Partition boundary: everything up to here ran on the
            // sender's partition; only the in-flight hop crosses, and
            // its delay >= the sync window keeps the delivery outside
            // the current barrier window (conservative lookahead).
            crossShard->postCross(crossSrc, crossDst, queue.now() + prop,
                                  [this, pkt = entry.pkt] {
                                      sink->acceptPacket(pkt);
                                  });
        } else {
            queue.scheduleAfter(prop, [this, pkt = entry.pkt] {
                sink->acceptPacket(pkt);
            });
        }
    }
    if (entry.release)
        entry.release->releaseTx(entry.releasePort, *entry.pkt);
    tryTransmit();
}

void
Channel::setCrossShardDelivery(sim::ShardedEventQueue *sq, int src_lp,
                               int dst_lp)
{
    crossShard = sq;
    crossSrc = src_lp;
    crossDst = dst_lp;
}

Link::Link(sim::EventQueue &eq, std::string name, double gbps,
           double length_meters, std::uint32_t queue_cap_bytes)
    : Link(eq, eq, std::move(name), gbps, length_meters, queue_cap_bytes)
{
}

Link::Link(sim::EventQueue &eq_a, sim::EventQueue &eq_b, std::string name,
           double gbps, double length_meters, std::uint32_t queue_cap_bytes)
{
    const sim::TimePs prop = sim::propagationDelay(length_meters);
    ab = std::make_unique<Channel>(eq_a, name + ".ab", gbps, prop,
                                   queue_cap_bytes);
    ba = std::make_unique<Channel>(eq_b, name + ".ba", gbps, prop,
                                   queue_cap_bytes);
    // PFC received at end A throttles A's transmitter (the ab channel).
    // Both shims live on their own end's queue: shimA runs inside
    // B-to-A delivery events (A's partition) and touches only ab.
    shimA = std::make_unique<PfcShim>(ab.get());
    shimB = std::make_unique<PfcShim>(ba.get());
    ba->setSink(shimA.get());  // traffic toward A passes through A's shim
    ab->setSink(shimB.get());
}

void
Link::setCrossShard(sim::ShardedEventQueue &sq, int lp_a, int lp_b)
{
    sq.registerCrossEdge(lp_a, lp_b, ab->propagationDelay());
    sq.registerCrossEdge(lp_b, lp_a, ba->propagationDelay());
    ab->setCrossShardDelivery(&sq, lp_a, lp_b);
    ba->setCrossShardDelivery(&sq, lp_b, lp_a);
}

void
Link::attachA(PacketSink *a)
{
    shimA->setInner(a);
}

void
Link::attachB(PacketSink *b)
{
    shimB->setInner(b);
}

void
Link::PfcShim::acceptPacket(const PacketPtr &pkt)
{
    if (pkt->isPfc()) {
        const PfcFrame &pfc = pkt->pfc();
        for (int prio = 0; prio < kNumTrafficClasses; ++prio) {
            if (pfc.priorityMask & (1u << prio))
                reverseTx->pausePriority(static_cast<std::uint8_t>(prio),
                                         pfc.pauseTime[prio]);
        }
        return;  // PFC is consumed at the MAC; not delivered upward
    }
    if (inner)
        inner->acceptPacket(pkt);
}

}  // namespace ccsim::net
