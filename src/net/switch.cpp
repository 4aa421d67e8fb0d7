#include "net/switch.hpp"

#include "sim/logging.hpp"

namespace ccsim::net {

Switch::Switch(sim::EventQueue &eq, SwitchConfig cfg)
    : queue(eq), config(std::move(cfg)), rng(config.seed)
{
    if (config.pfcXonBytes > config.pfcXoffBytes)
        sim::fatal("Switch: PFC X-ON threshold must not exceed X-OFF");
}

int
Switch::addPort(Channel *tx)
{
    auto port = std::make_unique<Port>();
    port->tx = tx;
    const int index = static_cast<int>(ports.size());
    port->sink = std::make_unique<PortSink>(this, index);
    ports.push_back(std::move(port));
    return index;
}

PacketSink *
Switch::portSink(int port)
{
    return ports.at(port)->sink.get();
}

void
Switch::addRoute(Ipv4Addr dst, int prefix_len, int port)
{
    if (prefix_len < 0 || prefix_len > 32)
        sim::fatal("Switch::addRoute: bad prefix length");
    if (prefix_len == 32) {
        addHostRoute(dst, port);
        return;
    }
    const std::uint32_t mask =
        prefix_len == 0 ? 0 : ~0u << (32 - prefix_len);
    for (auto &r : prefixRoutes) {
        if (r.mask == mask && r.prefix == (dst.value & mask)) {
            r.ports.push_back(port);
            return;
        }
    }
    prefixRoutes.push_back(PrefixRoute{dst.value & mask, mask, prefix_len,
                                       {port}});
    // Longest prefix first.
    std::sort(prefixRoutes.begin(), prefixRoutes.end(),
              [](const PrefixRoute &a, const PrefixRoute &b) {
                  return a.len > b.len;
              });
}

void
Switch::addHostRoute(Ipv4Addr dst, int port)
{
    hostRoutes[dst].push_back(port);
}

void
Switch::setDefaultRoutes(std::vector<int> out_ports)
{
    defaultRoutes = std::move(out_ports);
}

void
Switch::attachObservability(obs::Observability *o)
{
    obsHub = o;
    if (!o)
        return;
    obsPrefix = "switch." + config.name;
    obsTrack = o->trace.track(obsPrefix);
}

static_assert(Switch::kProbeLeaves.size() == 6 + kNumTrafficClasses);

double
Switch::probeValue(std::size_t leaf) const
{
    switch (leaf) {
    case 0: return double(forwarded);
    case 1: return double(dropped);
    case 2: return double(ecnMarked);
    case 3: return double(pfcSent);
    case 4: return double(noRoute);
    case 5: return double(brownoutDropped);
    default: return double(egressQueuedBytes(std::uint8_t(leaf - 6)));
    }
}

std::uint64_t
Switch::egressQueuedBytes(std::uint8_t prio) const
{
    std::uint64_t bytes = 0;
    for (const auto &port : ports)
        if (port->tx)
            bytes += port->tx->queuedBytes(prio);
    return bytes;
}

void
Switch::setBrownout(double drop_prob, bool force_ecn)
{
    if (drop_prob < 0.0 || drop_prob > 1.0)
        sim::fatal("Switch::setBrownout: drop probability must be in "
                   "[0, 1]");
    brownoutDropProb = drop_prob;
    brownoutForceEcn = force_ecn;
}

int
Switch::lookupRoute(const PacketPtr &pkt) const
{
    auto pick = [&](const std::vector<int> &candidates) {
        if (candidates.size() == 1)
            return candidates[0];
        return candidates[pkt->flowHash() % candidates.size()];
    };
    if (auto it = hostRoutes.find(pkt->ipDst); it != hostRoutes.end())
        return pick(it->second);
    for (const auto &r : prefixRoutes) {
        if ((pkt->ipDst.value & r.mask) == r.prefix)
            return pick(r.ports);
    }
    if (!defaultRoutes.empty())
        return pick(defaultRoutes);
    return -1;
}

void
Switch::handlePacket(int in_port, const PacketPtr &pkt)
{
    // Brown-out: the frame dies at the ingress MAC, before any
    // accounting — indistinguishable from wire corruption. The RNG is
    // only consulted while a brown-out is active so that fault-free runs
    // stay bit-identical to runs built without the injector.
    if (brownoutDropProb > 0.0 && rng.bernoulli(brownoutDropProb)) {
        ++dropped;
        ++brownoutDropped;
        return;
    }
    const int out_port = lookupRoute(pkt);
    if (out_port < 0) {
        ++noRoute;
        ++dropped;
        CCSIM_LOG(sim::LogLevel::kDebug, config.name, queue.now(),
                  "no route for ", pkt->ipDst.str());
        return;
    }
    const std::uint8_t prio = pkt->priority;
    if (isLossless(prio)) {
        accountIngress(in_port, prio,
                       static_cast<std::int64_t>(pkt->wireBytes()));
        maybeSendXoff(in_port, prio);
    }
    sim::TimePs delay = config.forwardingLatency;
    if (config.jitter)
        delay += config.jitter->sample(rng);
    // Clamp so jitter cannot reorder packets of one ingress stream.
    Port &port = *ports[in_port];
    sim::TimePs when = queue.now() + delay;
    if (when < port.lastForwardAt)
        when = port.lastForwardAt;
    port.lastForwardAt = when;
    if (pkt->trace.sampled && obsHub) {
        // Pipeline occupancy from ingress to the egress-queue handoff.
        obsHub->flows.recordSpan(pkt->trace, obsPrefix,
                                 obs::Component::kCompute, queue.now(),
                                 when);
    }
    queue.schedule(when, [this, in_port, out_port, pkt] {
        forward(in_port, out_port, pkt);
    });
}

void
Switch::forward(int in_port, int out_port, const PacketPtr &pkt)
{
    Channel *tx = ports[out_port]->tx;
    if (tx == nullptr) {
        ++dropped;
        return;
    }
    const std::uint8_t prio = pkt->priority;

    // ECN: mark ECT packets when the egress queue has built up (or
    // unconditionally during an injected ECN storm).
    if (pkt->ecnCapable && !pkt->ecnMarked &&
        (brownoutForceEcn ||
         tx->queuedBytes(prio) > config.ecnThresholdBytes)) {
        pkt->ecnMarked = true;
        ++ecnMarked;
        if (obsHub && obsHub->trace.enabled())
            obsHub->trace.instant(obsTrack, "switch",
                                  obsPrefix + ".ecn_mark", queue.now());
    }

    const bool ok =
        tx->send(pkt, isLossless(prio) ? this : nullptr, in_port);
    if (!ok) {
        ++dropped;
        if (isLossless(prio)) {
            // A lossless-class drop indicates mis-tuned PFC thresholds;
            // release the ingress accounting so we do not wedge.
            accountIngress(in_port, prio,
                           -static_cast<std::int64_t>(pkt->wireBytes()));
            CCSIM_LOG(sim::LogLevel::kWarn, config.name, queue.now(),
                      "lossless-class drop (PFC thresholds too lax?)");
        }
    } else {
        ++forwarded;
    }
}

void
Switch::releaseTx(int in_port, const Packet &pkt)
{
    accountIngress(in_port, pkt.priority,
                   -static_cast<std::int64_t>(pkt.wireBytes()));
}

void
Switch::accountIngress(int in_port, std::uint8_t prio, std::int64_t delta)
{
    auto &bytes = ports[in_port]->ingressBytes[prio];
    const std::int64_t updated = static_cast<std::int64_t>(bytes) + delta;
    bytes = updated < 0 ? 0 : static_cast<std::uint32_t>(updated);
    if (ports[in_port]->xoffSent[prio] && bytes <= config.pfcXonBytes) {
        // Resume the upstream transmitter promptly (X-ON).
        ports[in_port]->xoffSent[prio] = false;
        if (ports[in_port]->tx) {
            ports[in_port]->tx->send(makePfcPause(prio, 0));
            ++pfcSent;
            if (obsHub && obsHub->trace.enabled())
                obsHub->trace.instant(obsTrack, "switch",
                                      obsPrefix + ".pfc_xon", queue.now());
        }
    }
}

void
Switch::maybeSendXoff(int in_port, std::uint8_t prio)
{
    Port &port = *ports[in_port];
    if (port.xoffSent[prio] || port.ingressBytes[prio] < config.pfcXoffBytes)
        return;
    if (!port.tx)
        return;
    port.xoffSent[prio] = true;
    port.tx->send(makePfcPause(prio, config.pfcPauseTime));
    ++pfcSent;
    if (obsHub && obsHub->trace.enabled())
        obsHub->trace.instant(obsTrack, "switch", obsPrefix + ".pfc_xoff",
                              queue.now());
    refreshPfc(in_port, prio);
}

void
Switch::refreshPfc(int in_port, std::uint8_t prio)
{
    // Re-issue the pause before it expires while congestion persists.
    const sim::TimePs refresh = config.pfcPauseTime * 3 / 4;
    queue.scheduleAfter(refresh, [this, in_port, prio] {
        Port &port = *ports[in_port];
        if (!port.xoffSent[prio])
            return;  // already resumed via X-ON
        if (port.ingressBytes[prio] > config.pfcXonBytes) {
            port.tx->send(makePfcPause(prio, config.pfcPauseTime));
            ++pfcSent;
            refreshPfc(in_port, prio);
        } else {
            port.xoffSent[prio] = false;
            port.tx->send(makePfcPause(prio, 0));
            ++pfcSent;
        }
    });
}

}  // namespace ccsim::net
