#include "router/elastic_router.hpp"

#include <algorithm>
#include <bit>

#include "sim/logging.hpp"

namespace ccsim::router {

namespace {

constexpr int kWordBits = 64;

int
wordsFor(int bits)
{
    return (bits + kWordBits - 1) / kWordBits;
}

/** Index of the first set bit of @p mask in [@p from, @p end), or end. */
int
firstSetBit(const std::uint64_t *mask, int from, int end)
{
    while (from < end) {
        const std::uint64_t bits =
            mask[from / kWordBits] >> (from % kWordBits);
        if (bits)
            return std::min(end, from + std::countr_zero(bits));
        from = (from / kWordBits + 1) * kWordBits;
    }
    return end;
}

void
setBit(std::uint64_t *mask, int bit)
{
    mask[bit / kWordBits] |= std::uint64_t{1} << (bit % kWordBits);
}

void
clearBit(std::uint64_t *mask, int bit)
{
    mask[bit / kWordBits] &= ~(std::uint64_t{1} << (bit % kWordBits));
}

}  // namespace

ElasticRouter::ElasticRouter(sim::EventQueue &eq, ErConfig config)
    : queue(eq), cfg(std::move(config))
{
    if (cfg.numPorts < 1 || cfg.numVcs < 1 || cfg.flitBytes == 0)
        sim::fatal("ElasticRouter: invalid configuration");
    cyclePs = sim::cyclePeriod(cfg.clockMhz);
    routeFn = [](int dst) { return dst; };
    inputs.resize(cfg.numPorts);
    outputs.resize(cfg.numPorts);
    for (auto &in : inputs)
        in.vcs.resize(cfg.numVcs);
    for (auto &out : outputs)
        out.vcOwner.assign(cfg.numVcs, -1);
    slots = cfg.numPorts * cfg.numVcs;
    slotWords = wordsFor(slots);
    candidates.assign(std::size_t(cfg.numPorts) * slotWords, 0);
    activeOutputs.assign(wordsFor(cfg.numPorts), 0);
}

void
ElasticRouter::setOutputSink(int port, FlitSink *sink)
{
    OutputPort &out = outputs.at(port);
    out.sink = sink;
    out.tailFlitsOnly = sink != nullptr && sink->tailFlitsOnly();
}

void
ElasticRouter::setOutputCyclesPerFlit(int port, int cycles)
{
    if (cycles < 1)
        sim::fatal("ElasticRouter: cyclesPerFlit must be >= 1");
    outputs.at(port).cyclesPerFlit = cycles;
}

bool
ElasticRouter::canAccept(int port, int vc) const
{
    const InputPort &in = inputs.at(port);
    const int occupancy = static_cast<int>(in.vcs.at(vc).fifo.size());
    if (cfg.policy == CreditPolicy::kStatic)
        return occupancy < cfg.staticPerVcFlits;
    if (occupancy < cfg.perVcReservedFlits)
        return true;
    return in.sharedUsed < cfg.sharedPoolFlits;
}

void
ElasticRouter::injectFlit(int port, Flit flit)
{
    if (!canAccept(port, flit.vc))
        sim::panicf(cfg.name, ": injectFlit without credit (port ", port,
                    " vc ", flit.vc, ")");
    InputPort &in = inputs[port];
    const int vc = flit.vc;
    InputVc &ivc = in.vcs[vc];
    if (cfg.policy == CreditPolicy::kElastic &&
        static_cast<int>(ivc.fifo.size()) >= cfg.perVcReservedFlits) {
        ++in.sharedUsed;
    }
    ivc.fifo.push_back(std::move(flit));
    if (ivc.fifo.size() == 1)
        addCandidate(port, vc);
    ++totalBuffered;
    statPeakBuffered = std::max(statPeakBuffered, totalBuffered);
    if (port < static_cast<int>(obsFlitsIn.size()) && obsFlitsIn[port])
        obsFlitsIn[port]->inc();
    scheduleTick();
}

void
ElasticRouter::setCreditReturnFn(int port, std::function<void(int)> fn)
{
    inputs.at(port).creditReturn = std::move(fn);
}

void
ElasticRouter::attachObservability(obs::Observability *o,
                                   const std::string &node)
{
    obsFlitsIn.assign(cfg.numPorts, nullptr);
    obsFlitsOut.assign(cfg.numPorts, nullptr);
    obsCreditStalls.assign(cfg.numPorts, nullptr);
    flowRec = o ? &o->flows : nullptr;
    obsHop = "router." + node;
    if (!o)
        return;
    const std::string prefix = "router." + node;
    auto &reg = o->registry;
    reg.registerProbe(prefix + ".flits_routed",
                      [this] { return double(statFlitsRouted); });
    reg.registerProbe(prefix + ".messages_routed",
                      [this] { return double(statTails); });
    reg.registerProbe(prefix + ".busy_cycles",
                      [this] { return double(statBusyCycles); });
    reg.registerProbe(prefix + ".buffered_flits",
                      [this] { return double(totalBuffered); });
    reg.registerProbe(prefix + ".peak_buffered_flits",
                      [this] { return double(statPeakBuffered); });
    for (int p = 0; p < cfg.numPorts; ++p) {
        const std::string pp = prefix + ".port" + std::to_string(p);
        obsFlitsIn[p] = &reg.counter(pp + ".flits_in");
        obsFlitsOut[p] = &reg.counter(pp + ".flits_out");
        obsCreditStalls[p] = &reg.counter(pp + ".credit_stalls");
    }
}

void
ElasticRouter::noteCreditStall(int port)
{
    if (port < static_cast<int>(obsCreditStalls.size()) &&
        obsCreditStalls[port])
        obsCreditStalls[port]->inc();
}

int
ElasticRouter::routeOf(const Flit &flit) const
{
    const int out = routeFn(flit.dstEndpoint);
    if (out < 0 || out >= cfg.numPorts)
        sim::panicf(cfg.name, ": route function returned bad port ", out,
                    " for endpoint ", flit.dstEndpoint);
    return out;
}

void
ElasticRouter::addCandidate(int port, int vc)
{
    const InputVc &ivc = inputs[port].vcs[vc];
    const Flit &front = ivc.fifo.front();
    // Route the head flit; body/tail follow the locked output.
    int target = ivc.lockedOutput;
    if (front.isHead()) {
        target = routeOf(front);
    } else if (target < 0) {
        sim::panicf(cfg.name, ": wormhole corruption on input ", port,
                    " vc ", vc, " (body flit without a head)");
    }
    setBit(&candidates[std::size_t(target) * slotWords],
           port * cfg.numVcs + vc);
    setBit(activeOutputs.data(), target);
}

void
ElasticRouter::removeCandidate(int out_idx, int slot)
{
    std::uint64_t *mask = &candidates[std::size_t(out_idx) * slotWords];
    clearBit(mask, slot);
    if (firstSetBit(mask, 0, slots) == slots)
        clearBit(activeOutputs.data(), out_idx);
}

void
ElasticRouter::scheduleTick()
{
    if (clock == Clock::kIdle)
        postTick();
    else if (clock == Clock::kRunning)
        clock = Clock::kWanted;
}

void
ElasticRouter::postTick()
{
    clock = Clock::kPosted;
    // Align to the next cycle boundary for a clocked-crossbar feel.
    const sim::TimePs now = queue.now();
    const sim::TimePs next = ((now / cyclePs) + 1) * cyclePs;
    queue.schedule(next, [this] {
        clock = Clock::kRunning;
        tick();
    });
}

void
ElasticRouter::releaseCredit(int port, int vc)
{
    InputPort &in = inputs[port];
    InputVc &ivc = in.vcs[vc];
    if (cfg.policy == CreditPolicy::kElastic &&
        static_cast<int>(ivc.fifo.size()) >= cfg.perVcReservedFlits &&
        in.sharedUsed > 0) {
        // The departing flit frees a shared-pool credit (occupancy was
        // above the reservation before this dequeue completed).
        --in.sharedUsed;
    }
    if (in.creditReturn)
        in.creditReturn(vc);
}

void
ElasticRouter::tick()
{
    const int ports = cfg.numPorts;
    while (true) {
        const sim::TimePs now = queue.now();
        // Per-cycle separable allocation: each output grants at most one
        // input; each input sends at most one flit. Only outputs that
        // some front flit targets are visited, in port order; each walks
        // its candidates round-robin from its pointer, the same order as
        // a scan of every (input, vc) slot.
        for (int out_idx = firstSetBit(activeOutputs.data(), 0, ports);
             out_idx < ports;
             out_idx = firstSetBit(activeOutputs.data(), out_idx + 1,
                                   ports)) {
            const OutputPort &out = outputs[out_idx];
            if (out.sink == nullptr || out.nextFree > now)
                continue;
            const std::uint64_t *mask =
                &candidates[std::size_t(out_idx) * slotWords];
            const int start = out.rrPointer;
            auto grantFirst = [&](int from, int end) {
                for (int slot = firstSetBit(mask, from, end); slot < end;
                     slot = firstSetBit(mask, slot + 1, end)) {
                    if (tryGrant(out_idx, slot, now))
                        return true;
                }
                return false;
            };
            if (!grantFirst(start, slots))
                grantFirst(0, start);
        }

        if (totalBuffered > 0) {
            ++statBusyCycles;
            scheduleTick();
        }
        if (clock == Clock::kRunning)
            clock = Clock::kIdle;
        if (clock != Clock::kWanted)
            return;
        // The next cycle's tick event would be the next event run: take
        // the cycle here instead of a queue round trip.
        if (!queue.advanceIfIdle(now + cyclePs)) {
            postTick();
            return;
        }
        clock = Clock::kRunning;
    }
}

bool
ElasticRouter::tryGrant(int out_idx, int slot, sim::TimePs now)
{
    const int in_idx = slot / cfg.numVcs;
    const int vc = slot % cfg.numVcs;
    InputPort &in = inputs[in_idx];
    if (in.grantedAt == now)
        return false;
    InputVc &ivc = in.vcs[vc];
    OutputPort &out = outputs[out_idx];
    // Wormhole VC ownership on the output.
    int &owner = out.vcOwner[vc];
    if (ivc.fifo.front().isHead()) {
        if (owner != -1 && owner != in_idx)
            return false;  // VC busy with another message
        owner = in_idx;
        ivc.lockedOutput = out_idx;
    } else if (owner != in_idx) {
        sim::panicf(cfg.name, ": wormhole corruption on output ", out_idx,
                    " vc ", vc);
    }

    // Grant: move the flit.
    Flit flit = std::move(ivc.fifo.front());
    ivc.fifo.pop_front();
    removeCandidate(out_idx, slot);
    --totalBuffered;
    in.grantedAt = now;
    out.rrPointer = (slot + 1) % slots;
    out.nextFree = now + out.cyclesPerFlit * cyclePs;
    ++statFlitsRouted;
    if (out_idx < static_cast<int>(obsFlitsOut.size()) &&
        obsFlitsOut[out_idx])
        obsFlitsOut[out_idx]->inc();
    const bool tail = flit.isTail();
    if (tail) {
        ++statTails;
        owner = -1;
        ivc.lockedOutput = -1;
        if (flit.msg->trace.sampled && flowRec) {
            // Whole crossbar traversal: injection through the
            // pipeline to the output sink handoff.
            flowRec->recordSpan(flit.msg->trace, obsHop,
                                obs::Component::kCompute,
                                flit.msg->createdAt,
                                now + cfg.pipelineCycles * cyclePs);
        }
    }
    if (!ivc.fifo.empty())
        addCandidate(in_idx, vc);
    releaseCredit(in_idx, vc);
    if (tail || !out.tailFlitsOnly) {
        const sim::TimePs at = now + cfg.pipelineCycles * cyclePs;
        // A wanted next cycle orders where it was first wanted, ahead of
        // any later event at its time: post it before a delivery due
        // then.
        if (clock == Clock::kWanted && at == now + cyclePs)
            postTick();
        FlitSink *sink = out.sink;
        queue.schedule(at, [sink, flit = std::move(flit)] {
            sink->acceptFlit(flit);
        });
    }
    return true;
}

ErEndpoint::ErEndpoint(sim::EventQueue &eq, ElasticRouter &router, int p,
                       int endpoint_id)
    : queue(eq), er(router), port(p), id(endpoint_id)
{
    pending.resize(er.config().numVcs);
    er.setCreditReturnFn(port, [this](int vc) { pump(vc); });
}

std::size_t
ErEndpoint::backlogFlits() const
{
    std::size_t n = 0;
    for (const auto &q : pending)
        n += q.size();
    return n;
}

void
ErEndpoint::sendMessage(int dst_endpoint, int vc, std::uint32_t size_bytes,
                        std::shared_ptr<void> payload,
                        obs::TraceContext trace)
{
    auto msg = std::make_shared<ErMessage>();
    msg->dstEndpoint = dst_endpoint;
    msg->srcEndpoint = id;
    msg->vc = vc;
    msg->sizeBytes = size_bytes;
    msg->payload = std::move(payload);
    msg->createdAt = queue.now();
    msg->trace = trace;
    sendMessage(msg);
}

void
ErEndpoint::sendMessage(const ErMessagePtr &msg)
{
    if (msg->vc < 0 || msg->vc >= er.config().numVcs)
        sim::fatal("ErEndpoint: bad VC");
    if (msg->id == 0)
        msg->id = (static_cast<std::uint64_t>(id) << 40) | nextMsgId++;
    segment(msg);
    pump(msg->vc);
}

void
ErEndpoint::segment(const ErMessagePtr &msg)
{
    const std::uint32_t flit_bytes = er.config().flitBytes;
    const std::uint32_t size = msg->sizeBytes == 0 ? 1 : msg->sizeBytes;
    const std::uint32_t nflits = (size + flit_bytes - 1) / flit_bytes;
    for (std::uint32_t i = 0; i < nflits; ++i) {
        Flit flit;
        flit.vc = msg->vc;
        flit.dstEndpoint = msg->dstEndpoint;
        flit.bytes = std::min(flit_bytes, size - i * flit_bytes);
        if (nflits == 1) {
            flit.kind = FlitKind::kHeadTail;
        } else if (i == 0) {
            flit.kind = FlitKind::kHead;
        } else if (i == nflits - 1) {
            flit.kind = FlitKind::kTail;
        } else {
            flit.kind = FlitKind::kBody;
        }
        if (flit.isTail())
            flit.msg = msg;
        pending[msg->vc].push_back(std::move(flit));
    }
}

void
ErEndpoint::pump(int vc)
{
    auto &q = pending[vc];
    while (!q.empty() && er.canAccept(port, vc)) {
        er.injectFlit(port, std::move(q.front()));
        q.pop_front();
    }
    if (!q.empty())
        er.noteCreditStall(port);
}

void
ErEndpoint::acceptFlit(const Flit &flit)
{
    if (flit.isTail()) {
        if (handler)
            handler(flit.msg);
    }
}

}  // namespace ccsim::router
