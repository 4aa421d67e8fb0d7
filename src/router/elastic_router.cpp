#include "router/elastic_router.hpp"

#include <algorithm>
#include <bit>

#include "sim/logging.hpp"
#include "sim/pool.hpp"

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
    // A VC with no credit of its own can starve: the credit-return
    // callback pumps only the VC whose credit came back.
    if (cfg.policy == CreditPolicy::kElastic && cfg.perVcReservedFlits < 1)
        sim::fatalf(cfg.name, ": ErConfig::perVcReservedFlits must be >= 1 "
                              "under the elastic policy (got ",
                    cfg.perVcReservedFlits, ")");
    if (cfg.policy == CreditPolicy::kStatic && cfg.staticPerVcFlits < 1)
        sim::fatalf(cfg.name, ": ErConfig::staticPerVcFlits must be >= 1 "
                              "under the static policy (got ",
                    cfg.staticPerVcFlits, ")");
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
    slotInput.resize(slots);
    for (int slot = 0; slot < slots; ++slot)
        slotInput[slot] = slot / cfg.numVcs;
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

int
ElasticRouter::freeCredits(int port, int vc) const
{
    const InputPort &in = inputs.at(port);
    const int occupancy = in.vcs.at(vc).occupancy;
    if (cfg.policy == CreditPolicy::kStatic)
        return std::max(0, cfg.staticPerVcFlits - occupancy);
    return std::max(0, cfg.perVcReservedFlits - occupancy) +
           std::max(0, cfg.sharedPoolFlits - in.sharedUsed);
}

ElasticRouter::Run &
ElasticRouter::admit(int port, int vc, int flits, bool head,
                     int dst_endpoint)
{
    InputPort &in = inputs[port];
    InputVc &ivc = in.vcs[vc];
    if (cfg.policy == CreditPolicy::kElastic) {
        // Flits beyond the VC's reservation draw on the shared pool.
        in.sharedUsed +=
            std::max(0, ivc.occupancy + flits -
                            std::max(ivc.occupancy, cfg.perVcReservedFlits));
    }
    if (head || ivc.runs.empty() || ivc.runs.back().tailAtBack) {
        ivc.runs.push_back(Run{});
        Run &run = ivc.runs.back();
        run.dstEndpoint = dst_endpoint;
        run.headAtFront = head;
    }
    Run &run = ivc.runs.back();
    run.flits += flits;
    ivc.occupancy += flits;
    totalBuffered += flits;
    statPeakBuffered = std::max(statPeakBuffered, totalBuffered);
    if (port < static_cast<int>(obsFlitsIn.size()) && obsFlitsIn[port])
        obsFlitsIn[port]->inc(static_cast<std::uint64_t>(flits));
    return run;
}

void
ElasticRouter::admitted(int port, int vc, int flits)
{
    if (inputs[port].vcs[vc].occupancy == flits)
        addCandidate(port, vc);
    scheduleTick();
}

void
ElasticRouter::injectFlit(int port, Flit flit)
{
    if (!canAccept(port, flit.vc))
        sim::panicf(cfg.name, ": injectFlit without credit (port ", port,
                    " vc ", flit.vc, ")");
    Run &run = admit(port, flit.vc, 1, flit.isHead(), flit.dstEndpoint);
    if (flit.isTail()) {
        run.tailAtBack = true;
        run.tailBytes = flit.bytes;
        run.msg = std::move(flit.msg);
    } else {
        run.bodyBytes = flit.bytes;
    }
    admitted(port, flit.vc, 1);
}

void
ElasticRouter::injectTrain(int port, const ErMessagePtr &msg,
                           std::uint32_t first, int flits)
{
    const int vc = msg->vc;
    if (flits < 1 || flits > freeCredits(port, vc))
        sim::panicf(cfg.name, ": injectTrain without credit (port ", port,
                    " vc ", vc, " flits ", flits, ")");
    const std::uint32_t total = flitCount(msg->sizeBytes, cfg.flitBytes);
    Run &run = admit(port, vc, flits, first == 0, msg->dstEndpoint);
    run.bodyBytes = cfg.flitBytes;
    if (first + static_cast<std::uint32_t>(flits) == total) {
        run.tailAtBack = true;
        run.tailBytes = std::max<std::uint32_t>(msg->sizeBytes, 1) -
                        (total - 1) * cfg.flitBytes;
        run.msg = msg;
    }
    admitted(port, vc, flits);
}

void
ElasticRouter::setCreditReturnFn(int port, std::function<void(int)> fn)
{
    inputs.at(port).creditReturn = std::move(fn);
    inputs[port].creditWaiting = true;
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
ElasticRouter::routeOf(int dst_endpoint) const
{
    const int out = routeFn(dst_endpoint);
    if (out < 0 || out >= cfg.numPorts)
        sim::panicf(cfg.name, ": route function returned bad port ", out,
                    " for endpoint ", dst_endpoint);
    return out;
}

void
ElasticRouter::addCandidate(int port, int vc)
{
    const InputVc &ivc = inputs[port].vcs[vc];
    const Run &front = ivc.runs.front();
    // Route the head flit; body/tail follow the locked output.
    int target = ivc.lockedOutput;
    if (front.headAtFront) {
        target = routeOf(front.dstEndpoint);
    } else if (target < 0) {
        sim::panicf(cfg.name, ": wormhole corruption on input ", port,
                    " vc ", vc, " (body flit without a head)");
    }
    setBit(&candidates[std::size_t(target) * slotWords],
           port * cfg.numVcs + vc);
    setBit(activeOutputs.data(), target);
    ++candidateCount;
}

void
ElasticRouter::removeCandidate(int out_idx, int slot)
{
    std::uint64_t *mask = &candidates[std::size_t(out_idx) * slotWords];
    clearBit(mask, slot);
    if (firstSetBit(mask, 0, slots) == slots)
        clearBit(activeOutputs.data(), out_idx);
    --candidateCount;
}

void
ElasticRouter::scheduleTick()
{
    if (tickPosted)
        return;
    tickPosted = true;
    // Align to the next cycle boundary for a clocked-crossbar feel.
    const sim::TimePs now = queue.now();
    const sim::TimePs next = ((now / cyclePs) + 1) * cyclePs;
    queue.schedule(next, [this] { tick(); });
}

void
ElasticRouter::releaseCredit(int port, int vc)
{
    InputPort &in = inputs[port];
    InputVc &ivc = in.vcs[vc];
    if (cfg.policy == CreditPolicy::kElastic &&
        ivc.occupancy >= cfg.perVcReservedFlits && in.sharedUsed > 0) {
        // The departing flit frees a shared-pool credit (occupancy was
        // above the reservation before this dequeue completed).
        --in.sharedUsed;
    }
    if (in.creditWaiting && in.creditReturn)
        in.creditReturn(vc);
}

void
ElasticRouter::tick()
{
    tickPosted = false;
    if (candidateCount == 1)
        crossTrain();
    const sim::TimePs now = queue.now();
    // Per-cycle separable allocation: each output grants at most one
    // input; each input sends at most one flit. Only outputs that some
    // front flit targets are visited, in port order; each walks its
    // candidates round-robin from its pointer, the same order as a scan
    // of every (input, vc) slot.
    const int ports = cfg.numPorts;
    for (int out_idx = firstSetBit(activeOutputs.data(), 0, ports);
         out_idx < ports;
         out_idx = firstSetBit(activeOutputs.data(), out_idx + 1, ports)) {
        const OutputPort &out = outputs[out_idx];
        if (out.sink == nullptr)
            sim::panicf(cfg.name, ": a head flit is routed to output ",
                        out_idx, ", which has no sink (setOutputSink)");
        if (out.nextFree > now)
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
}

void
ElasticRouter::crossTrain()
{
    const int out_idx = firstSetBit(activeOutputs.data(), 0, cfg.numPorts);
    OutputPort &out = outputs[out_idx];
    if (!out.tailFlitsOnly || out.cyclesPerFlit != 1)
        return;
    const int slot =
        firstSetBit(&candidates[std::size_t(out_idx) * slotWords], 0, slots);
    const int in_idx = slotInput[slot];
    InputPort &in = inputs[in_idx];
    if (in.creditWaiting && in.creditReturn)
        return;
    const int vc = slot - in_idx * cfg.numVcs;
    InputVc &ivc = in.vcs[vc];
    Run &run = ivc.runs.front();
    int &owner = out.vcOwner[vc];
    if (run.headAtFront && owner != -1 && owner != in_idx)
        return;
    // Cycle i grants one flit at now + i * cyclePs, and its tick for the
    // next cycle would be the next event run, so the last of n cycles
    // must end before the next event and within the run. The run's last
    // flit (its tail, or the newest flit of a run still waiting for it)
    // stays for the per-cycle path.
    const sim::TimePs now = queue.now();
    const int n = static_cast<int>(std::min<sim::TimePs>(
        run.flits - 1, (queue.runAheadHorizon() - now) / cyclePs));
    const sim::TimePs next = now + n * cyclePs;
    if (n < 1 || !queue.advanceIfIdle(next, static_cast<std::uint64_t>(n)))
        return;
    if (run.headAtFront) {
        owner = in_idx;
        ivc.lockedOutput = out_idx;
        run.headAtFront = false;
    }
    if (cfg.policy == CreditPolicy::kElastic) {
        // Each departure leaving the VC at or above its reservation
        // frees one shared-pool credit while any is drawn.
        const int shared = std::clamp(
            ivc.occupancy - cfg.perVcReservedFlits, 0, n);
        in.sharedUsed -= std::min(shared, in.sharedUsed);
    }
    run.flits -= n;
    ivc.occupancy -= n;
    totalBuffered -= n;
    in.grantedAt = next - cyclePs;
    out.rrPointer = slot + 1 == slots ? 0 : slot + 1;
    out.nextFree = next;
    statFlitsRouted += static_cast<std::uint64_t>(n);
    statBusyCycles += static_cast<std::uint64_t>(n);
    if (out_idx < static_cast<int>(obsFlitsOut.size()) &&
        obsFlitsOut[out_idx])
        obsFlitsOut[out_idx]->inc(static_cast<std::uint64_t>(n));
}

bool
ElasticRouter::tryGrant(int out_idx, int slot, sim::TimePs now)
{
    const int in_idx = slotInput[slot];
    const int vc = slot - in_idx * cfg.numVcs;
    InputPort &in = inputs[in_idx];
    if (in.grantedAt == now)
        return false;
    InputVc &ivc = in.vcs[vc];
    OutputPort &out = outputs[out_idx];
    Run &run = ivc.runs.front();
    // Wormhole VC ownership on the output.
    int &owner = out.vcOwner[vc];
    const bool head = run.headAtFront;
    if (head) {
        if (owner != -1 && owner != in_idx)
            return false;  // VC busy with another message
        owner = in_idx;
        ivc.lockedOutput = out_idx;
    } else if (owner != in_idx) {
        sim::panicf(cfg.name, ": wormhole corruption on output ", out_idx,
                    " vc ", vc);
    }

    // Grant: the front flit of the run leaves. Only a flit the sink
    // takes becomes a Flit value.
    const bool tail = run.tailAtBack && run.flits == 1;
    const bool deliver = tail || !out.tailFlitsOnly;
    Flit flit;
    if (deliver) {
        flit.kind = head ? (tail ? FlitKind::kHeadTail : FlitKind::kHead)
                         : (tail ? FlitKind::kTail : FlitKind::kBody);
        flit.vc = vc;
        flit.dstEndpoint = run.dstEndpoint;
        flit.bytes = tail ? run.tailBytes : run.bodyBytes;
    }
    if (tail)
        flit.msg = std::move(run.msg);
    run.headAtFront = false;
    const bool runLeft = --run.flits == 0;
    if (runLeft)
        ivc.runs.pop_front();
    --ivc.occupancy;
    --totalBuffered;
    in.grantedAt = now;
    out.rrPointer = slot + 1 == slots ? 0 : slot + 1;
    out.nextFree = now + out.cyclesPerFlit * cyclePs;
    ++statFlitsRouted;
    if (out_idx < static_cast<int>(obsFlitsOut.size()) &&
        obsFlitsOut[out_idx])
        obsFlitsOut[out_idx]->inc();
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
    // A run that goes on keeps its candidate bit; the next run's head is
    // routed when it reaches the front.
    if (runLeft) {
        removeCandidate(out_idx, slot);
        if (!ivc.runs.empty())
            addCandidate(in_idx, vc);
    }
    releaseCredit(in_idx, vc);
    if (deliver) {
        FlitSink *sink = out.sink;
        queue.schedule(now + cfg.pipelineCycles * cyclePs,
                       [sink, flit = std::move(flit)] {
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
    er.setCreditReturnFn(port, [this](int vc) {
        if (!pending[vc].empty())
            pump(vc);
    });
    er.setCreditWaiting(port, false);
}

std::size_t
ErEndpoint::backlogFlits() const
{
    std::size_t n = 0;
    for (const auto &q : pending) {
        for (const Pending &p : q)
            n += p.flitsLeft;
    }
    return n;
}

void
ErEndpoint::sendMessage(int dst_endpoint, int vc, std::uint32_t size_bytes,
                        std::shared_ptr<void> payload,
                        obs::TraceContext trace)
{
    auto msg = sim::makePooled<ErMessage>();
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
    pending[msg->vc].push_back(
        Pending{msg, flitCount(msg->sizeBytes, er.config().flitBytes)});
    pump(msg->vc);
}

void
ErEndpoint::pump(int vc)
{
    auto &q = pending[vc];
    int credits = er.freeCredits(port, vc);
    while (!q.empty() && credits > 0) {
        Pending &p = q.front();
        const std::uint32_t total =
            flitCount(p.msg->sizeBytes, er.config().flitBytes);
        const int flits =
            static_cast<int>(std::min<std::uint32_t>(p.flitsLeft, credits));
        er.injectTrain(port, p.msg, total - p.flitsLeft, flits);
        credits -= flits;
        p.flitsLeft -= static_cast<std::uint32_t>(flits);
        if (p.flitsLeft == 0)
            q.pop_front();
    }
    if (!q.empty())
        er.noteCreditStall(port);
    // Credits call back only while some VC has flits queued.
    er.setCreditWaiting(port,
                        std::any_of(pending.begin(), pending.end(),
                                    [](const auto &p) { return !p.empty(); }));
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
