#include "net/fluid.hpp"

#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::net {

namespace {

/** bit·ps per byte: 8 bits × 1e12 ps/s. */
constexpr unsigned __int128 kBitPsPerByte =
    static_cast<unsigned __int128>(8) * 1000000000000ull;

}  // namespace

FluidTrafficModel::FluidTrafficModel(sim::EventQueue &eq_, Topology &t)
    : topo(t), eq(&eq_)
{
}

FluidTrafficModel::FluidTrafficModel(sim::ShardedEventQueue &sq_,
                                     Topology &t)
    : topo(t), sq(&sq_)
{
}

FluidTrafficModel::~FluidTrafficModel()
{
    // Unload whatever is still flowing so the channels a longer-lived
    // topology keeps serving are not left slowed forever. Stalled flows
    // already carry no rate on the hops.
    for (FluidFlow &f : flows) {
        if (f.id != 0 && !f.promoted && !f.stalled)
            unloadPath(f);
    }
}

sim::TimePs
FluidTrafficModel::now() const
{
    return sq != nullptr ? sq->now() : eq->now();
}

FluidFlow &
FluidTrafficModel::get(std::uint64_t id)
{
    if (flow(id) == nullptr)
        sim::fatalf("FluidTrafficModel: unknown flow id ", id);
    return flows[id - 1];
}

void
FluidTrafficModel::loadPath(FluidFlow &f)
{
    for (Channel *c : f.path)
        c->addFluidBps(f.rateBps);
}

void
FluidTrafficModel::unloadPath(FluidFlow &f)
{
    for (Channel *c : f.path)
        c->removeFluidBps(f.rateBps);
}

bool
FluidTrafficModel::pathDead(const FluidFlow &f) const
{
    for (const Channel *c : f.path) {
        if (c->isAdminDown())
            return true;
    }
    return false;
}

void
FluidTrafficModel::refreshStall(FluidFlow &f)
{
    const bool dead = pathDead(f);
    if (dead == f.stalled)
        return;
    if (dead) {
        // Zero the aggregate: nothing crosses a cut hop, so the rate
        // stops slowing the surviving hops and the sub-byte remainder
        // is written off (those bits never arrived).
        unloadPath(f);
        f.residualBitPs = 0;
        ++statStalls;
    } else {
        loadPath(f);
    }
    f.stalled = dead;
}

std::uint64_t
FluidTrafficModel::advance(FluidFlow &f)
{
    const sim::TimePs t = now();
    if (f.promoted) {
        f.lastFold = t;
        return 0;
    }
    // Path health is polled at fold granularity: the interval in which
    // the state flipped is written off entirely — no bytes accrue into
    // (or out of) a dead hop, and conservation stays exact because the
    // per-flow integral and the channel credits skip together. Chaos
    // scenarios fold the model immediately before injecting, making the
    // boundary exact.
    const bool wasStalled = f.stalled;
    refreshStall(f);
    const sim::TimePs dt = t - f.lastFold;
    f.lastFold = t;
    if (f.stalled || wasStalled || dt <= 0 || f.rateBps == 0)
        return 0;
    // Exact integral in bit·ps; the remainder is carried so byte totals
    // are independent of the fold schedule.
    unsigned __int128 acc =
        f.residualBitPs + static_cast<unsigned __int128>(f.rateBps) *
                              static_cast<unsigned __int128>(dt);
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(acc / kBitPsPerByte);
    f.residualBitPs = acc % kBitPsPerByte;
    f.fluidBytes += bytes;
    expectedCredits += bytes * f.path.size();
    return bytes;
}

void
FluidTrafficModel::fold(FluidFlow &f)
{
    const std::uint64_t bytes = advance(f);
    if (bytes == 0)
        return;
    for (Channel *c : f.path)
        c->creditFluidBytes(bytes);
}

std::uint64_t
FluidTrafficModel::addFlow(int src_host, int dst_host,
                           std::uint64_t rate_bps)
{
    FluidFlow &f = flows.emplace_back();
    f.id = flows.size();
    f.srcHost = src_host;
    f.dstHost = dst_host;
    f.rateBps = rate_bps;
    f.lastFold = now();
    f.path = topo.fluidPath(src_host, dst_host);
    for (Channel *c : f.path)
        touched.insert(c);
    f.stalled = pathDead(f);
    if (f.stalled)
        ++statStalls;
    else
        loadPath(f);
    ++liveCount;
    return f.id;
}

void
FluidTrafficModel::setRate(std::uint64_t id, std::uint64_t rate_bps)
{
    FluidFlow &f = get(id);
    const std::uint64_t bytes = advance(f);
    const std::uint64_t old = f.rateBps;
    f.rateBps = rate_bps;
    if (f.promoted || f.stalled)
        return;  // no rate on the hops, and advance() owed them nothing
    // One pass over the hops: credit the folded bytes and swap the rate.
    for (Channel *c : f.path) {
        c->creditFluidBytes(bytes);
        c->removeFluidBps(old);
        c->addFluidBps(rate_bps);
    }
}

void
FluidTrafficModel::removeFlow(std::uint64_t id)
{
    FluidFlow &f = get(id);
    fold(f);
    if (!f.promoted && !f.stalled)
        unloadPath(f);
    // The record stays behind for verify()'s byte totals.
    f.id = 0;
    f.path = {};
    --liveCount;
}

void
FluidTrafficModel::promote(std::uint64_t id)
{
    FluidFlow &f = get(id);
    if (f.promoted)
        return;
    fold(f);
    if (!f.stalled)
        unloadPath(f);
    // The packet regime owns loss now; stall bookkeeping restarts clean
    // at the next demote.
    f.stalled = false;
    f.promoted = true;
}

void
FluidTrafficModel::creditPacketBytes(std::uint64_t id, std::uint64_t bytes)
{
    FluidFlow &f = get(id);
    if (!f.promoted)
        sim::fatalf("FluidTrafficModel: packet credit on fluid flow ", id,
                    " (bytes would be double-counted)");
    f.packetBytes += bytes;
}

void
FluidTrafficModel::demote(std::uint64_t id, std::uint64_t rate_bps)
{
    FluidFlow &f = get(id);
    if (!f.promoted)
        return;
    f.promoted = false;
    f.lastFold = now();
    f.rateBps = rate_bps;
    f.stalled = pathDead(f);
    if (f.stalled)
        ++statStalls;
    else
        loadPath(f);
}

void
FluidTrafficModel::setMonitored(const Channel *c, bool is_monitored)
{
    if (is_monitored)
        monitored.insert(c);
    else
        monitored.erase(c);
}

bool
FluidTrafficModel::crossesMonitored(const FluidFlow &f) const
{
    for (const Channel *c : f.path) {
        if (monitored.count(c) > 0)
            return true;
    }
    return false;
}

bool
FluidTrafficModel::crossesMonitored(std::uint64_t id) const
{
    const FluidFlow *f = flow(id);
    return f != nullptr && crossesMonitored(*f);
}

std::vector<std::uint64_t>
FluidTrafficModel::flowsCrossingMonitored() const
{
    std::vector<std::uint64_t> ids;
    for (const FluidFlow &f : flows) {
        if (f.id != 0 && !f.promoted && crossesMonitored(f))
            ids.push_back(f.id);
    }
    return ids;
}

void
FluidTrafficModel::foldAll()
{
    for (FluidFlow &f : flows)
        if (f.id != 0)
            fold(f);
}

FluidConservation
FluidTrafficModel::verify() const
{
    FluidConservation c;
    c.flows = flows.size();
    for (const FluidFlow &f : flows) {
        c.fluidBytes += f.fluidBytes;
        c.packetBytes += f.packetBytes;
    }
    for (Channel *ch : touched)
        c.channelCredits += ch->fluidBytesDelivered();
    c.expectedChannelCredits = expectedCredits;
    c.ok = c.channelCredits == c.expectedChannelCredits;
    return c;
}

std::size_t
FluidTrafficModel::stalledFlows() const
{
    std::size_t n = 0;
    for (const FluidFlow &f : flows)
        n += (f.id != 0 && !f.promoted && f.stalled) ? 1 : 0;
    return n;
}

const FluidFlow *
FluidTrafficModel::flow(std::uint64_t id) const
{
    if (id == 0 || id > flows.size())
        return nullptr;
    const FluidFlow &f = flows[id - 1];
    return f.id == 0 ? nullptr : &f;
}

}  // namespace ccsim::net
