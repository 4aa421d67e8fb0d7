#include "fabric.hpp"

#include "sim/logging.hpp"

namespace ccsim::bench {

std::vector<ProbePair>
openProbePairs(core::ConfigurableCloud &cloud, Tracer &tr, sim::Rng &rng,
               int count, const std::vector<int> &allowedPods)
{
    net::Topology &topo = cloud.topology();
    const auto pick = [&](int not_pod) {
        int pod = not_pod;
        while (pod == not_pod)
            pod = allowedPods[rng.uniformInt(allowedPods.size())];
        return topo.hostIndex(
            pod, static_cast<int>(rng.uniformInt(topo.racksPerPod())),
            static_cast<int>(rng.uniformInt(topo.hostsPerRack())));
    };
    std::vector<ProbePair> probes;
    while (static_cast<int>(probes.size()) < count) {
        ProbePair pr;
        pr.src = pick(-1);
        pr.dst = pick(topo.host(pr.src).pod);
        traced(tr, "core", "materialize", [&] {
            cloud.materializeServer(pr.src);
            cloud.materializeServer(pr.dst);
        });
        pr.role = std::make_unique<SinkRole>(cloud.queueFor(pr.dst), true);
        const int port = traced(tr, "fpga", "add_role", [&] {
            return cloud.shell(pr.dst).addRole(pr.role.get());
        });
        if (port < 0)
            continue;  // destination's role slots taken; draw again
        pr.channel = traced(tr, "core", "open_ltl", [&] {
            return cloud.openLtl(pr.src, pr.dst, port);
        });
        probes.push_back(std::move(pr));
    }
    return probes;
}

void
schedulePings(core::ConfigurableCloud &cloud, ProbePair &pair, int pings,
              Tracer *tr)
{
    ltl::LtlEngine *engine = cloud.shell(pair.src).ltlEngine();
    sim::EventQueue &q = cloud.queueFor(pair.src);
    if (tr != nullptr && !tr->enabled())
        tr = nullptr;
    for (int i = 0; i < pings; ++i) {
        q.scheduleAfter(i * 20 * sim::kMicrosecond,
                        [engine, conn = pair.channel.sendConn(), &q, tr] {
                            const Tracer::Span s(tr, "ltl", "send");
                            engine->sendMessage(
                                conn, 64,
                                std::make_shared<sim::TimePs>(q.now()));
                        });
    }
    pair.sent += static_cast<std::uint64_t>(pings);
}

std::vector<std::uint64_t>
addSeededFlows(net::FluidTrafficModel &fluid, sim::Rng &rng, int hosts,
               int count, std::uint64_t bps)
{
    std::vector<std::uint64_t> ids;
    ids.reserve(static_cast<std::size_t>(count));
    const auto n = static_cast<std::uint64_t>(hosts);
    for (int i = 0; i < count; ++i) {
        const int src = static_cast<int>(rng.uniformInt(n));
        int dst = static_cast<int>(rng.uniformInt(n - 1));
        if (dst >= src)
            ++dst;
        ids.push_back(fluid.addFlow(src, dst, bps));
    }
    return ids;
}

void
harvestProbes(const std::vector<ProbePair> &probes, RepResult &res)
{
    for (const ProbePair &pr : probes) {
        res.ops += pr.sent;
        const std::uint64_t got = pr.role->delivered();
        res.opsFailed += got < pr.sent ? pr.sent - got : 0;
        res.gate(got <= pr.sent, "probe messages delivered more than once");
        const auto &lat = pr.role->latencies();
        res.latencies.insert(res.latencies.end(), lat.begin(), lat.end());
    }
}

}  // namespace ccsim::bench
