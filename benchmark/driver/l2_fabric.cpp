/**
 * @file
 * l2_fabric: the Figure 7 L2 campaign at full scale on the sequential
 * kernel. A 249,600-host flyweight fabric, cross-pod LTL probe pairs, a
 * diurnal fluid background whose flows crossing probe trunks are promoted
 * to packet fidelity each window, and HaaS lease churn against flyweight
 * stubs. Dominated by the flyweight build, fluid folding/promotion and
 * lease churn; it owns the set-up and memory numbers.
 */
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "core/cloud.hpp"
#include "fabric.hpp"
#include "host/load_generator.hpp"
#include "net/fluid.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace ccsim::bench {

namespace {

struct L2Params {
    int pods = 260;  // 24 x 40 x 260 = 249,600 hosts
    int racksPerPod = 40;
    int hostsPerRack = 24;
    int l2Count = 4;
    int windows = 24;
    sim::TimePs windowLen = 5 * sim::kMillisecond;
    int pairs = 48;
    int pingsPerWindow = 100;
    int flows = 20000;
    int promotePerWindow = 16;
    int leasesPerWindow = 4;
    int hostsPerLease = 8;
    std::uint64_t baseFlowBps = 400ull * 1000 * 1000;
};

/** A background flow promoted to packet fidelity for one window. */
struct PromotedFlow {
    std::uint64_t id = 0;
    int dstHost = 0;
    std::unique_ptr<SinkRole> role;
    core::LtlChannel channel;
    std::uint64_t sent = 0;
    std::uint64_t bytesSent = 0;
};

}  // namespace

RepResult
runL2Fabric(const RepContext &ctx)
{
    Tracer &tr = *ctx.tracer;
    RepResult res;
    const auto rep = tr.span("driver", "rep");
    L2Params p;
    if (ctx.smoke) {
        p.pods = 6;
        p.racksPerPod = 4;
        p.hostsPerRack = 4;
        p.l2Count = 2;
        p.windows = 3;
        p.windowLen = sim::kMillisecond;
        p.pairs = 4;
        p.pingsPerWindow = 10;
        p.flows = 200;
        p.promotePerWindow = 4;
        p.leasesPerWindow = 2;
        p.hostsPerLease = 4;
    }
    const int hosts = p.pods * p.racksPerPod * p.hostsPerRack;
    const auto t0 = Clock::now();

    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = p.hostsPerRack;
    cfg.topology.racksPerPod = p.racksPerPod;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = p.pods;
    cfg.topology.l2Count = p.l2Count;
    cfg.topology.seed = sim::Rng::forStream(ctx.seed, 0).next();
    cfg.createNics = false;  // pure-LTL study
    cfg.lazyHosts = true;
    cfg.shellTemplate.ltl.maxConnections = 64;
    cfg.shellTemplate.roleSlots = 8;

    sim::EventQueue eq;  // outlives the hub
    obs::Observability hub;
    cfg.obs = &hub;
    auto cloud = traced(tr, "core", "build", [&] {
        return std::make_unique<core::ConfigurableCloud>(eq, cfg);
    });
    net::Topology &topo = cloud->topology();

    std::vector<int> allPods(static_cast<std::size_t>(p.pods));
    std::iota(allPods.begin(), allPods.end(), 0);
    sim::Rng placement = sim::Rng::forStream(ctx.seed, 1);
    std::vector<ProbePair> probes =
        openProbePairs(*cloud, tr, placement, p.pairs, allPods);

    auto fluid = std::make_unique<net::FluidTrafficModel>(eq, topo);
    // Probe paths are the monitored paths: background flows sharing a
    // probe trunk are promoted to packet fidelity.
    for (const ProbePair &pr : probes) {
        const auto path =
            traced(tr, "net", "fluid_path",
                   [&] { return topo.fluidPath(pr.src, pr.dst); });
        traced(tr, "net.fluid", "set_monitored", [&] {
            for (net::Channel *c : path)
                fluid->setMonitored(c, true);
        });
    }
    sim::Rng flowRng = sim::Rng::forStream(ctx.seed, 2);
    const std::vector<std::uint64_t> flowIds =
        traced(tr, "net.fluid", "add_flows", [&] {
            return addSeededFlows(*fluid, flowRng, hosts, p.flows,
                                  p.baseFlowBps);
        });

    host::DiurnalTraceParams tp;
    tp.days = 1;
    tp.windowsPerDay = p.windows;
    const std::vector<double> trace = host::makeDiurnalTrace(tp);
    // Per-window flow rate: the diurnal multiplier times a fixed per-pod
    // imbalance in [0.5, 1.5), so some trunks run hot.
    const auto flowRate = [&](std::uint64_t id, int window) {
        const int srcPod = cloud->partitionOf(fluid->flow(id)->srcHost);
        const std::uint64_t h = mix64(
            (static_cast<std::uint64_t>(srcPod) << 20) ^
            static_cast<std::uint64_t>(window));
        const double imbalance = 0.5 + static_cast<double>(h % 1000) / 1000.0;
        return static_cast<std::uint64_t>(
            static_cast<double>(p.baseFlowBps) * trace[window] * imbalance);
    };
    sim::Rng leaseRng = sim::Rng::forStream(ctx.seed, 3);
    res.setupS = secondsSince(t0);
    if (ctx.setupOnly)
        return res;

    const auto t1 = Clock::now();
    haas::ResourceManager &rm = cloud->resourceManager();
    std::uint64_t leaseHosts = 0, promotions = 0;
    std::uint64_t flowSent = 0, flowDelivered = 0;
    for (int w = 0; w < p.windows; ++w) {
        traced(tr, "net.fluid", "set_rate", [&] {
            for (const std::uint64_t id : flowIds)
                fluid->setRate(id, flowRate(id, w));
        });

        std::vector<PromotedFlow> promoted;
        const std::vector<std::uint64_t> crossing = traced(
            tr, "net.fluid", "select",
            [&] { return fluid->flowsCrossingMonitored(); });
        for (const std::uint64_t id : crossing) {
            if (static_cast<int>(promoted.size()) >= p.promotePerWindow)
                break;
            const net::FluidFlow *f = fluid->flow(id);
            PromotedFlow pf;
            pf.id = id;
            pf.dstHost = f->dstHost;
            traced(tr, "core", "materialize", [&] {
                cloud->materializeServer(f->srcHost);
                cloud->materializeServer(f->dstHost);
            });
            pf.role = std::make_unique<SinkRole>(eq, false);
            const int port = traced(tr, "fpga", "add_role", [&] {
                return cloud->shell(f->dstHost).addRole(pf.role.get());
            });
            if (port < 0)
                continue;  // destination shell's role slots exhausted
            traced(tr, "net.fluid", "boundary", [&] { fluid->promote(id); });
            pf.channel = traced(tr, "core", "open_ltl", [&] {
                return cloud->openLtl(f->srcHost, f->dstHost, port);
            });
            promoted.push_back(std::move(pf));
        }
        promotions += promoted.size();

        // Probe pings at an idle 20 us spacing; promoted flows as 1 KiB
        // messages at their rate over ~60% of the window.
        traced(tr, "sim", "schedule", [&] {
            for (ProbePair &pr : probes)
                schedulePings(*cloud, pr, p.pingsPerWindow, &tr);
            Tracer *sendTr = tr.enabled() ? &tr : nullptr;
            for (PromotedFlow &pf : promoted) {
                const net::FluidFlow *f = fluid->flow(pf.id);
                constexpr std::uint32_t kMsgBytes = 1024;
                const double rate =
                    static_cast<double>(flowRate(pf.id, w));
                const auto gap = static_cast<sim::TimePs>(
                    8.0 * kMsgBytes / rate *
                    static_cast<double>(sim::kSecond));
                ltl::LtlEngine *engine = cloud->shell(f->srcHost).ltlEngine();
                const auto budget =
                    static_cast<sim::TimePs>(0.6 * p.windowLen);
                for (sim::TimePs t = gap; t < budget; t += gap) {
                    eq.scheduleAfter(t, [engine, conn = pf.channel.sendConn(),
                                         sendTr] {
                        const Tracer::Span s(sendTr, "ltl", "send");
                        engine->sendMessage(conn, kMsgBytes);
                    });
                    ++pf.sent;
                    pf.bytesSent += kMsgBytes;
                }
            }
        });

        ctx.run([&] { eq.runFor(p.windowLen); });

        // Back across the fidelity boundary.
        for (PromotedFlow &pf : promoted) {
            flowSent += pf.sent;
            flowDelivered += pf.role->delivered();
            traced(tr, "net.fluid", "boundary", [&] {
                fluid->creditPacketBytes(pf.id, pf.bytesSent);
                fluid->demote(pf.id, flowRate(pf.id, w));
            });
            traced(tr, "fpga", "remove_role", [&] {
                cloud->shell(pf.dstHost).removeRole(pf.role->port());
            });
        }
        traced(tr, "core", "close_ltl", [&] { promoted.clear(); });

        // Lease churn against flyweight stubs: each manager() touch
        // materializes the leased server through the resolver.
        for (int j = 0; j < p.leasesPerWindow; ++j) {
            haas::LeaseConstraints lc;
            lc.requirePod = static_cast<int>(
                leaseRng.uniformInt(static_cast<std::uint64_t>(p.pods)));
            const auto lease = traced(tr, "haas", "acquire", [&] {
                return rm.acquire("bench.l2", p.hostsPerLease, lc);
            });
            if (!lease)
                sim::fatal("l2_fabric: lease acquisition failed");
            traced(tr, "haas", "manager", [&] {
                for (const int h : lease->hosts)
                    if (rm.manager(h) == nullptr)
                        sim::fatal("l2_fabric: stub resolver returned null");
            });
            leaseHosts += lease->hosts.size();
            traced(tr, "haas", "release", [&] { rm.release(lease->id); });
        }
    }
    ctx.run([&] { eq.runFor(2 * p.windowLen); });
    res.wallS = secondsSince(t1);

    // --- outputs and gates ---
    harvestProbes(probes, res);
    res.events = eq.eventsExecuted();
    res.outputs.push_back(promotions);
    res.outputs.push_back(flowSent);
    res.outputs.push_back(cloud->materializedServers());
    res.gate(res.opsFailed == 0, "l2_fabric: probe messages lost");
    res.gate(flowDelivered == flowSent,
             "l2_fabric: promoted-flow messages lost or duplicated");
    traced(tr, "net.fluid", "fold", [&] { fluid->foldAll(); });
    const net::FluidConservation c =
        traced(tr, "net.fluid", "verify", [&] { return fluid->verify(); });
    res.gate(c.ok, "l2_fabric: fluid conservation violated");
    res.outputs.push_back(c.fluidBytes);
    res.outputs.push_back(c.channelCredits);

    if (tr.enabled()) {
        addQueueCounts(res, {&eq});
        const auto mem = cloud->fabricMemoryStats();
        res.layers["core.materialized_hosts"] = mem.materializedHosts;
        res.layers["core.bytes_per_host"] = mem.bytesPerHost;
        res.layers["net.fluid.flows"] =
            static_cast<double>(fluid->flowsAdded());
        res.layers["net.fluid.promotions"] = static_cast<double>(promotions);
        res.layers["net.fluid.stall_transitions"] =
            static_cast<double>(fluid->stallTransitions());
        res.layers["haas.lease_hosts"] = static_cast<double>(leaseHosts);
        res.layers["haas.placement.affinity_skips"] =
            static_cast<double>(rm.affinitySkips());
        addRegistryCounts(res, {&hub.registry});
        res.snapshot = traced(tr, "obs", "snapshot",
                              [&] { return hub.registry.snapshotJson(); });
    }
    return res;
}

}  // namespace ccsim::bench
