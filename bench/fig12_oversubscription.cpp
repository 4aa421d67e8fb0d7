/**
 * @file
 * Reproduces Figure 12: average, 95th and 99th percentile request
 * latency to a remote DNN accelerator pool as the ratio of software
 * clients to FPGAs (oversubscription) grows, normalized per-category to
 * locally-attached performance (Section V-E).
 *
 * Setup mirrors the paper: a small pool of latency-sensitive DNN
 * accelerators deployed through HaaS, shared by synthetic clients that
 * each drive several times the expected production per-client rate
 * (7.5x here), so each FPGA saturates at 3.0 clients — equivalently,
 * it could sustain 22.5 clients at production rates.
 */
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_json.hpp"
#include "core/cloud.hpp"
#include "haas/haas.hpp"
#include "host/load_generator.hpp"
#include "roles/dnn_role.hpp"
#include "roles/ranking/ranking_role.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

using namespace ccsim;

namespace {

/** Synthetic per-client request rate: 7.5x the production rate. */
constexpr double kClientQps = 750.0;
/** Fixed client count; oversubscription grows by removing pool FPGAs. */
constexpr int kNumClients = 12;

struct Percentiles {
    double avg, p95, p99;
};

/** One software client driving the pool round-robin over LTL. */
class DnnClient
{
  public:
    DnnClient(sim::EventQueue &eq, core::ConfigurableCloud &cloud,
              int host, int id, sim::SampleStats &lat_us)
        : queue(eq), shell(cloud.shell(host)), clientId(id),
          latencies(lat_us)
    {
        forwarder = std::make_unique<roles::ForwarderRole>();
        if (shell.addRole(forwarder.get()) < 0)
            sim::fatal("fig12: forwarder does not fit");
        shell.setHostRxHandler(
            [this](int port, const router::ErMessagePtr &msg) {
                onHostRx(port, msg);
            });
    }

    void addTarget(core::ConfigurableCloud &cloud, int pool_host)
    {
        Target t;
        t.req = cloud.openLtl(shellHost(cloud), pool_host,
                              fpga::kErPortRole0);
        t.rep = cloud.openLtl(pool_host, shellHost(cloud),
                              forwarder->port());
        targets.push_back(std::move(t));
    }

    void sendRequest()
    {
        // Per-request random pool member (the paper's shared work queue
        // spreads requests without per-client affinity).
        const Target &t = targets[rng.uniformInt(
            static_cast<std::uint64_t>(targets.size()))];
        auto req = std::make_shared<roles::DnnRequest>();
        req->requestId = nextId++;
        req->clientId = clientId;
        req->replyConn = t.rep.sendConn();
        outstanding[req->requestId] = queue.now();
        auto fwd = std::make_shared<roles::ForwarderRole::ForwardRequest>();
        fwd->sendConn = t.req.sendConn();
        fwd->bytes = 512;
        fwd->inner = std::move(req);
        shell.sendFromHost(forwarder->port(), 512, std::move(fwd));
    }

    void clearInFlight() { outstanding.clear(); }

  private:
    struct Target {
        core::LtlChannel req, rep;
    };

    sim::EventQueue &queue;
    fpga::Shell &shell;
    int clientId;
    sim::SampleStats &latencies;
    std::unique_ptr<roles::ForwarderRole> forwarder;
    std::vector<Target> targets;
    std::unordered_map<std::uint64_t, sim::TimePs> outstanding;
    std::uint64_t nextId = 1;
    sim::Rng rng{static_cast<std::uint64_t>(clientId) * 7919 + 3};

    int shellHost(core::ConfigurableCloud &cloud)
    {
        for (int i = 0; i < cloud.numServers(); ++i) {
            if (&cloud.shell(i) == &shell)
                return i;
        }
        sim::fatal("fig12: shell not found");
    }

    void onHostRx(int port, const router::ErMessagePtr &msg)
    {
        if (port != forwarder->port())
            return;
        auto delivery =
            std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
        if (!delivery || !delivery->appPayload)
            return;
        auto resp = std::static_pointer_cast<roles::DnnResponse>(
            delivery->appPayload);
        auto it = outstanding.find(resp->requestId);
        if (it == outstanding.end())
            return;
        latencies.add(sim::toMicros(queue.now() - it->second));
        outstanding.erase(it);
    }
};

Percentiles
measureRemote(int pool_size, double seconds)
{
    sim::EventQueue eq;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 24;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.shellTemplate.ltl.maxConnections = 64;
    core::ConfigurableCloud cloud(eq, cfg);

    // Deploy the DNN pool through HaaS; the RM hands out the lowest
    // free hosts (0..pool_size-1); clients use the hosts after them.
    std::vector<std::unique_ptr<roles::DnnRole>> pool_roles;
    haas::ServiceManager sm(
        eq, cloud.resourceManager(), "dnn", [&](int) -> fpga::Role * {
            pool_roles.push_back(std::make_unique<roles::DnnRole>(eq));
            return pool_roles.back().get();
        });
    if (!sm.deploy(pool_size))
        sim::fatal("fig12: DNN pool deploy failed");

    sim::SampleStats latencies;
    std::vector<std::unique_ptr<DnnClient>> clients;
    std::vector<std::unique_ptr<host::PoissonLoadGenerator>> gens;
    for (int c = 0; c < kNumClients; ++c) {
        const int host = pool_size + c;  // hosts after the pool
        clients.push_back(std::make_unique<DnnClient>(eq, cloud, host, c,
                                                      latencies));
        for (int instance : sm.instances())
            clients.back()->addTarget(cloud, instance);
        gens.push_back(std::make_unique<host::PoissonLoadGenerator>(
            eq, kClientQps,
            [client = clients.back().get()] { client->sendRequest(); },
            1000 + c));
    }
    for (auto &g : gens)
        g->start();
    eq.runFor(sim::fromSeconds(1.0));  // warm-up
    latencies.clear();
    eq.runFor(sim::fromSeconds(seconds));
    for (auto &g : gens)
        g->stop();

    return Percentiles{latencies.mean(), latencies.percentile(95.0),
                       latencies.percentile(99.0)};
}

Percentiles
measureLocal(double seconds)
{
    // Locally-attached baseline: one client, its own FPGA, PCIe only.
    sim::EventQueue eq;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 2;
    cfg.topology.racksPerPod = 1;
    cfg.topology.l1PerPod = 1;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    core::ConfigurableCloud cloud(eq, cfg);

    roles::DnnRole dnn(eq);
    if (cloud.shell(0).addRole(&dnn) < 0)
        sim::fatal("fig12: DNN role does not fit");

    sim::SampleStats latencies;
    std::unordered_map<std::uint64_t, sim::TimePs> outstanding;
    cloud.shell(0).setHostRxHandler(
        [&](int, const router::ErMessagePtr &msg) {
            auto resp =
                std::static_pointer_cast<roles::DnnResponse>(msg->payload);
            auto it = outstanding.find(resp->requestId);
            if (it == outstanding.end())
                return;
            latencies.add(sim::toMicros(eq.now() - it->second));
            outstanding.erase(it);
        });

    std::uint64_t next_id = 1;
    host::PoissonLoadGenerator gen(
        eq, kClientQps,
        [&] {
            auto req = std::make_shared<roles::DnnRequest>();
            req->requestId = next_id++;
            req->replyViaPcie = true;
            outstanding[req->requestId] = eq.now();
            cloud.shell(0).sendFromHost(fpga::kErPortRole0, 512,
                                        std::move(req));
        },
        999);
    gen.start();
    eq.runFor(sim::fromSeconds(1.0));
    latencies.clear();
    eq.runFor(sim::fromSeconds(seconds));
    gen.stop();
    return Percentiles{latencies.mean(), latencies.percentile(95.0),
                       latencies.percentile(99.0)};
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    std::printf("=== Figure 12: remote DNN pool latency vs "
                "oversubscription ===\n\n");
    std::printf("%d clients drive %.0f req/s each (7.5x production "
                "rate); oversubscription grows by\nremoving FPGAs from "
                "the HaaS pool. DNN service time 444 us => saturation "
                "at 3.0\nclients/FPGA (equivalently 22.5 clients at "
                "production rates).\n\n", kNumClients, kClientQps);

    const Percentiles local = measureLocal(20.0);
    std::printf("locally-attached baseline: avg %.0f us, p95 %.0f us, "
                "p99 %.0f us\n\n", local.avg, local.p95, local.p99);

    std::printf("  %8s %6s | %8s %8s %8s | %8s %8s %8s\n", "ratio",
                "pool", "avg(us)", "p95(us)", "p99(us)", "avg/loc",
                "p95/loc", "p99/loc");
    for (int pool : {24, 12, 8, 6, 5, 4}) {
        const double ratio = static_cast<double>(kNumClients) / pool;
        const Percentiles r = measureRemote(pool, 6.0);
        std::printf("  %8.2f %6d | %8.0f %8.0f %8.0f | %8.2f %8.2f "
                    "%8.2f\n",
                    ratio, pool, r.avg, r.p95, r.p99, r.avg / local.avg,
                    r.p95 / local.p95, r.p99 / local.p99);
    }

    std::printf("\npaper reference at 1:1 — remote adds +1%% avg, +4.7%% "
                "p95, +32%% p99; latencies spike as the\npool approaches "
                "saturation; host CPU/memory impact of serving remote "
                "requests is nil\n(the FPGA handles network and compute "
                "directly).\n");
    return 0;
}
