/**
 * @file
 * remote_pool: the Figure 12 remote DNN pool. A 48-host pod, six
 * HaaS-deployed DNN FPGAs, and twelve software clients that each send
 * Poisson requests over LTL to a random pool member. Every request and
 * reply crosses PCIe, the Elastic Router, LTL and the switches, so this
 * is the workload where per-packet optimizations show.
 */
#include <algorithm>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "core/cloud.hpp"
#include "haas/haas.hpp"
#include "host/load_generator.hpp"
#include "roles/dnn_role.hpp"
#include "roles/ranking/ranking_role.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace ccsim::bench {

namespace {

struct PoolParams {
    int poolSize = 6;
    int clients = 12;
    double clientQps = 750.0;  ///< 7.5x the production per-client rate
    double warmupS = 1.0;
    double measureS = 12.0;
    double drainS = 0.1;  ///< ample for a pool running at ~2/3 load
};

/**
 * One software client: a forwarder role on its own shell ships requests
 * to a random pool member over LTL and receives replies on the host RX
 * path. Every request id is answered exactly once or counted as lost.
 */
class DnnClient
{
  public:
    DnnClient(sim::EventQueue &eq, Tracer &tr, core::ConfigurableCloud &cloud,
              int host, int id, std::uint64_t seed, RepResult &res,
              const sim::TimePs &measure_from)
        : queue(eq), tracer(tr), shell(cloud.shell(host)), hostIndex(host),
          clientId(id), rng(seed), result(res), measureFrom(measure_from)
    {
        if (shell.addRole(&forwarder) < 0)
            sim::fatal("remote_pool: forwarder does not fit");
        shell.setHostRxHandler(forwarder.port(),
                               [this](int, const router::ErMessagePtr &msg) {
                                   onReply(msg);
                               });
    }

    void addTarget(core::ConfigurableCloud &cloud, int pool_host)
    {
        traced(tracer, "core", "open_ltl", [&] {
            Target t;
            t.req = cloud.openLtl(hostIndex, pool_host, fpga::kErPortRole0);
            t.rep = cloud.openLtl(pool_host, hostIndex, forwarder.port());
            targets.push_back(std::move(t));
        });
    }

    void sendRequest()
    {
        const Target &t = targets[rng.uniformInt(
            static_cast<std::uint64_t>(targets.size()))];
        auto req = std::make_shared<roles::DnnRequest>();
        req->requestId = sentAt.size();
        req->clientId = clientId;
        req->replyConn = t.rep.sendConn();
        sentAt.push_back(queue.now());
        answered.push_back(0);
        auto fwd = std::make_shared<roles::ForwarderRole::ForwardRequest>();
        fwd->sendConn = t.req.sendConn();
        fwd->bytes = 512;
        fwd->inner = std::move(req);
        traced(tracer, "fpga", "send_from_host", [&] {
            shell.sendFromHost(forwarder.port(), 512, std::move(fwd));
        });
    }

    std::uint64_t sent() const { return sentAt.size(); }
    std::uint64_t unanswered() const
    {
        return static_cast<std::uint64_t>(
            std::count(answered.begin(), answered.end(), 0));
    }
    std::uint64_t duplicates() const { return dupReplies; }

  private:
    struct Target {
        core::LtlChannel req, rep;
    };

    sim::EventQueue &queue;
    Tracer &tracer;
    fpga::Shell &shell;
    int hostIndex;
    int clientId;
    sim::Rng rng;
    RepResult &result;
    const sim::TimePs &measureFrom;
    roles::ForwarderRole forwarder;
    std::vector<Target> targets;
    std::vector<sim::TimePs> sentAt;  ///< by request id
    std::vector<std::uint8_t> answered;
    std::uint64_t dupReplies = 0;

    void onReply(const router::ErMessagePtr &msg)
    {
        const auto d =
            std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
        if (!d || !d->appPayload)
            return;
        const auto resp =
            std::static_pointer_cast<roles::DnnResponse>(d->appPayload);
        const auto id = resp->requestId;
        if (resp->clientId != clientId || id >= sentAt.size() ||
            answered[id]++ != 0) {
            ++dupReplies;
            return;
        }
        if (sentAt[id] >= measureFrom)
            result.latencies.push_back(queue.now() - sentAt[id]);
    }
};

}  // namespace

RepResult
runRemotePool(const RepContext &ctx)
{
    Tracer &tr = *ctx.tracer;
    RepResult res;
    const auto rep = tr.span("driver", "rep");
    PoolParams p;
    if (ctx.smoke) {
        p.clients = 4;
        p.warmupS = 0.02;
        p.measureS = 0.1;
    }
    const auto t0 = Clock::now();

    sim::EventQueue eq;  // outlives the hub
    obs::Observability hub;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 24;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.topology.seed = sim::Rng::forStream(ctx.seed, 0).next();
    cfg.shellTemplate.ltl.maxConnections = 64;
    cfg.obs = &hub;
    auto cloud = traced(tr, "core", "build", [&] {
        return std::make_unique<core::ConfigurableCloud>(eq, cfg);
    });

    // The pool goes through HaaS; the RM hands out the lowest free hosts.
    std::vector<std::unique_ptr<roles::DnnRole>> poolRoles;
    haas::ServiceManager sm(eq, cloud->resourceManager(), "dnn",
                            [&](int) -> fpga::Role * {
                                poolRoles.push_back(
                                    std::make_unique<roles::DnnRole>(eq));
                                return poolRoles.back().get();
                            });
    const bool deployed =
        traced(tr, "haas", "deploy", [&] { return sm.deploy(p.poolSize); });
    if (!deployed)
        sim::fatal("remote_pool: DNN pool deploy failed");

    // Clients sit on a seeded choice of the remaining hosts.
    std::vector<int> free(static_cast<std::size_t>(cloud->numServers()));
    std::iota(free.begin(), free.end(), 0);
    free.erase(std::remove_if(free.begin(), free.end(),
                              [&](int h) {
                                  const auto &in = sm.instances();
                                  return std::find(in.begin(), in.end(), h) !=
                                         in.end();
                              }),
               free.end());
    sim::Rng placement = sim::Rng::forStream(ctx.seed, 1);
    for (std::size_t i = 0; i + 1 < free.size(); ++i)
        std::swap(free[i],
                  free[i + placement.uniformInt(free.size() - i)]);

    sim::TimePs measureFrom = sim::kTimeNever;
    std::vector<std::unique_ptr<DnnClient>> clients;
    std::vector<std::unique_ptr<host::PoissonLoadGenerator>> gens;
    for (int c = 0; c < p.clients; ++c) {
        const auto stream = static_cast<std::uint64_t>(2 + 2 * c);
        clients.push_back(std::make_unique<DnnClient>(
            eq, tr, *cloud, free[static_cast<std::size_t>(c)], c,
            sim::Rng::forStream(ctx.seed, stream).next(), res, measureFrom));
        for (const int instance : sm.instances())
            clients.back()->addTarget(*cloud, instance);
        gens.push_back(std::make_unique<host::PoissonLoadGenerator>(
            eq, p.clientQps,
            [client = clients.back().get()] { client->sendRequest(); },
            sim::Rng::forStream(ctx.seed, stream + 1).next()));
    }
    res.setupS = secondsSince(t0);
    if (ctx.setupOnly)
        return res;

    const auto t1 = Clock::now();
    for (auto &g : gens)
        traced(tr, "host", "start", [&] { g->start(); });
    ctx.run([&] { eq.runFor(sim::fromSeconds(p.warmupS)); });
    measureFrom = eq.now();
    // One call per simulated second (the same events as one long call),
    // so calibration points fall inside the measurement.
    const sim::TimePs measureEnd = measureFrom + sim::fromSeconds(p.measureS);
    while (eq.now() < measureEnd)
        ctx.run([&] {
            eq.runUntil(std::min(measureEnd, eq.now() + sim::kSecond));
        });
    for (auto &g : gens)
        traced(tr, "host", "stop", [&] { g->stop(); });
    ctx.run([&] { eq.runFor(sim::fromSeconds(p.drainS)); });
    res.wallS = secondsSince(t1);

    // --- outputs and gates ---
    std::uint64_t dups = 0;
    for (const auto &c : clients) {
        res.ops += c->sent();
        res.opsFailed += c->unanswered();
        dups += c->duplicates();
    }
    res.events = eq.eventsExecuted();
    res.outputs.push_back(dups);
    res.gate(res.opsFailed == 0, "remote_pool: requests left unanswered");
    res.gate(dups == 0, "remote_pool: requests answered more than once");

    if (tr.enabled()) {
        addQueueCounts(res, {&eq});
        const auto mem = cloud->fabricMemoryStats();
        res.layers["core.materialized_hosts"] = mem.materializedHosts;
        res.layers["core.bytes_per_host"] = mem.bytesPerHost;
        res.layers["haas.lease_hosts"] =
            static_cast<double>(sm.instances().size());
        addRegistryCounts(res, {&hub.registry});
        res.snapshot = traced(tr, "obs", "snapshot",
                              [&] { return hub.registry.snapshotJson(); });
    }
    return res;
}

}  // namespace ccsim::bench
