/**
 * @file
 * serving_overload: a ranking front-end submitting through a ClusterClient
 * (least-outstanding balancing, token-bucket admission at 6,200 qps) over
 * four pipelined FPGA accelerators, driven by Poisson arrivals at 1.5x the
 * 7,200 qps saturation for 10 simulated seconds. Exercises the serving
 * path of the host model, which rank_fig08's direct accelerator path
 * bypasses. Shed queries are answered degraded by the front-end; they are
 * reported as serving.shed, not as failed operations.
 */
#include <algorithm>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "serving/cluster_client.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace ccsim::bench {

namespace {

constexpr double kSaturationQps = 7200.0;
constexpr double kAdmitQps = 6200.0;
constexpr double kOverload = 1.5;
constexpr int kAccelerators = 4;

}  // namespace

RepResult
runServingOverload(const RepContext &ctx)
{
    Tracer &tr = *ctx.tracer;
    RepResult res;
    const auto rep = tr.span("driver", "rep");
    const double runS = ctx.smoke ? 0.3 : 10.0;
    const auto t0 = Clock::now();

    sim::EventQueue eq;  // outlives the hub
    obs::Observability hub;
    std::vector<std::unique_ptr<host::LocalFpgaAccelerator>> accels;
    std::vector<int> instances;
    for (int i = 0; i < kAccelerators; ++i) {
        accels.push_back(std::make_unique<host::LocalFpgaAccelerator>(eq));
        instances.push_back(i);
    }
    serving::ServingConfig scfg;
    scfg.balancer = serving::BalancerPolicy::kLeastOutstanding;
    scfg.admission.withRate(kAdmitQps, 64.0);
    scfg.seed = sim::Rng::forStream(ctx.seed, 0).next();
    auto cluster = traced(tr, "serving", "build", [&] {
        auto c = std::make_unique<serving::ClusterClient>(
            eq, "rank", [&instances] { return instances; }, scfg);
        for (int i = 0; i < kAccelerators; ++i)
            c->registerEndpoint(i, accels[static_cast<std::size_t>(i)].get());
        c->attachObservability(&hub);
        return c;
    });
    auto server = traced(tr, "host", "build", [&] {
        auto s = std::make_unique<host::RankingServer>(
            eq, host::RankingServiceParams{}, nullptr,
            sim::Rng::forStream(ctx.seed, 1).next());
        s->attachCluster(*cluster, "bing");
        s->attachObservability(&hub);
        return s;
    });
    std::uint64_t admitted = 0;
    host::PoissonLoadGenerator gen(
        eq, kOverload * kSaturationQps,
        [&] {
            ++res.ops;
            const bool accepted = traced(tr, "serving", "submit", [&] {
                return server->submitQuery([&res](sim::TimePs lat) {
                    res.latencies.push_back(lat);
                });
            });
            admitted += accepted ? 1 : 0;
        },
        sim::Rng::forStream(ctx.seed, 2).next());
    res.setupS = secondsSince(t0);
    if (ctx.setupOnly)
        return res;

    const auto t1 = Clock::now();
    traced(tr, "host", "start", [&] { gen.start(); });
    // One call per simulated second (the same events as one long call),
    // so calibration points fall inside the run.
    const sim::TimePs end = sim::fromSeconds(runS);
    while (eq.now() < end)
        ctx.run([&] { eq.runUntil(std::min(end, eq.now() + sim::kSecond)); });
    traced(tr, "host", "stop", [&] { gen.stop(); });
    ctx.run([&] { eq.runAll(); });
    res.wallS = secondsSince(t1);

    // --- outputs and gates ---
    res.opsFailed = admitted - server->completed();
    res.events = eq.eventsExecuted();
    res.outputs.push_back(admitted);
    res.gate(res.opsFailed == 0, "serving_overload: admitted queries lost");
    res.gate(admitted + server->shedQueries() == res.ops,
             "serving_overload: submissions neither admitted nor shed");
    res.gate(server->shedQueries() > 0,
             "serving_overload: no shedding at 1.5x saturation");

    if (tr.enabled()) {
        addQueueCounts(res, {&eq});
        res.layers["host.queries"] = static_cast<double>(server->completed());
        res.layers["host.sw_feature_queries"] =
            static_cast<double>(server->softwareFeatureQueries());
        res.layers["serving.routed"] = static_cast<double>(cluster->routed());
        res.layers["serving.admitted"] =
            static_cast<double>(cluster->admission().admitted());
        res.layers["serving.shed"] =
            static_cast<double>(server->shedQueries());
        res.layers["serving.shed_ratio"] =
            static_cast<double>(server->shedQueries()) /
            static_cast<double>(res.ops);
        res.layers["serving.outlier.ejections"] =
            static_cast<double>(cluster->outliers().ejections());
        addRegistryCounts(res, {&hub.registry});
        res.snapshot = traced(tr, "obs", "snapshot",
                              [&] { return hub.registry.snapshotJson(); });
    }
    return res;
}

}  // namespace ccsim::bench
