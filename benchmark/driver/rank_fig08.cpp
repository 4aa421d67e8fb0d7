/**
 * @file
 * rank_fig08: the Figure 8 software and FPGA ranking datacenters over a
 * two-day diurnal trace on the sequential kernel. No cloud, network or
 * LTL is built, so this is the bypass workload for every network-layer
 * change; it stresses kernel dispatch and the host queueing model.
 */
#include <algorithm>
#include <map>
#include <memory>

#include "bench.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace ccsim::bench {

namespace {

constexpr double kSoftwareNominalQps = 3100.0;

/** One ranking datacenter: a representative server under its trace. */
struct Datacenter {
    const char *name;
    bool fpga;
    double demandPeakQps;
    bool balancer;  ///< the software datacenter's dynamic load balancer
    std::unique_ptr<host::LocalFpgaAccelerator> accel;
    std::unique_ptr<host::RankingServer> server;
    std::unique_ptr<host::PoissonLoadGenerator> gen;
    std::uint64_t submitted = 0;
    /** (load normalized to the software nominal point, p99.9 ms). */
    std::vector<std::pair<double, double>> windows;
};

}  // namespace

RepResult
runRankFig08(const RepContext &ctx)
{
    Tracer &tr = *ctx.tracer;
    RepResult res;
    const auto rep = tr.span("driver", "rep");
    const auto t0 = Clock::now();

    // The trace shape is the fixed production trace; the seed drives
    // arrivals and service times only, so work per seed stays constant.
    host::DiurnalTraceParams tp;
    tp.days = ctx.smoke ? 1 : 2;
    tp.windowsPerDay = ctx.smoke ? 4 : 48;
    const double settleS = ctx.smoke ? 0.1 : 1.5;
    const double measureS = ctx.smoke ? 0.2 : 4.0;
    const std::vector<double> trace = host::makeDiurnalTrace(tp);

    // Queues outlive the hub, and the hub outlives the servers.
    sim::EventQueue queues[2];
    obs::Observability hub;
    Datacenter dcs[2] = {{"sw", false, 3400.0, true, {}, {}, {}, 0, {}},
                         {"fpga", true, 4500.0, false, {}, {}, {}, 0, {}}};
    for (int i = 0; i < 2; ++i) {
        Datacenter &dc = dcs[i];
        sim::EventQueue &eq = queues[i];
        const auto stream = static_cast<std::uint64_t>(2 * i);
        traced(tr, "host", "build", [&] {
            if (dc.fpga)
                dc.accel = std::make_unique<host::LocalFpgaAccelerator>(eq);
            dc.server = std::make_unique<host::RankingServer>(
                eq, host::RankingServiceParams{}, dc.accel.get(),
                sim::Rng::forStream(ctx.seed, stream).next());
            dc.server->attachObservability(&hub, dc.name);
            // The latency metric is the FPGA datacenter's: the software
            // datacenter's tail is set by its balancer reacting to its own
            // p99.9, which swings widely from seed to seed.
            std::vector<sim::TimePs> *sink =
                dc.fpga ? &res.latencies : nullptr;
            dc.gen = std::make_unique<host::PoissonLoadGenerator>(
                eq, 100.0,
                [&dc, sink] {
                    ++dc.submitted;
                    if (sink == nullptr) {
                        dc.server->submitQuery();
                        return;
                    }
                    dc.server->submitQuery(
                        [sink](sim::TimePs lat) { sink->push_back(lat); });
                },
                sim::Rng::forStream(ctx.seed, stream + 1).next());
        });
    }
    res.setupS = secondsSince(t0);
    if (ctx.setupOnly)
        return res;

    const auto t1 = Clock::now();
    for (int i = 0; i < 2; ++i) {
        Datacenter &dc = dcs[i];
        sim::EventQueue &eq = queues[i];
        const sim::LogHistogram *latency = hub.registry.findHistogram(
            std::string("host.") + dc.name + ".latency_ms");
        traced(tr, "host", "start", [&] { dc.gen->start(); });
        double admittedCap = dc.demandPeakQps;
        for (const double load : trace) {
            double admitted = load * dc.demandPeakQps;
            if (dc.balancer)
                admitted = std::min(admitted, admittedCap);
            traced(tr, "host", "set_rate", [&] { dc.gen->setRate(admitted); });
            ctx.run([&] { eq.runFor(sim::fromSeconds(settleS)); });
            traced(tr, "host", "clear_stats",
                   [&] { dc.server->clearStats(); });
            ctx.run([&] { eq.runFor(sim::fromSeconds(measureS)); });
            const double p999 = traced(tr, "obs", "hist_read", [&] {
                return latency->percentile(99.9);
            });
            dc.windows.emplace_back(admitted / kSoftwareNominalQps, p999);
            if (dc.balancer) {
                // Shed when tails blow up, re-admit slowly on recovery.
                if (p999 > 40.0)
                    admittedCap =
                        std::max(0.85 * admitted, 0.5 * dc.demandPeakQps);
                else
                    admittedCap =
                        std::min(dc.demandPeakQps, admittedCap * 1.05);
            }
        }
        traced(tr, "host", "stop", [&] { dc.gen->stop(); });
        ctx.run([&] { eq.runAll(); });
    }
    res.wallS = secondsSince(t1);

    // --- outputs and gates (outside the timed region) ---
    std::uint64_t completed = 0;
    for (const Datacenter &dc : dcs) {
        res.ops += dc.submitted;
        completed += dc.server->completed();
        for (const auto &[load, p999] : dc.windows) {
            res.outputDouble(load);
            res.outputDouble(p999);
        }
    }
    res.opsFailed = res.ops - completed;
    res.events = queues[0].eventsExecuted() + queues[1].eventsExecuted();
    res.gate(res.opsFailed == 0, "rank_fig08: queries left unanswered");

    // "...a latency that never exceeds the software datacenter at any
    // load": compare the worst p99.9 per overlapping 0.1 load bin.
    std::map<int, double> worst[2];
    for (int i = 0; i < 2; ++i)
        for (const auto &[load, p999] : dcs[i].windows) {
            double &w = worst[i][static_cast<int>(load * 10.0 + 0.5)];
            w = std::max(w, p999);
        }
    for (const auto &[bin, fpgaWorst] : worst[1]) {
        const auto it = worst[0].find(bin);
        res.gate(it == worst[0].end() || fpgaWorst <= it->second,
                 "rank_fig08: FPGA p99.9 exceeds software at load bin " +
                     std::to_string(bin));
    }

    if (tr.enabled()) {
        addQueueCounts(res, {&queues[0], &queues[1]});
        res.layers["host.queries"] = static_cast<double>(completed);
        res.layers["host.sw_feature_queries"] =
            static_cast<double>(dcs[0].server->softwareFeatureQueries() +
                                dcs[1].server->softwareFeatureQueries());
        addRegistryCounts(res, {&hub.registry});
        res.snapshot = traced(tr, "obs", "snapshot",
                              [&] { return hub.registry.snapshotJson(); });
    }
    return res;
}

}  // namespace ccsim::bench
