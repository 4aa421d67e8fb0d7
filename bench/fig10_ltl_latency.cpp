/**
 * @file
 * Reproduces Figure 10: round-trip latency of LTL accesses to remote
 * FPGAs through the three datacenter network tiers, compared against the
 * Catapult v1 6x8 torus (which is limited to 48 FPGAs).
 *
 * Methodology mirrors the paper: idle-rate ping-pong across multiple
 * sender-receiver pairs per tier; RTT is measured inside LTL, from the
 * moment a data frame's header is generated until its ACK is received.
 * L1/L2 results include background-traffic jitter from the shared
 * switches.
 *
 * The RTT figures are read from the observability registry (the
 * `ltl.node<i>.rtt_us` histograms the engines feed), and setting
 * CCSIM_TRACE=<path> additionally exports a Chrome trace of the runs.
 *
 * Flags:
 *  --quick        shortened run (fewer pings/pairs) for CI smoke;
 *  --attribution  sample every ping through the flight recorder and
 *                 print a per-hop latency-attribution table per tier
 *                 (the components-sum-to-total invariant is checked for
 *                 every exemplar; CCSIM_SPANS=<path> dumps the spans).
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "core/cloud.hpp"
#include "fpga/shell.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "scenario_util.hpp"
#include "sim/sharded_queue.hpp"
#include "sim/stats.hpp"
#include "torus/torus.hpp"

using namespace ccsim;

namespace {

/**
 * Measure RTT for a set of (src, dst) host pairs: each src sends
 * `pings` one-frame messages at an idle rate. Per-pair distributions are
 * read from the registry's `ltl.node<src>.rtt_us` histogram and merged
 * into one tier-level histogram.
 */
sim::LogHistogram
measurePairs(core::ConfigurableCloud &cloud, sim::ShardedEventQueue &sq,
             obs::Observability &hub,
             const std::vector<std::pair<int, int>> &pairs, int pings)
{
    sim::LogHistogram tier(obs::kDefaultHistMinValue,
                           obs::kDefaultHistBinsPerOctave);
    std::vector<std::unique_ptr<fpga::NullRole>> roles;
    for (auto [src, dst] : pairs) {
        roles.push_back(std::make_unique<fpga::NullRole>());
        if (cloud.shell(dst).addRole(roles.back().get()) < 0)
            sim::fatal("fig10: no role slot on destination shell");
        auto ch = cloud.openLtl(src, dst, roles.back()->port);
        auto *engine = cloud.shell(src).ltlEngine();
        auto &q = cloud.queueFor(src);
        auto &rtt_hist = hub.registry.histogram(
            "ltl.node" + std::to_string(src) + ".rtt_us");
        rtt_hist.clear();  // pairs may share a source engine
        // Idle rate: 20 us spacing, far below saturation.
        for (int i = 0; i < pings; ++i) {
            q.scheduleAfter(i * 20 * sim::kMicrosecond,
                            [engine, conn = ch.sendConn()] {
                                engine->sendMessage(conn, 64);
                            });
        }
        sq.runFor((pings + 50) * 20 * sim::kMicrosecond);
        tier.merge(rtt_hist);
    }
    return tier;
}

void
printRow(const char *tier, std::uint64_t reachable, double avg, double p999,
         double max, const char *paper)
{
    std::printf("  %-14s %9llu %10.2f %10.2f %10.2f   %s\n", tier,
                static_cast<unsigned long long>(reachable), avg, p999, max,
                paper);
}

/**
 * Attribution-mode tier postlude: verify the sum-to-total invariant on
 * every kept exemplar (fatal on violation), print the per-hop breakdown
 * of the worst trace, and feed the exemplars into the Chrome trace.
 *
 * @return The number of exemplars whose invariant was checked.
 */
std::uint64_t
tierAttribution(obs::Observability &hub, const char *tier)
{
    const auto worst = hub.flows.worstFirst();
    for (const obs::FlowTrace *t : worst) {
        const obs::LatencyAttribution a = obs::attributeLatency(*t);
        if (!a.consistent())
            sim::fatalf("fig10: attribution invariant violated for trace ",
                        t->traceId, ": components sum to ", a.sum(),
                        " ps, measured total is ", a.total, " ps");
    }
    if (!worst.empty()) {
        std::printf("\n-- %s: per-hop attribution of the worst of %zu "
                    "exemplars --\n%s", tier, worst.size(),
                    obs::formatAttributionTable(*worst.front()).c_str());
    }
    if (hub.trace.enabled())
        hub.flows.exportChromeTrace(hub.trace);
    return worst.size();
}

}  // namespace

int
main(int argc, char **argv)
{
    const bench::Flags flags(argc, argv, {{"--quick"}, {"--attribution"}});
    const bool quick = flags.has("--quick");
    const bool attribution = flags.has("--attribution");

    std::printf("=== Figure 10: LTL round-trip latency vs reachable "
                "hosts ===\n\n");
    std::printf("Simulated: 24 hosts/rack, idle-rate ping-pong, RTT "
                "measured in LTL\n(data header generated -> ACK "
                "received), multiple pairs per tier.\n\n");

    sim::ShardedEventQueue sq;  // one partition: a single-queue simulation
    obs::Observability hub;
    const std::string trace_path = obs::TraceWriter::envPath();
    if (!trace_path.empty()) {
        hub.trace.setEnabled(true);
        // Salvage the buffered events even if a later stage fatals.
        hub.trace.autoFlushOnExit(trace_path);
    }

    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 24;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 2;
    cfg.topology.l2Count = 2;
    cfg.createNics = false;  // pure LTL study
    cfg.shellTemplate.ltl.maxConnections = 64;
    cfg.shellTemplate.roleSlots = 8;
    cfg.obs = &hub;
    // The one probe sampler: rolls every registry metric at a barrier
    // every 100 us of simulated time and (when CCSIM_TRACE is set) draws
    // the counter tracks of the exported trace.
    obs::TimeSeriesHub ts(
        obs::TimeSeriesConfig{.window = 100 * sim::kMicrosecond});
    cfg.timeSeries = &ts;
    if (attribution) {
        cfg.flowSampleEvery = 1;
        cfg.flowTailCapacity = 32;
    }
    core::ConfigurableCloud cloud(sq.partition(0), cfg);
    ts.startSampling(sq);

    const int kPings = quick ? 60 : 300;
    const int kPairs = quick ? 2 : 6;
    std::uint64_t attributionChecked = 0;

    // L0: pairs under one TOR.
    std::vector<std::pair<int, int>> l0_pairs;
    for (int k = 1; k <= kPairs; ++k)
        l0_pairs.push_back({0, k});
    auto l0 = measurePairs(cloud, sq, hub, l0_pairs, kPings);
    if (attribution) {
        attributionChecked += tierAttribution(hub, "L0 (same TOR)");
        hub.flows.newWindow();
    }

    // L1: pairs across racks within a pod (hosts 0..23 rack0, 24..47
    // rack1 of pod 0).
    std::vector<std::pair<int, int>> l1_pairs;
    for (int k = 0; k < kPairs; ++k)
        l1_pairs.push_back({k, 24 + k});
    auto l1 = measurePairs(cloud, sq, hub, l1_pairs, kPings);
    if (attribution) {
        attributionChecked += tierAttribution(hub, "L1 (pod)");
        hub.flows.newWindow();
    }

    // L2: pairs across pods.
    std::vector<std::pair<int, int>> l2_pairs;
    for (int k = 0; k < kPairs; ++k)
        l2_pairs.push_back({k, 48 + k});
    auto l2 = measurePairs(cloud, sq, hub, l2_pairs, kPings);
    if (attribution)
        attributionChecked += tierAttribution(hub, "L2 (datacenter)");

    std::printf("  %-14s %9s %10s %10s %10s   %s\n", "tier",
                "reachable", "avg(us)", "p99.9(us)", "max(us)",
                "paper avg / p99.9");
    printRow("L0 (same TOR)", 24, l0.mean(), l0.percentile(99.9), l0.max(),
             "2.88 / 2.9");
    printRow("L1 (pod)", 960, l1.mean(), l1.percentile(99.9), l1.max(),
             "7.72 / 8.24");
    printRow("L2 (datacenter)", 250000, l2.mean(), l2.percentile(99.9),
             l2.max(), "18.71 / 22.38 (max < 23.5)");

    // --- Catapult v1 6x8 torus comparison -------------------------------
    std::printf("\n  6x8 torus baseline (Catapult v1, max 48 FPGAs):\n");
    std::printf("  %-16s %10s %10s %10s\n", "reachable FPGAs", "avg(us)",
                "min(us)", "max(us)");
    torus::TorusNetwork torus;
    // Order nodes by hop distance from (0,0); the first N reachable
    // nodes give the latency profile at that scale.
    std::vector<std::pair<int, torus::TorusCoord>> by_dist;
    for (int x = 0; x < torus.width(); ++x) {
        for (int y = 0; y < torus.height(); ++y) {
            if (x == 0 && y == 0)
                continue;
            by_dist.push_back({*torus.hopCount({0, 0}, {x, y}),
                               torus::TorusCoord{x, y}});
        }
    }
    std::sort(by_dist.begin(), by_dist.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (int count : {2, 4, 8, 16, 32, 48}) {
        sim::SampleStats rtt;
        for (int i = 0; i < count - 1 &&
                        i < static_cast<int>(by_dist.size());
             ++i) {
            rtt.add(sim::toMicros(
                *torus.roundTripLatency({0, 0}, by_dist[i].second)));
        }
        std::printf("  %-16d %10.2f %10.2f %10.2f\n", count, rtt.mean(),
                    rtt.min(), rtt.max());
    }
    std::printf("\n  paper: torus 1-hop RTT ~1 us, worst case ~7 us; "
                "LTL reaches 100,000+ hosts in < 23.5 us.\n");

    std::printf("\nSamples: L0=%llu L1=%llu L2=%llu\n",
                static_cast<unsigned long long>(l0.count()),
                static_cast<unsigned long long>(l1.count()),
                static_cast<unsigned long long>(l2.count()));

    if (attribution) {
        std::printf("attribution invariant: OK (%llu traces)\n",
                    static_cast<unsigned long long>(attributionChecked));
        const std::string spans_path = obs::FlightRecorder::envPath();
        if (!spans_path.empty()) {
            // Only the last window (L2) is still kept at this point.
            if (hub.flows.writeSpanDumpFile(spans_path))
                std::printf("Span dump written to %s (%zu exemplars)\n",
                            spans_path.c_str(),
                            hub.flows.exemplars().size());
            else
                std::fprintf(stderr,
                             "fig10: failed to write span dump to %s\n",
                             spans_path.c_str());
        }
    }

    if (!trace_path.empty()) {
        if (hub.trace.writeFile(trace_path))
            std::printf("Chrome trace written to %s (%zu events; open in "
                        "ui.perfetto.dev)\n",
                        trace_path.c_str(), hub.trace.eventCount());
        else
            std::fprintf(stderr, "fig10: failed to write trace to %s\n",
                         trace_path.c_str());
    }
    return 0;
}
