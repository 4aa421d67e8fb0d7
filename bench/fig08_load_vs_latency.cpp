/**
 * @file
 * Reproduces Figure 8: query 99.9% latency versus offered load over the
 * same 5-day period as Figure 7, for the software-only and the
 * FPGA-accelerated datacenters.
 *
 * Paper observations this must reproduce:
 *  - the software datacenter's observable load range is capped (the
 *    dynamic load balancer sheds traffic when tails exceed thresholds);
 *  - the FPGA datacenter absorbs more than twice the offered load;
 *  - the FPGA curve never exceeds the software curve at any load.
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

#include "bench_json.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

using namespace ccsim;

namespace {

constexpr double kSoftwareNominalQps = 3100.0;

struct WindowPoint {
    double loadNorm;
    double p999Ms;
};

/** Kernel-load accounting for the benchmark trajectory. */
struct KernelLoad {
    std::uint64_t eventsExecuted = 0;
    std::size_t peakLiveEvents = 0;
    std::uint64_t wheelOverflows = 0;  ///< summed over the queues
};

std::vector<WindowPoint>
runDatacenter(const std::vector<double> &trace, bool use_fpga,
              double demand_peak_qps, bool balancer,
              KernelLoad *kernel = nullptr, bool attribution = false)
{
    sim::ShardedEventQueue sq;  // one partition: a single-queue simulation
    sim::EventQueue &eq = sq.partition(0);
    obs::Observability hub;
    if (attribution) {
        // Flight-recorder sampling: 1-in-16 keeps recording cost small
        // while still catching the tail (worst-N exemplars per run).
        hub.flows.setEnabled(true);
        hub.flows.setSampleEvery(16);
        hub.flows.setTailCapacity(16);
        hub.flows.bindMetrics(hub.registry);
    }
    std::unique_ptr<host::LocalFpgaAccelerator> accel;
    if (use_fpga)
        accel = std::make_unique<host::LocalFpgaAccelerator>(eq);
    host::RankingServer server(eq, host::RankingServiceParams{},
                               accel.get(), 21);
    server.attachObservability(&hub);
    host::PoissonLoadGenerator gen(eq, 100.0,
                                   [&] { server.submitQuery(); }, 23);

    // Optional live telemetry: CCSIM_TS=<path> streams 50 ms windows of
    // every host.rank.* metric as JSONL (both datacenters append to the
    // same file; feed it to tools/ccsim_report for the dashboard).
    const std::string tsPath = obs::TimeSeriesHub::envPath();
    std::unique_ptr<obs::TimeSeriesHub> ts;
    std::unique_ptr<obs::SloEngine> slo;
    std::ofstream tsOut;
    if (!tsPath.empty()) {
        ts = std::make_unique<obs::TimeSeriesHub>(
            obs::TimeSeriesConfig{.window = 50 * sim::kMillisecond});
        ts->watchRegistry(&hub.registry);
        ts->registerSelfProbes(hub.registry);
        tsOut.open(tsPath, std::ios::app);
        if (!tsOut)
            sim::fatalf("fig08: cannot write CCSIM_TS path ", tsPath);
        ts->exportTo(&tsOut);
        ts->startSampling(sq);
        slo = std::make_unique<obs::SloEngine>(*ts);
        slo->addObjective(
            {.name = use_fpga ? "fpga_rank_p999" : "sw_rank_p999",
             .series = "host.rank.latency_ms", .stat = obs::SloStat::kP999,
             .cmp = obs::SloCmp::kLt, .threshold = 12.0, .errorBudget = 0.05,
             .longWindows = 60, .shortWindows = 5, .burnThreshold = 4.0});
        slo->attachObservability(hub.registry);
    }
    gen.start();

    // The figure is read from the registry, not the server's raw stats.
    const sim::LogHistogram *latency =
        hub.registry.findHistogram("host.rank.latency_ms");

    double admitted_cap = demand_peak_qps;
    std::vector<WindowPoint> points;
    for (double load : trace) {
        double admitted = load * demand_peak_qps;
        if (balancer)
            admitted = std::min(admitted, admitted_cap);
        gen.setRate(admitted);
        sq.runFor(sim::fromSeconds(1.5));
        server.clearStats();
        sq.runFor(sim::fromSeconds(4.0));
        const double p999 = latency->percentile(99.9);
        points.push_back({admitted / kSoftwareNominalQps, p999});
        if (balancer) {
            if (p999 > 40.0)
                admitted_cap =
                    std::max(0.85 * admitted, 0.5 * demand_peak_qps);
            else
                admitted_cap =
                    std::min(demand_peak_qps, admitted_cap * 1.05);
        }
    }
    if (ts) {
        std::printf("  telemetry: %llu windows, %llu JSONL lines, %llu "
                    "SLO alerts -> %s\n",
                    static_cast<unsigned long long>(ts->windowsClosed()),
                    static_cast<unsigned long long>(ts->exportedLines()),
                    static_cast<unsigned long long>(slo->alertsFired()),
                    tsPath.c_str());
    }
    if (kernel != nullptr) {
        kernel->eventsExecuted += eq.eventsExecuted();
        kernel->peakLiveEvents =
            std::max(kernel->peakLiveEvents, eq.peakLiveEvents());
        kernel->wheelOverflows += eq.wheelOverflows();
    }
    if (attribution) {
        const auto worst = hub.flows.worstFirst();
        for (const obs::FlowTrace *t : worst) {
            const obs::LatencyAttribution a = obs::attributeLatency(*t);
            if (!a.consistent())
                sim::fatalf("fig08: attribution invariant violated for "
                            "trace ", t->traceId, ": components sum to ",
                            a.sum(), " ps, measured total is ", a.total,
                            " ps");
        }
        std::printf("\n-- %s datacenter: per-hop attribution of the "
                    "worst of %zu exemplars (%llu flows sampled) --\n",
                    use_fpga ? "FPGA" : "software", worst.size(),
                    static_cast<unsigned long long>(
                        hub.flows.flowsSampled()));
        if (!worst.empty())
            std::printf("%s",
                        obs::formatAttributionTable(*worst.front())
                            .c_str());
        std::printf("attribution invariant: OK (%zu traces)\n\n",
                    worst.size());
    }
    return points;
}

/** One pod of the sharded benchmark: a full ranking-datacenter replica. */
struct BenchPod {
    std::unique_ptr<obs::Observability> hub;
    std::unique_ptr<host::LocalFpgaAccelerator> accel;
    std::unique_ptr<host::RankingServer> server;
    std::unique_ptr<host::PoissonLoadGenerator> gen;
    const sim::LogHistogram *latency = nullptr;
    double admittedCap = 0;
    double admitted = 0;
};

/**
 * The parallel-kernel benchmark: @p pods independent replicas of the
 * Figure 8 datacenter, one per partition (logical process), executed by
 * @p threads workers. Each pod draws its service and arrival randomness
 * from Rng::forStream(master, pod) — the same per-pod sequences at
 * every thread count — and runs its own load-balancer control loop, so
 * the workload is embarrassingly parallel by construction and measures
 * pure kernel scaling (events/s/core).
 */
KernelLoad
runShardedDatacenter(const std::vector<double> &trace, bool use_fpga,
                     double demand_peak_qps, bool balancer, int pods,
                     int threads)
{
    sim::ShardedEventQueue::Config qc;
    qc.partitions = pods;
    qc.threads = threads;
    sim::ShardedEventQueue sq(qc);

    std::vector<BenchPod> fleet(static_cast<std::size_t>(pods));
    for (int p = 0; p < pods; ++p) {
        BenchPod &pod = fleet[static_cast<std::size_t>(p)];
        sim::EventQueue &eq = sq.partition(p);
        pod.hub = std::make_unique<obs::Observability>();
        if (use_fpga)
            pod.accel = std::make_unique<host::LocalFpgaAccelerator>(eq);
        pod.server = std::make_unique<host::RankingServer>(
            eq, host::RankingServiceParams{}, pod.accel.get(),
            sim::Rng::forStream(21, static_cast<std::uint64_t>(p)).next());
        pod.server->attachObservability(pod.hub.get());
        pod.gen = std::make_unique<host::PoissonLoadGenerator>(
            eq, 100.0, [srv = pod.server.get()] { srv->submitQuery(); },
            sim::Rng::forStream(23, static_cast<std::uint64_t>(p)).next());
        pod.gen->start();
        pod.latency =
            pod.hub->registry.findHistogram("host.rank.latency_ms");
        pod.admittedCap = demand_peak_qps;
    }

    for (double load : trace) {
        for (auto &pod : fleet) {
            pod.admitted = load * demand_peak_qps;
            if (balancer)
                pod.admitted = std::min(pod.admitted, pod.admittedCap);
            pod.gen->setRate(pod.admitted);
        }
        sq.runFor(sim::fromSeconds(1.5));
        for (auto &pod : fleet)
            pod.server->clearStats();
        sq.runFor(sim::fromSeconds(4.0));
        if (balancer) {
            for (auto &pod : fleet) {
                const double p999 = pod.latency->percentile(99.9);
                if (p999 > 40.0)
                    pod.admittedCap = std::max(0.85 * pod.admitted,
                                               0.5 * demand_peak_qps);
                else
                    pod.admittedCap = std::min(demand_peak_qps,
                                               pod.admittedCap * 1.05);
            }
        }
    }

    KernelLoad k;
    k.eventsExecuted = sq.eventsExecuted();
    for (int p = 0; p < pods; ++p) {
        k.peakLiveEvents = std::max(k.peakLiveEvents,
                                    sq.partition(p).peakLiveEvents());
        k.wheelOverflows += sq.partition(p).wheelOverflows();
    }
    return k;
}

void
printBinned(const char *label, const std::vector<WindowPoint> &points,
            double tail_norm)
{
    std::map<int, sim::SampleStats> bins;  // load rounded to 0.1
    for (const auto &p : points)
        bins[static_cast<int>(p.loadNorm * 10.0 + 0.5)].add(p.p999Ms);
    std::printf("-- %s --\n", label);
    std::printf("  %10s %12s %12s %8s\n", "load", "avg p99.9", "max p99.9",
                "windows");
    for (const auto &[bin, stats] : bins) {
        std::printf("  %10.1f %12.2f %12.2f %8zu\n", bin / 10.0,
                    stats.mean() / tail_norm, stats.max() / tail_norm,
                    stats.count());
    }
    std::printf("\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    // --quick: shortened run for CI smoke + trajectory recording.
    // --attribution: flight-recorder sampling + per-hop breakdown tables.
    // --shards N: parallel-kernel mode — 8 pod replicas on the sharded
    //             kernel with N worker threads; records the
    //             events/s/core scaling series instead of the figure.
    // --smoke: minimal sharded run for sanitizer CI (no BENCH output).
    const bench::Flags flags(
        argc, argv,
        {{"--quick"}, {"--attribution"}, {"--smoke"}, {"--shards", "N"}});
    const bool smoke = flags.has("--smoke");
    const bool quick = smoke || flags.has("--quick");
    const bool attribution = flags.has("--attribution");
    const int shards = flags.number("--shards", 0);

    host::DiurnalTraceParams tp;
    tp.days = quick ? 1 : 5;
    tp.windowsPerDay = smoke ? 3 : (quick ? 12 : 48);
    const auto trace = host::makeDiurnalTrace(tp);

    if (shards > 0) {
        if (attribution)
            sim::fatal("fig08: --attribution is not supported with "
                       "--shards (per-pod recorders are not merged here)");
        constexpr int kPods = 8;
        std::printf("=== Figure 8 kernel scaling: %d pod replicas, "
                    "--shards %d ===\n\n", kPods, shards);
        const auto wall0 = std::chrono::steady_clock::now();
        const KernelLoad k = runShardedDatacenter(trace, true, 4500.0,
                                                  false, kPods, shards);
        const double wallSecs = bench::wallSeconds(wall0);
        const int cores = std::min(shards, kPods);
        const double perSec =
            static_cast<double>(k.eventsExecuted) / wallSecs;
        std::printf("wall clock %.2f s for %llu events: %.2fM events/s "
                    "(%.2fM events/s/core on %d worker%s)\n", wallSecs,
                    static_cast<unsigned long long>(k.eventsExecuted),
                    perSec / 1e6, perSec / cores / 1e6, cores,
                    cores == 1 ? "" : "s");
        if (!smoke) {
            const std::string prefix =
                (quick ? std::string("fig08_quick.") : std::string("fig08."))
                + "shards" + std::to_string(shards) + ".";
            ccsim::bench::BenchValues v;
            v[prefix + "wall_seconds"] = wallSecs;
            v[prefix + "events_executed"] =
                static_cast<double>(k.eventsExecuted);
            v[prefix + "events_per_sec_wall"] = perSec;
            v[prefix + "events_per_sec_core"] = perSec / cores;
            v[prefix + "workers"] = static_cast<double>(cores);
            v[prefix + "peak_live_events"] =
                static_cast<double>(k.peakLiveEvents);
            v[prefix + "wheel_overflows"] =
                static_cast<double>(k.wheelOverflows);
            ccsim::bench::mergeBenchJson("BENCH_kernel.json", v);
            std::printf("-> BENCH_kernel.json (%s*)\n", prefix.c_str());
        }
        return 0;
    }

    std::printf("=== Figure 8: 99.9%% latency vs offered load over %d "
                "day%s ===\n\n", quick ? 1 : 5, quick ? "" : "s");

    KernelLoad kernel;
    const auto wall0 = std::chrono::steady_clock::now();
    const auto sw =
        runDatacenter(trace, false, 3400.0, true, &kernel, attribution);
    const auto fpga =
        runDatacenter(trace, true, 4500.0, false, &kernel, attribution);
    const double wallSecs = bench::wallSeconds(wall0);

    std::vector<double> sw_tails;
    for (const auto &p : sw)
        sw_tails.push_back(p.p999Ms);
    std::sort(sw_tails.begin(), sw_tails.end());
    const double tail_norm = sw_tails[sw_tails.size() / 2];
    std::printf("latency normalized to the software datacenter's median "
                "p99.9 (%.2f ms); load to %.0f qps\n\n", tail_norm,
                kSoftwareNominalQps);

    printBinned("software datacenter", sw, tail_norm);
    printBinned("FPGA datacenter", fpga, tail_norm);

    double sw_max_load = 0, fpga_max_load = 0;
    for (const auto &p : sw)
        sw_max_load = std::max(sw_max_load, p.loadNorm);
    for (const auto &p : fpga)
        fpga_max_load = std::max(fpga_max_load, p.loadNorm);
    std::printf("observed load range: software up to %.2f (balancer-"
                "capped), FPGA up to %.2f (%.1fx)\n", sw_max_load,
                fpga_max_load, fpga_max_load / sw_max_load);

    // "...executing queries at a latency that never exceeds the software
    // datacenter at any load": compare per overlapping load bin.
    std::map<int, double> sw_bin, fpga_bin;
    for (const auto &p : sw) {
        const int b = static_cast<int>(p.loadNorm * 10.0 + 0.5);
        sw_bin[b] = std::max(sw_bin[b], p.p999Ms);
    }
    for (const auto &p : fpga) {
        const int b = static_cast<int>(p.loadNorm * 10.0 + 0.5);
        fpga_bin[b] = std::max(fpga_bin[b], p.p999Ms);
    }
    bool never_exceeds = true;
    for (const auto &[bin, fpga_max] : fpga_bin) {
        auto it = sw_bin.find(bin);
        if (it != sw_bin.end() && fpga_max > it->second)
            never_exceeds = false;
    }
    std::printf("FPGA latency never exceeds software at any overlapping "
                "load: %s (paper: true)\n", never_exceeds ? "yes" : "NO");

    // Benchmark trajectory: record how fast the DES kernel chewed
    // through this figure's event load (wall-clock, so this is the
    // end-to-end number the kernel rework is meant to move). Attribution
    // runs pay for span recording, so they must not pollute the file.
    if (attribution)
        return 0;
    const std::string prefix = quick ? "fig08_quick." : "fig08.";
    ccsim::bench::BenchValues v;
    v[prefix + "wall_seconds"] = wallSecs;
    v[prefix + "events_executed"] =
        static_cast<double>(kernel.eventsExecuted);
    v[prefix + "events_per_sec_wall"] =
        static_cast<double>(kernel.eventsExecuted) / wallSecs;
    v[prefix + "peak_live_events"] =
        static_cast<double>(kernel.peakLiveEvents);
    v[prefix + "wheel_overflows"] =
        static_cast<double>(kernel.wheelOverflows);
    const long rss = ccsim::bench::peakRssKb();
    if (rss >= 0)
        v[prefix + "rss_peak_kb"] = static_cast<double>(rss);
    ccsim::bench::mergeBenchJson("BENCH_kernel.json", v);
    std::printf("\nwall clock %.2f s for %llu events (%.2fM events/sec) "
                "-> BENCH_kernel.json\n", wallSecs,
                static_cast<unsigned long long>(kernel.eventsExecuted),
                kernel.eventsExecuted / wallSecs / 1e6);
    return 0;
}
