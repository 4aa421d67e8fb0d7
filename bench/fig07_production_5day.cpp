/**
 * @file
 * Reproduces Figure 7: five-day throughput and 99.9th-percentile latency
 * of the ranking service in two (simulated) production datacenters of
 * identical scale — one software-only, one FPGA-accelerated.
 *
 * Live Bing traffic is unavailable, so a synthetic diurnal trace stands
 * in (sinusoidal daily swing + noise + bursts + day-to-day drift). The
 * software datacenter sits behind the paper's dynamic load balancer,
 * which caps admitted traffic when tail latencies exceed thresholds; the
 * FPGA datacenter absorbs more than twice the offered load with tight
 * latencies.
 *
 * Each 30-minute trace window is simulated as a compressed steady-state
 * slice on a representative server (1.5 s warm-up + 4 s measurement).
 * Both datacenters and every window share ONE warm EventQueue: the
 * hierarchical wheel, freelists, and allocation pools stay hot instead
 * of being rebuilt per datacenter, which is what the `fig07.*` keys in
 * BENCH_scale.json track.
 *
 * Flags:
 *  --quick        shortened run (1 day, 12 windows, shorter slices);
 *  --fabric rack  the classic representative-server study (default);
 *  --fabric l2    the paper-scale campaign: a flyweight 249,600-host
 *                 L2 fabric (24 hosts x 40 racks x 260 pods), cross-pod
 *                 LTL round-trip probes, a diurnal fluid background
 *                 (flows crossing the probe trunks are promoted to
 *                 packet fidelity at the conservation-checked boundary),
 *                 and HaaS lease churn touching flyweight stubs. Peak
 *                 RSS is asserted against a 4 GB budget and the
 *                 headline numbers land in BENCH_scale.json;
 *  --shards N     run the l2 campaign on the parallel kernel with N
 *                 worker threads (byte-identical to any other N);
 *  --chaos        correlated-failure chaos campaign on the same L2
 *                 fabric: a ranking service placed with rack/pod
 *                 anti-affinity, a domain-aware HealthMonitor, and a
 *                 scripted ChaosEngine drill — TOR hard death under
 *                 live query traffic (zero lost queries asserted),
 *                 one rack-level conviction within the advertised
 *                 bound, a rate-limited lease evacuation, a gray L2
 *                 spine, and a rolling maintenance drain — with
 *                 results in BENCH_chaos.json;
 *  --no-anti-affinity  chaos ablation: same drill without placement
 *                 spreading, demonstrating the containment violation
 *                 (the dead TOR takes every instance at once).
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/cloud.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "haas/health_monitor.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "net/fluid.hpp"
#include "obs/metrics.hpp"
#include "obs/sharded_obs.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "scenario_util.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"
#include "sim/stats.hpp"

using namespace ccsim;

namespace {

constexpr const char *kBenchFile = "BENCH_scale.json";
constexpr long kRssBudgetKb = 4L * 1024 * 1024;  // 4 GiB

/**
 * Record a finished run's wall time since @p t0, event rate and peak RSS
 * as <prefix>wall_s/events_per_s/rss_peak_mb, asserting and reporting
 * the RSS budget. Returns {wall_s, events/s}.
 */
std::pair<double, double>
recordRunCost(bench::BenchValues &out, const std::string &prefix,
              std::chrono::steady_clock::time_point t0, std::uint64_t events)
{
    const double wall_s = bench::wallSeconds(t0);
    const double evps = wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
    out[prefix + "events_per_s"] = evps;
    out[prefix + "wall_s"] = wall_s;
    const long rss_kb = bench::peakRssKb();
    if (rss_kb < 0) {
        std::printf("rss budget: SKIP (platform does not expose VmHWM)\n");
        return {wall_s, evps};
    }
    if (rss_kb > kRssBudgetKb)
        sim::fatalf("fig07: peak RSS ", rss_kb / 1024, " MB exceeds the ",
                    kRssBudgetKb / 1024, " MB budget");
    std::printf("rss budget: OK (%ld MB <= %ld MB)\n", rss_kb / 1024,
                kRssBudgetKb / 1024);
    out[prefix + "rss_peak_mb"] = static_cast<double>(rss_kb) / 1024.0;
    return {wall_s, evps};
}

// ---------------------------------------------------------------------------
// --fabric rack: the classic two-datacenter representative-server study
// ---------------------------------------------------------------------------

constexpr double kSoftwareNominalQps = 3100.0;
constexpr double kSoftwareDemandQps = 3400.0;  // organic demand at peak
/**
 * The FPGA datacenter organically receives >2x the load the software
 * datacenter is allowed to admit, yet stays below its own ~7200 qps
 * saturation even at the heaviest burst (trace tops out near 1.46x of
 * the nominal daily peak).
 */
constexpr double kFpgaDemandQps = 4500.0;

struct WindowResult {
    double offeredQps;
    double admittedQps;
    double p999Ms;
};

/**
 * Simulate one datacenter's trace on @p eq. The queue is shared and
 * stays warm across calls: the generator is stopped and in-flight
 * queries drained before the server goes away, so the next datacenter
 * reuses the same wheel without rebuild. Poisson gaps and service times
 * are relative, so results do not depend on the queue's start time.
 */
std::vector<WindowResult>
runDatacenter(sim::EventQueue &eq, const std::vector<double> &trace,
              bool use_fpga, bool load_balancer_cap, double settle_s,
              double measure_s)
{
    std::unique_ptr<host::LocalFpgaAccelerator> accel;
    if (use_fpga)
        accel = std::make_unique<host::LocalFpgaAccelerator>(eq);
    host::RankingServer server(eq, host::RankingServiceParams{},
                               accel.get(), 11);
    host::PoissonLoadGenerator gen(eq, 100.0,
                                   [&] { server.submitQuery(); }, 13);
    gen.start();

    const double demand_peak =
        use_fpga ? kFpgaDemandQps : kSoftwareDemandQps;
    double admitted_cap = demand_peak;  // dynamic load-balancer state
    std::vector<WindowResult> results;
    for (double load : trace) {
        const double offered = load * demand_peak;
        double admitted = offered;
        if (load_balancer_cap)
            admitted = std::min(admitted, admitted_cap);
        gen.setRate(admitted);
        eq.runFor(sim::fromSeconds(settle_s));  // settle at the new rate
        server.clearStats();
        eq.runFor(sim::fromSeconds(measure_s));
        const double p999 = server.latencyMs().percentile(99.9);
        results.push_back({offered, admitted, p999});

        if (load_balancer_cap) {
            // The balancer sheds traffic when tails blow up and slowly
            // re-admits when they recover.
            if (p999 > 40.0)
                admitted_cap = std::max(0.85 * admitted, 0.5 * demand_peak);
            else
                admitted_cap = std::min(demand_peak, admitted_cap * 1.05);
        }
    }
    // Drain in-flight queries before the server is destroyed; the warm
    // queue outlives this datacenter and must hold no dangling events.
    gen.stop();
    eq.runFor(sim::fromSeconds(0.5));
    return results;
}

int
runRackStudy(bool quick)
{
    std::printf("=== Figure 7: 5-day production throughput & 99.9%% "
                "latency, two datacenters ===\n\n");
    const auto t0 = std::chrono::steady_clock::now();

    host::DiurnalTraceParams tp;
    tp.days = quick ? 1 : 5;
    tp.windowsPerDay = quick ? 12 : 48;  // 30-minute windows (full run)
    const auto trace = host::makeDiurnalTrace(tp);
    const double settle_s = quick ? 0.5 : 1.5;
    const double measure_s = quick ? 1.5 : 4.0;

    // One warm EventQueue across both datacenters and all windows.
    sim::EventQueue eq;
    auto sw = runDatacenter(eq, trace, false, true, settle_s, measure_s);
    auto fpga = runDatacenter(eq, trace, true, false, settle_s, measure_s);

    // Normalize: load by the software nominal operating point; latency
    // by the software datacenter's median p99.9 (its healthy tail).
    std::vector<double> sw_tails;
    for (const auto &w : sw)
        sw_tails.push_back(w.p999Ms);
    std::sort(sw_tails.begin(), sw_tails.end());
    const double tail_norm = sw_tails[sw_tails.size() / 2];

    std::printf("normalization: load / %.0f qps, latency / %.2f ms "
                "(software median p99.9)\n\n", kSoftwareNominalQps,
                tail_norm);
    std::printf("  %5s %6s | %9s %9s | %9s %9s\n", "day", "hour",
                "sw load", "sw p99.9", "fpga load", "fpga p99.9");

    double sw_load_sum = 0, fpga_load_sum = 0;
    double sw_tail_peak = 0, fpga_tail_peak = 0;
    double sw_load_peak = 0, fpga_load_peak = 0;
    for (std::size_t w = 0; w < trace.size(); ++w) {
        const double sw_load = sw[w].admittedQps / kSoftwareNominalQps;
        const double fpga_load = fpga[w].admittedQps / kSoftwareNominalQps;
        const double sw_tail = sw[w].p999Ms / tail_norm;
        const double fpga_tail = fpga[w].p999Ms / tail_norm;
        sw_load_sum += sw_load;
        fpga_load_sum += fpga_load;
        sw_tail_peak = std::max(sw_tail_peak, sw_tail);
        fpga_tail_peak = std::max(fpga_tail_peak, fpga_tail);
        sw_load_peak = std::max(sw_load_peak, sw_load);
        fpga_load_peak = std::max(fpga_load_peak, fpga_load);
        if (w % 4 == 0) {  // print every 2 hours
            std::printf("  %5zu %6.1f | %9.2f %9.2f | %9.2f %9.2f\n",
                        w / tp.windowsPerDay,
                        24.0 * (w % tp.windowsPerDay) / tp.windowsPerDay,
                        sw_load, sw_tail, fpga_load, fpga_tail);
        }
    }

    const double n = static_cast<double>(trace.size());
    std::printf("\nsummary (normalized):\n");
    std::printf("  %-34s %10.2f %10.2f\n", "average load (sw / fpga)",
                sw_load_sum / n, fpga_load_sum / n);
    std::printf("  %-34s %10.2f %10.2f\n", "peak load (sw / fpga)",
                sw_load_peak, fpga_load_peak);
    std::printf("  %-34s %10.2f %10.2f\n", "peak p99.9 (sw / fpga)",
                sw_tail_peak, fpga_tail_peak);
    std::printf("\npaper observations reproduced: the software datacenter "
                "shows high-rate latency spikes\nas load varies (balancer "
                "sheds load at peaks); the FPGA-accelerated datacenter "
                "absorbs\n> 2x the load with much lower, tighter-bound "
                "tail latencies.\n\n");

    const std::string prefix = quick ? "fig07_quick." : "fig07.";
    bench::BenchValues out;
    recordRunCost(out, prefix, t0, eq.eventsExecuted());
    out[prefix + "windows"] = static_cast<double>(trace.size());
    out[prefix + "events"] = static_cast<double>(eq.eventsExecuted());
    out[prefix + "sw_avg_load"] = sw_load_sum / n;
    out[prefix + "fpga_avg_load"] = fpga_load_sum / n;
    bench::mergeBenchJson(kBenchFile, out);
    std::printf("wrote %s (%swindows/wall_s/events_per_s/rss_peak_mb)\n",
                kBenchFile, prefix.c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// --fabric l2: the paper-scale 250k-host campaign
// ---------------------------------------------------------------------------

using fpga::NullRole;

/** Deterministic 64-bit mix (same construction as the fluid ECMP hash). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One cross-pod LTL probe pair and its send-side state. */
struct ProbePair {
    int src = 0;
    int dst = 0;
    std::unique_ptr<NullRole> role;
    core::LtlChannel channel;
};

/** The L2 fabric both campaigns run on: 24 x 40 x 260 = 249,600 hosts. */
struct L2Fabric {
    int pods = 260;
    int racksPerPod = 40;
    int hostsPerRack = 24;
    int l2Count = 4;

    int hosts() const { return pods * racksPerPod * hostsPerRack; }
};

/**
 * The L2 fabric's kernel, observability and flyweight pure-LTL cloud,
 * plus the live telemetry (opt-in via CCSIM_TS=<path>; feed it to
 * tools/ccsim_report): 250 us windows rolled on barrier deadlines, so
 * the JSONL stream and the alert timeline are byte-identical across
 * --shards values, and a fleet RTT SLO on the paper's headline health
 * signal. Without --shards the cloud is a single-queue build driven by
 * a one-partition kernel.
 */
struct L2Fleet {
    const std::string tsPath = obs::TimeSeriesHub::envPath();
    std::unique_ptr<obs::TimeSeriesHub> tsHub;
    std::unique_ptr<obs::SloEngine> slo;
    std::ofstream tsOut;
    std::unique_ptr<sim::ShardedEventQueue> sq;
    std::unique_ptr<obs::Observability> hub;
    std::unique_ptr<obs::ShardedObservability> shardHubs;
    std::unique_ptr<core::ConfigurableCloud> cloud;

    /** @p what names the campaign in fatal messages. */
    L2Fleet(const L2Fabric &f, int shard_threads,
            std::vector<std::string> ts_include, const char *what)
    {
        core::CloudConfig cfg;
        cfg.topology.hostsPerRack = f.hostsPerRack;
        cfg.topology.racksPerPod = f.racksPerPod;
        cfg.topology.l1PerPod = 2;
        cfg.topology.pods = f.pods;
        cfg.topology.l2Count = f.l2Count;
        cfg.createNics = false;
        cfg.lazyHosts = true;
        cfg.shellTemplate.ltl.maxConnections = 64;
        // A shell can be probe destination and promoted-flow sink at once.
        cfg.shellTemplate.roleSlots = 8;
        if (!tsPath.empty()) {
            tsHub = std::make_unique<obs::TimeSeriesHub>(
                obs::TimeSeriesConfig{.window = 250 * sim::kMicrosecond,
                                      .include = std::move(ts_include)});
            tsHub->defineAggregate("fleet.rtt_us", "ltl.*.rtt_us");
            tsHub->defineAggregate("fleet.retransmits",
                                   "ltl.*.retransmits");
            tsOut.open(tsPath);
            if (!tsOut)
                sim::fatalf(what, ": cannot write CCSIM_TS path ", tsPath);
            tsHub->exportTo(&tsOut);
            cfg.timeSeries = tsHub.get();
        }
        if (shard_threads > 0) {
            cfg.shards = shard_threads;
            shardHubs =
                std::make_unique<obs::ShardedObservability>(f.pods + 1);
            cfg.shardObs = shardHubs.get();
            sq = std::make_unique<sim::ShardedEventQueue>(
                core::ConfigurableCloud::shardPlan(cfg));
            cloud = std::make_unique<core::ConfigurableCloud>(*sq, cfg);
        } else {
            hub = std::make_unique<obs::Observability>();
            cfg.obs = hub.get();
            sq = std::make_unique<sim::ShardedEventQueue>();
            cloud = std::make_unique<core::ConfigurableCloud>(
                sq->partition(0), cfg);
        }
        if (!tsHub)
            return;
        tsHub->startSampling(*sq);
        slo = std::make_unique<obs::SloEngine>(*tsHub);
        addSlo("fleet_rtt_p99", "fleet.rtt_us", obs::SloStat::kP99, 100.0);
        slo->attachObservability(ctlHub().registry);
    }

    /** A fleet objective: @p stat of @p series stays below @p limit. */
    void addSlo(const char *name, const char *series, obs::SloStat stat,
                double limit)
    {
        slo->addObjective({.name = name, .series = series, .stat = stat,
                           .cmp = obs::SloCmp::kLt, .threshold = limit,
                           .errorBudget = 0.10, .longWindows = 40,
                           .shortWindows = 5, .burnThreshold = 2.0});
    }

    /** The control plane's hub: the spine partition's when sharded. */
    obs::Observability &ctlHub()
    {
        return shardHubs ? shardHubs->shard(0) : *hub;
    }

    /** Open a probe pair from @p src to a NullRole on @p dst. */
    ProbePair openProbe(int src, int dst, const char *what)
    {
        ProbePair pr{src, dst, std::make_unique<NullRole>(), {}};
        if (cloud->shell(dst).addRole(pr.role.get()) < 0)
            sim::fatalf(what, ": no role slot on probe destination");
        pr.channel = cloud->openLtl(src, dst, pr.role->port);
        return pr;
    }

    /** Schedule @p pings 64 B pings per pair at an idle 20 us spacing. */
    void schedulePings(const std::vector<ProbePair> &probes, int pings)
    {
        for (const auto &pr : probes) {
            auto *engine = cloud->shell(pr.src).ltlEngine();
            auto &q = cloud->queueFor(pr.src);
            for (int i = 0; i < pings; ++i)
                q.scheduleAfter(i * 20 * sim::kMicrosecond,
                                [engine, conn = pr.channel.sendConn()] {
                                    engine->sendMessage(conn, 64);
                                });
        }
    }

    /** The probe pairs' round trips, merged from each source's engine. */
    sim::LogHistogram probeRtts(const std::vector<ProbePair> &probes)
    {
        sim::LogHistogram rtt(obs::kDefaultHistMinValue,
                              obs::kDefaultHistBinsPerOctave);
        for (const auto &pr : probes) {
            obs::Observability &h =
                shardHubs ? shardHubs->shard(cloud->partitionOf(pr.src))
                          : *hub;
            rtt.merge(h.registry.histogram(
                "ltl.node" + std::to_string(pr.src) + ".rtt_us"));
        }
        return rtt;
    }
};

/** Add @p n seeded background flows at @p bps; returns their ids. */
std::vector<std::uint64_t>
addSeededFlows(net::FluidTrafficModel &fluid, int hosts, int n,
               std::uint64_t bps)
{
    std::vector<std::uint64_t> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const auto u = static_cast<std::uint64_t>(i);
        const int src = static_cast<int>(mix64(u * 2 + 1) %
                                         static_cast<std::uint64_t>(hosts));
        int dst = static_cast<int>(mix64(u * 2 + 2) %
                                   static_cast<std::uint64_t>(hosts));
        if (dst == src)
            dst = (dst + 1) % hosts;
        ids.push_back(fluid.addFlow(src, dst, bps));
    }
    return ids;
}

/** One background flow promoted to packet fidelity for a window. */
struct PromotedFlow {
    std::uint64_t id = 0;
    int dstHost = 0;
    std::unique_ptr<NullRole> role;
    core::LtlChannel channel;
    std::uint64_t bytesSent = 0;
};

struct L2Params : L2Fabric {
    int windows = 24;
    sim::TimePs windowLen = 5 * sim::kMillisecond;
    int pairs = 48;         // cross-pod probe pairs
    int pingsPerWindow = 100;
    int flows = 20000;      // fluid background flows
    int promotePerWindow = 16;
    int leasesPerWindow = 4;
    int hostsPerLease = 8;
    std::uint64_t baseFlowBps = 400ull * 1000 * 1000;  // 400 Mbit/s
};

int
runL2Campaign(bool quick, int shard_threads)
{
    L2Params p;
    if (quick) {
        p.windows = 6;
        p.windowLen = 2 * sim::kMillisecond;
        p.pairs = 12;
        p.pingsPerWindow = 40;
        p.flows = 5000;
        p.promotePerWindow = 8;
    }
    const int hosts = p.hosts();
    std::printf("=== Figure 7 (L2 campaign): %d-host flyweight fabric, "
                "hybrid fluid/packet background ===\n\n", hosts);
    std::printf("  %d pods x %d racks x %d hosts, %d probe pairs, %d fluid "
                "flows,\n  %d diurnal windows of %.1f ms, kernel: %s\n\n",
                p.pods, p.racksPerPod, p.hostsPerRack, p.pairs, p.flows,
                p.windows, sim::toMillis(p.windowLen),
                shard_threads > 0 ? "sharded" : "single-queue");
    const auto t0 = std::chrono::steady_clock::now();

    L2Fleet fleet(p, shard_threads,
                  {"ltl.*", "sim.*", "haas.*", "ts.*", "slo.*"}, "fig07");
    std::unique_ptr<sim::ShardedEventQueue> &sq = fleet.sq;
    std::unique_ptr<core::ConfigurableCloud> &cloud = fleet.cloud;
    net::Topology &topo = cloud->topology();
    if (fleet.slo)  // burns budget only in a storm (e.g. a link fault)
        fleet.addSlo("fleet_retransmits", "fleet.retransmits",
                     obs::SloStat::kDelta, 200.0);

    const double build_s = bench::wallSeconds(t0);
    std::printf("build: %.2f s, %d/%d servers materialized\n", build_s,
                cloud->materializedServers(), cloud->numServers());

    // --- cross-pod probe pairs (distinct pods, so src engines are
    // distinct and each rtt histogram belongs to exactly one pair) ---
    std::vector<ProbePair> probes;
    for (int k = 0; k < p.pairs; ++k) {
        const int src_pod = (4 * k + 1) % p.pods;
        const int dst_pod = (4 * k + 3) % p.pods;
        probes.push_back(fleet.openProbe(
            topo.hostIndex(src_pod, k % p.racksPerPod, k % p.hostsPerRack),
            topo.hostIndex(dst_pod, (3 * k + 1) % p.racksPerPod,
                           (5 * k + 2) % p.hostsPerRack),
            "fig07 l2"));
    }

    // --- hybrid fluid/packet background ---
    auto fluid = std::make_unique<net::FluidTrafficModel>(*sq, topo);
    // The probe paths are the monitored paths: background flows whose
    // ECMP path shares a probe trunk get promoted to packet fidelity.
    for (const auto &pr : probes)
        for (net::Channel *c : topo.fluidPath(pr.src, pr.dst))
            fluid->setMonitored(c, true);
    const std::vector<std::uint64_t> flowIds =
        addSeededFlows(*fluid, hosts, p.flows, p.baseFlowBps);

    host::DiurnalTraceParams tp;
    tp.days = 1;
    tp.windowsPerDay = p.windows;
    const auto trace = host::makeDiurnalTrace(tp);

    // Per-window flow rate: diurnal multiplier with a per-pod imbalance
    // factor in [0.5, 1.5) so some trunks run hot.
    const auto flowRate = [&](std::uint64_t id, int window) {
        const net::FluidFlow *f = fluid->flow(id);
        const int src_pod = cloud->partitionOf(f->srcHost);
        const std::uint64_t h =
            mix64((static_cast<std::uint64_t>(src_pod) << 20) ^
                  static_cast<std::uint64_t>(window));
        const double imbalance = 0.5 + static_cast<double>(h % 1000) / 1000.0;
        return static_cast<std::uint64_t>(
            static_cast<double>(p.baseFlowBps) * trace[window] * imbalance);
    };

    // --- the campaign ---
    haas::ResourceManager &rm = cloud->resourceManager();
    std::uint64_t leaseChurn = 0, promotedTotal = 0;
    std::printf("\n  %6s %8s %10s %10s %10s\n", "window", "load",
                "promoted", "leases", "matrlzd");
    for (int w = 0; w < p.windows; ++w) {
        // (1) retune every background flow to this window's rate (the
        // fold is exact: totals are independent of this schedule).
        for (std::uint64_t id : flowIds)
            fluid->setRate(id, flowRate(id, w));

        // (2) promote flows crossing the monitored probe trunks; their
        // bytes run as real LTL traffic for this window.
        std::vector<PromotedFlow> promoted;
        for (std::uint64_t id : fluid->flowsCrossingMonitored()) {
            if (static_cast<int>(promoted.size()) >= p.promotePerWindow)
                break;
            const net::FluidFlow *f = fluid->flow(id);
            PromotedFlow pf;
            pf.id = id;
            pf.dstHost = f->dstHost;
            pf.role = std::make_unique<NullRole>();
            if (cloud->shell(f->dstHost).addRole(pf.role.get()) < 0)
                continue;  // destination shell's role slots exhausted
            fluid->promote(id);
            pf.channel =
                cloud->openLtl(f->srcHost, f->dstHost, pf.role->port);
            promoted.push_back(std::move(pf));
        }
        promotedTotal += promoted.size();

        // (3) schedule this window's traffic: probe pings at an idle
        // 20 us spacing, promoted flows as 1 KiB messages at their rate.
        fleet.schedulePings(probes, p.pingsPerWindow);
        for (auto &pf : promoted) {
            const net::FluidFlow *f = fluid->flow(pf.id);
            const std::uint64_t rate = flowRate(pf.id, w);
            constexpr std::uint32_t kMsgBytes = 1024;
            const auto gap = static_cast<sim::TimePs>(
                (8.0 * kMsgBytes / static_cast<double>(rate)) *
                static_cast<double>(sim::kSecond));
            auto *engine = cloud->shell(f->srcHost).ltlEngine();
            auto &q = cloud->queueFor(f->srcHost);
            // Fill ~60% of the window, leaving tail room for delivery.
            const auto budget =
                static_cast<sim::TimePs>(0.6 * p.windowLen);
            for (sim::TimePs t = gap; t < budget; t += gap) {
                q.scheduleAfter(t, [engine,
                                    conn = pf.channel.sendConn()] {
                    engine->sendMessage(conn, kMsgBytes);
                });
                pf.bytesSent += kMsgBytes;
            }
        }

        sq->runFor(p.windowLen);

        // (4) back across the fidelity boundary: credit the delivered
        // packet bytes and return the flows to the fluid regime.
        for (auto &pf : promoted) {
            fluid->creditPacketBytes(pf.id, pf.bytesSent);
            fluid->demote(pf.id, flowRate(pf.id, w));
            cloud->shell(pf.dstHost).removeRole(pf.role->port);
        }
        promoted.clear();  // closes the LTL channels

        // (5) HaaS lease churn against flyweight stubs: each manager()
        // touch materializes the leased server through the resolver.
        for (int j = 0; j < p.leasesPerWindow; ++j) {
            haas::LeaseConstraints lc;
            lc.requirePod = (13 * w + 7 * j + 2) % p.pods;
            auto lease = rm.acquire("fig07.l2", p.hostsPerLease, lc);
            if (!lease)
                sim::fatal("fig07 l2: lease acquisition failed");
            for (int host : lease->hosts)
                if (rm.manager(host) == nullptr)
                    sim::fatal("fig07 l2: stub resolver returned null");
            leaseChurn += lease->hosts.size();
            rm.release(lease->id);
        }

        std::printf("  %6d %8.2f %10llu %10d %10d\n", w, trace[w],
                    static_cast<unsigned long long>(promotedTotal),
                    p.leasesPerWindow, cloud->materializedServers());
    }

    // Drain in-flight frames, then harvest the probe RTT histograms.
    sq->runFor(2 * p.windowLen);
    const sim::LogHistogram rtt = fleet.probeRtts(probes);

    // --- invariants ---
    fluid->foldAll();
    const net::FluidConservation c = fluid->verify();
    if (!c.ok)
        sim::fatalf("fig07 l2: fluid conservation violated: channel "
                    "credits ", c.channelCredits, " != expected ",
                    c.expectedChannelCredits);
    std::printf("\nfluid conservation: OK (%llu flows, %llu fluid bytes, "
                "%llu packet bytes)\n",
                static_cast<unsigned long long>(c.flows),
                static_cast<unsigned long long>(c.fluidBytes),
                static_cast<unsigned long long>(c.packetBytes));

    const auto mem = cloud->fabricMemoryStats();
    const std::string prefix = quick ? "fig07_l2_quick." : "fig07_l2.";
    bench::BenchValues out;
    const auto [wall_s, evps] =
        recordRunCost(out, prefix, t0, sq->eventsExecuted());

    std::printf("\ncross-pod LTL round trips (%llu samples):\n",
                static_cast<unsigned long long>(rtt.count()));
    std::printf("  %-20s %10.2f us\n", "mean", rtt.mean());
    std::printf("  %-20s %10.2f us\n", "p99", rtt.percentile(99.0));
    std::printf("  %-20s %10.2f us\n", "p99.9", rtt.percentile(99.9));
    std::printf("\nfabric: %d/%d servers materialized, %zu switches, "
                "%zu links, ~%.0f B/host amortized\n",
                mem.materializedHosts, mem.hosts, mem.switches,
                mem.fabricLinks, mem.bytesPerHost);
    std::printf("campaign: %.1f s wall, %.2f M events/s, %llu leases "
                "churned, %llu promotions\n", wall_s, evps / 1e6,
                static_cast<unsigned long long>(leaseChurn),
                static_cast<unsigned long long>(promotedTotal));
    if (fleet.tsHub)
        std::printf(
            "telemetry: %llu windows, %llu series, %llu JSONL lines -> %s; "
            "%llu alerts fired\n",
            static_cast<unsigned long long>(fleet.tsHub->windowsClosed()),
            static_cast<unsigned long long>(fleet.tsHub->seriesCount()),
            static_cast<unsigned long long>(fleet.tsHub->exportedLines()),
            fleet.tsPath.c_str(),
            static_cast<unsigned long long>(fleet.slo->alertsFired()));

    out[prefix + "hosts"] = static_cast<double>(mem.hosts);
    out[prefix + "materialized_hosts"] =
        static_cast<double>(mem.materializedHosts);
    out[prefix + "rtt_p99_us"] = rtt.percentile(99.0);
    out[prefix + "rtt_p999_us"] = rtt.percentile(99.9);
    out[prefix + "lease_churn"] = static_cast<double>(leaseChurn);
    out[prefix + "fluid_flows"] = static_cast<double>(c.flows);
    out[prefix + "promotions"] = static_cast<double>(promotedTotal);
    out[prefix + "conservation_ok"] = c.ok ? 1.0 : 0.0;
    if (fleet.tsHub) {
        out[prefix + "ts_windows"] =
            static_cast<double>(fleet.tsHub->windowsClosed());
        out[prefix + "ts_lines"] =
            static_cast<double>(fleet.tsHub->exportedLines());
        out[prefix + "slo_alerts"] =
            static_cast<double>(fleet.slo->alertsFired());
    }
    bench::mergeBenchJson(kBenchFile, out);
    std::printf("wrote %s (%shosts/rtt_p99_us/rss_peak_mb/...)\n",
                kBenchFile, prefix.c_str());
    return 0;
}

// ---------------------------------------------------------------------------
// --chaos: correlated-failure campaign on the L2 fabric
// ---------------------------------------------------------------------------

/**
 * A ranking-service stand-in that records every delivered query ID, so
 * the campaign can account for each issued query receiver-side (dedup
 * by ID; a query re-sent after a failover counts once).
 */
struct QueryRole : NullRole {
    std::vector<std::uint64_t> delivered;
    std::size_t harvested = 0;  ///< prefix already consumed by the driver
    std::string name() const override { return "chaos-rank"; }
    void onMessage(const router::ErMessagePtr &msg) override
    {
        // LTL deliveries arrive wrapped: the query ID rides in the
        // delivery's application payload.
        const auto d =
            std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
        if (d && d->appPayload)
            delivered.push_back(
                *std::static_pointer_cast<std::uint64_t>(d->appPayload));
    }
};

struct ChaosParams : L2Fabric {
    int windows = 16;  ///< scripted campaign windows
    sim::TimePs windowLen = 5 * sim::kMillisecond;
    int drainWindows = 20;  ///< extra windows to flush re-sent queries
    int instances = 8;      ///< ranking-service instances
    int maxPerRack = 2;     ///< anti-affinity: service FPGAs per rack
    int maxPerPod = 6;      ///< anti-affinity: service FPGAs per pod
    int queriesPerSlot = 20;  ///< fresh queries per instance per window
    int pairs = 8;            ///< healthy-pod probe pairs
    int pingsPerWindow = 40;
    int flows = 8000;  ///< fluid background flows
    std::uint64_t flowBps = 200ull * 1000 * 1000;
    sim::TimePs migrationGap = 150 * sim::kMicrosecond;
    sim::TimePs chaosPoll = 50 * sim::kMicrosecond;
};

int
runChaosCampaign(bool quick, int shard_threads, bool anti_affinity)
{
    ChaosParams p;
    if (quick) {
        p.windows = 10;
        p.windowLen = 2 * sim::kMillisecond;
        p.instances = 8;
        p.queriesPerSlot = 10;
        p.pairs = 6;
        p.pingsPerWindow = 20;
        p.flows = 3000;
    }
    const int hosts = p.hosts();
    std::printf("=== Chaos campaign: correlated failure domains on the "
                "%d-host L2 fabric ===\n\n", hosts);
    std::printf("  %d-instance ranking service, anti-affinity %s "
                "(rack cap %d, pod cap %d),\n  %d windows of %.1f ms, "
                "migration gap %.0f us, kernel: %s\n\n",
                p.instances, anti_affinity ? "ON" : "OFF (ablation)",
                p.maxPerRack, p.maxPerPod, p.windows,
                sim::toMillis(p.windowLen), sim::toMicros(p.migrationGap),
                shard_threads > 0 ? "sharded" : "single-queue");
    const auto t0 = std::chrono::steady_clock::now();

    // The telemetry stream adds the ChaosEngine's injected/detected
    // markers; its chaos markers match the single-queue run's.
    L2Fleet fleet(p, shard_threads,
                  {"ltl.*", "sim.*", "haas.*", "fault.*", "chaos.*", "ts.*",
                   "slo.*"},
                  "fig07 chaos");
    std::unique_ptr<sim::ShardedEventQueue> &sq = fleet.sq;
    std::unique_ptr<core::ConfigurableCloud> &cloud = fleet.cloud;
    net::Topology &topo = cloud->topology();
    // The control plane (RM, SM, HealthMonitor) lives on the cloud's
    // control queue: the spine partition when sharded.
    sim::EventQueue &ctlq = cloud->controlQueue();
    obs::Observability *ctlHub = &fleet.ctlHub();

    const auto nowPs = [&] { return sq->now(); };

    // --- the ranking service, placed with (or without) anti-affinity ---
    haas::ResourceManager &rm = cloud->resourceManager();
    std::vector<std::unique_ptr<QueryRole>> rolePool;
    std::map<int, QueryRole *> roleOf;  // live instance host -> role
    haas::ServiceManager sm(ctlq, rm, "rank", [&](int host) {
        rolePool.push_back(std::make_unique<QueryRole>());
        roleOf[host] = rolePool.back().get();
        return rolePool.back().get();
    });
    haas::LeaseConstraints lc;
    if (anti_affinity)
        lc.withAntiAffinity(p.maxPerRack, p.maxPerPod);
    // Mass-migration throttle, pumped by the ChaosEngine at barriers.
    sm.setMigrationPolicy(p.migrationGap, /*self_pump=*/false);
    sm.enableAutoHeal(p.instances, lc);
    if (!sm.deploy(p.instances, lc))
        sim::fatal("fig07 chaos: service deploy failed");
    sm.attachObservability(ctlHub);
    const std::vector<int> deployed = sm.instances();

    // The drill kills the TOR of the first instance's rack.
    const int victimPod = topo.host(deployed[0]).pod;
    const int victimRack = topo.host(deployed[0]).rack;
    int rackCasualties = 0;
    for (int h : deployed)
        if (topo.host(h).pod == victimPod && topo.host(h).rack == victimRack)
            ++rackCasualties;

    // --- domain-aware health monitoring over a watch set: the full
    // rack of every service instance plus a healthy control rack ---
    std::set<int> watchSet;
    const auto watchRack = [&](int pod, int rack) {
        const int base = topo.hostIndex(pod, rack, 0);
        for (int i = 0; i < p.hostsPerRack; ++i)
            watchSet.insert(base + i);
    };
    for (int h : deployed)
        watchRack(topo.host(h).pod, topo.host(h).rack);
    watchRack(100, 0);  // control rack, far from every fault
    haas::HealthMonitorConfig hmc;
    hmc.withHeartbeat(100 * sim::kMicrosecond, 10 * sim::kMicrosecond)
        // Streak weight 0: the drill isolates the heartbeat/domain path.
        // Passive LTL suspicion needs a single-queue cloud, and the drill
        // must reach identical verdicts with and without --shards.
        .withSuspicion(3.0, 1.0, 0.0)
        .withDomainConviction(/*sweeps=*/2, /*min_hosts=*/p.hostsPerRack);
    haas::HealthMonitor hm(ctlq, rm, hmc);
    cloud->attachHealthMonitor(hm);
    hm.watchHosts({watchSet.begin(), watchSet.end()});
    hm.attachObservability(ctlHub);

    // --- fault injector (detection is the monitor's job) ---
    fault::FaultConfig fc;
    fc.withSeed(42).withSelfReport(false);
    fault::FaultInjector injector(*sq, *cloud, fc);

    // --- fluid background (flows through the dead rack must stall,
    // conservation stays exact) ---
    auto fluid = std::make_unique<net::FluidTrafficModel>(*sq, topo);
    addSeededFlows(*fluid, hosts, p.flows, p.flowBps);

    // --- healthy-pod probe pairs (the containment yardstick) ---
    std::vector<ProbePair> probes;
    for (int k = 0; k < p.pairs; ++k)
        probes.push_back(fleet.openProbe(
            topo.hostIndex(30 + 3 * k, k % p.racksPerPod, k % p.hostsPerRack),
            topo.hostIndex(150 + 5 * k, (3 * k + 1) % p.racksPerPod,
                           (5 * k + 2) % p.hostsPerRack),
            "fig07 chaos"));

    // --- the scripted drill ---
    const sim::TimePs torAt = p.windowLen + p.windowLen / 2;
    const sim::TimePs grayAt = 4 * p.windowLen + p.windowLen / 4;
    const sim::TimePs grayClearAt = grayAt + p.windowLen;
    const sim::TimePs maintAt = 6 * p.windowLen;
    sim::TimePs detectedAt = -1;
    sim::TimePs evacuatedAt = -1;
    fault::ChaosScenario scenario;
    scenario
        .withPhase("tor-death", torAt,
                   [&] { injector.failTor(victimPod, victimRack); })
        .withTriggeredPhase(
            "rack-convicted", torAt,
            [&] { return hm.domainConvictions() > 0; },
            [&] { detectedAt = nowPs(); })
        .withTriggeredPhase(
            "evacuated", torAt,
            [&] {
                if (detectedAt < 0 ||
                    static_cast<int>(sm.instances().size()) < p.instances)
                    return false;
                for (int h : sm.instances())
                    if (topo.host(h).pod == victimPod &&
                        topo.host(h).rack == victimRack)
                        return false;
                return true;
            },
            [&] { evacuatedAt = nowPs(); })
        .withPhase("gray-spine", grayAt,
                   [&] {
                       injector.graySpineDegrade(2, 0.001,
                                                 500 * sim::kNanosecond);
                   })
        .withPhase("gray-clear", grayClearAt,
                   [&] { injector.graySpineClear(2); })
        .withPhase("maintenance-drain", maintAt, [&] {
            injector.rollingMaintenance(130, 50 * sim::kMicrosecond,
                                        60 * sim::kMicrosecond);
        });
    fault::ChaosEngine chaos(*sq, std::move(scenario));
    chaos.setPollPeriod(p.chaosPoll);
    chaos.setFluidModel(fluid.get());
    if (fleet.tsHub)
        chaos.setMarkerHub(fleet.tsHub.get());
    chaos.manageService(&sm);  // barrier-driven migration pump
    chaos.watchHealth(&hm);
    chaos.attachObservability(ctlHub);

    hm.startSharded(*sq);
    chaos.start();

    const double build_s = bench::wallSeconds(t0);
    std::printf("build: %.2f s, %d/%d servers materialized, victim rack "
                "(%d,%d) holds %d/%d instances\n", build_s,
                cloud->materializedServers(), cloud->numServers(),
                victimPod, victimRack, rackCasualties, p.instances);

    // --- live query traffic with receiver-side accounting ---
    struct Slot {
        int instanceHost = -1;
        int client = -1;
        core::LtlChannel ch;
    };
    const std::vector<int> clientHosts = {
        topo.hostIndex(40, 0, 0), topo.hostIndex(80, 0, 0),
        topo.hostIndex(120, 0, 0), topo.hostIndex(200, 0, 0)};
    std::vector<Slot> slots(static_cast<std::size_t>(p.instances));

    // Re-point each slot at the service's current instance list; a slot
    // whose instance failed over reopens its channel to the replacement.
    const auto refreshSlots = [&] {
        const auto &inst = sm.instances();
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if (s >= inst.size()) {
                slots[s].ch.close();
                slots[s].instanceHost = -1;
                continue;
            }
            const int h = inst[s];
            if (slots[s].instanceHost == h && slots[s].ch)
                continue;
            slots[s].ch.close();
            slots[s].instanceHost = -1;
            const auto rit = roleOf.find(h);
            if (rit == roleOf.end() || rit->second->port < 0)
                continue;
            slots[s].client =
                clientHosts[s % clientHosts.size()];
            slots[s].ch = cloud->openLtl(slots[s].client, h,
                                         rit->second->port);
            slots[s].instanceHost = h;
        }
    };

    std::uint64_t nextId = 0;
    std::vector<char> done;  // delivered flag per query ID
    std::uint64_t deliveredCount = 0, duplicates = 0, resends = 0;
    std::vector<std::uint64_t> pending;  // awaiting (re)send

    // Round-robin @p batch over the open slots, 5 us apart per slot.
    const auto sendQueries = [&](const std::vector<std::uint64_t> &ids) {
        std::vector<std::size_t> open;
        for (std::size_t s = 0; s < slots.size(); ++s)
            if (slots[s].ch)
                open.push_back(s);
        if (open.empty())
            return false;
        // Spread each slot's queries across ~80% of the window so the
        // drill's injections land on live in-flight traffic.
        const std::size_t perSlot =
            (ids.size() + open.size() - 1) / open.size();
        const sim::TimePs spacing =
            (p.windowLen * 4 / 5) / static_cast<sim::TimePs>(perSlot + 1);
        std::vector<int> onSlot(slots.size(), 0);
        std::size_t k = 0;
        for (const std::uint64_t id : ids) {
            const std::size_t si = open[k++ % open.size()];
            Slot &sl = slots[si];
            const sim::TimePs at =
                static_cast<sim::TimePs>(onSlot[si]++ + 1) * spacing;
            auto *engine = cloud->shell(sl.client).ltlEngine();
            auto &q = cloud->queueFor(sl.client);
            q.scheduleAfter(at, [engine, conn = sl.ch.sendConn(), id] {
                engine->sendMessage(conn, 256,
                                    std::make_shared<std::uint64_t>(id));
            });
        }
        return true;
    };

    // Consume each role's newly delivered IDs (dedup across re-sends).
    const auto harvest = [&] {
        for (const auto &r : rolePool) {
            for (; r->harvested < r->delivered.size(); ++r->harvested) {
                const std::uint64_t id = r->delivered[r->harvested];
                if (done[id]) {
                    ++duplicates;
                    continue;
                }
                done[id] = 1;
                ++deliveredCount;
            }
        }
    };

    std::printf("\n  %6s %8s %10s %10s %10s %8s\n", "window", "issued",
                "delivered", "pending", "instances", "phases");
    int windowsRun = 0;
    for (int w = 0; w < p.windows + p.drainWindows; ++w) {
        const bool scripted = w < p.windows;
        if (!scripted && pending.empty())
            break;
        refreshSlots();
        std::vector<std::uint64_t> batch = std::move(pending);
        pending.clear();
        resends += batch.size();
        if (scripted) {
            for (int s = 0; s < p.instances; ++s)
                for (int i = 0; i < p.queriesPerSlot; ++i) {
                    batch.push_back(nextId++);
                    done.push_back(0);
                }
        }
        sendQueries(batch);
        if (scripted)
            fleet.schedulePings(probes, p.pingsPerWindow);
        sq->runFor(p.windowLen);
        ++windowsRun;
        harvest();
        for (const std::uint64_t id : batch)
            if (!done[id])
                pending.push_back(id);
        std::printf("  %6d %8llu %10llu %10zu %10zu %8llu\n", w,
                    static_cast<unsigned long long>(nextId),
                    static_cast<unsigned long long>(deliveredCount),
                    pending.size(), sm.instances().size(),
                    static_cast<unsigned long long>(chaos.phasesFired()));
    }

    // Drain in-flight frames, then harvest probe RTTs.
    sq->runFor(2 * p.windowLen);
    harvest();
    const sim::LogHistogram rtt = fleet.probeRtts(probes);

    // --- verdicts ---
    bool ok = true;
    const std::uint64_t issued = nextId;
    const std::uint64_t lost = issued - deliveredCount;
    std::printf("\nchaos zero-lost-queries: %s (issued=%llu delivered=%llu "
                "duplicates=%llu lost=%llu)\n", lost == 0 ? "OK" : "FAIL",
                static_cast<unsigned long long>(issued),
                static_cast<unsigned long long>(deliveredCount),
                static_cast<unsigned long long>(duplicates),
                static_cast<unsigned long long>(lost));
    ok = ok && lost == 0;

    const sim::TimePs convBound =
        hm.domainDetectionBound() + 2 * p.chaosPoll;
    const sim::TimePs convLatency = detectedAt >= 0 ? detectedAt - torAt : -1;
    const bool convOk = detectedAt >= 0 && convLatency <= convBound &&
                        hm.domainConvictions() == 1 && hm.detections() == 0;
    std::printf("chaos rack conviction: %s (latency=%.0f us <= bound=%.0f "
                "us; convictions=%llu, per-host detections=%llu)\n",
                convOk ? "OK" : "FAIL", sim::toMicros(convLatency),
                sim::toMicros(convBound),
                static_cast<unsigned long long>(hm.domainConvictions()),
                static_cast<unsigned long long>(hm.detections()));
    ok = ok && convOk;

    const sim::TimePs evacBound =
        static_cast<sim::TimePs>(rackCasualties) * p.migrationGap +
        2 * p.chaosPoll;
    const sim::TimePs evacLatency =
        evacuatedAt >= 0 && detectedAt >= 0 ? evacuatedAt - detectedAt : -1;
    const bool paced = sm.migrationsQueued() == 0 ||
                       sm.minMigrationGapObserved() >= p.migrationGap;
    const bool evacOk = evacuatedAt >= 0 && evacLatency <= evacBound && paced;
    std::printf("chaos evacuation: %s (latency=%.0f us <= bound=%.0f us; "
                "queued=%llu, min gap=%.0f us)\n", evacOk ? "OK" : "FAIL",
                sim::toMicros(evacLatency), sim::toMicros(evacBound),
                static_cast<unsigned long long>(sm.migrationsQueued()),
                sm.minMigrationGapObserved() == sim::kTimeNever
                    ? -1.0
                    : sim::toMicros(sm.minMigrationGapObserved()));
    ok = ok && evacOk;

    const double p99 = rtt.percentile(99.0);
    const bool sloOk = p99 < 150.0;
    const bool contained = rackCasualties <= p.maxPerRack;
    if (anti_affinity) {
        std::printf("chaos containment: %s (rack casualties=%d <= cap=%d; "
                    "healthy-pod rtt p99=%.2f us < 150 us)\n",
                    contained && sloOk ? "OK" : "FAIL", rackCasualties,
                    p.maxPerRack, p99);
        ok = ok && contained && sloOk;
    } else {
        // The ablation must demonstrably violate containment: without
        // anti-affinity, first-fit stacks the whole service behind one
        // TOR and the death takes every instance at once.
        std::printf("chaos containment: %s (rack casualties=%d of %d, cap "
                    "disabled; healthy-pod rtt p99=%.2f us)\n",
                    !contained ? "VIOLATED (expected)" : "FAIL",
                    rackCasualties, p.instances, p99);
        ok = ok && !contained && sloOk;
    }

    fluid->foldAll();
    const net::FluidConservation c = fluid->verify();
    std::printf("fluid conservation: %s (%llu flows, %llu fluid bytes)\n",
                c.ok ? "OK" : "FAIL",
                static_cast<unsigned long long>(c.flows),
                static_cast<unsigned long long>(c.fluidBytes));
    ok = ok && c.ok;

    const bool phasesOk = chaos.done();
    if (!phasesOk)
        std::printf("chaos phases: FAIL (only %llu fired)\n",
                    static_cast<unsigned long long>(chaos.phasesFired()));
    ok = ok && phasesOk;

    std::string prefix = anti_affinity ? "chaos" : "chaos_ablation";
    prefix += quick ? "_quick." : ".";
    bench::BenchValues out;
    const auto [wall_s, evps] =
        recordRunCost(out, prefix, t0, sq->eventsExecuted());
    std::printf("campaign: %.1f s wall, %.2f M events/s, %d windows, "
                "%llu re-sends, %llu domain faults injected\n", wall_s,
                evps / 1e6, windowsRun,
                static_cast<unsigned long long>(resends),
                static_cast<unsigned long long>(injector.domainFaults()));
    if (fleet.tsHub)
        std::printf(
            "telemetry: %llu windows, %llu JSONL lines -> %s; %llu alerts\n",
            static_cast<unsigned long long>(fleet.tsHub->windowsClosed()),
            static_cast<unsigned long long>(fleet.tsHub->exportedLines()),
            fleet.tsPath.c_str(),
            static_cast<unsigned long long>(fleet.slo->alertsFired()));

    out[prefix + "hosts"] = static_cast<double>(hosts);
    out[prefix + "issued"] = static_cast<double>(issued);
    out[prefix + "delivered"] = static_cast<double>(deliveredCount);
    out[prefix + "duplicates"] = static_cast<double>(duplicates);
    out[prefix + "lost"] = static_cast<double>(lost);
    out[prefix + "conviction_latency_us"] = sim::toMicros(convLatency);
    out[prefix + "conviction_bound_us"] = sim::toMicros(convBound);
    out[prefix + "evacuation_latency_us"] = sim::toMicros(evacLatency);
    out[prefix + "evacuation_bound_us"] = sim::toMicros(evacBound);
    out[prefix + "rack_casualties"] = static_cast<double>(rackCasualties);
    out[prefix + "containment_violated"] = contained ? 0.0 : 1.0;
    out[prefix + "healthy_rtt_p99_us"] = p99;
    out[prefix + "migrations_queued"] =
        static_cast<double>(sm.migrationsQueued());
    out[prefix + "domain_convictions"] =
        static_cast<double>(hm.domainConvictions());
    out[prefix + "per_host_detections"] =
        static_cast<double>(hm.detections());
    out[prefix + "affinity_skips"] =
        static_cast<double>(rm.affinitySkips());
    out[prefix + "conservation_ok"] = c.ok ? 1.0 : 0.0;
    bench::mergeBenchJson("BENCH_chaos.json", out);
    std::printf("wrote BENCH_chaos.json (%sissued/lost/"
                "conviction_latency_us/...)\n", prefix.c_str());

    if (!ok)
        sim::fatal("fig07 chaos: campaign verdicts failed (see above)");
    std::printf("\nchaos campaign: PASS\n");
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    const bench::Flags flags(argc, argv,
                             {{"--quick"}, {"--chaos"}, {"--no-anti-affinity"},
                              {"--fabric", "rack|l2"}, {"--shards", "N"}});
    const bool quick = flags.has("--quick");
    const bool antiAffinity = !flags.has("--no-anti-affinity");
    const int shards = flags.number("--shards", 0);
    if (flags.has("--chaos"))
        return runChaosCampaign(quick, shards, antiAffinity);
    if (!antiAffinity)
        sim::fatal("fig07: --no-anti-affinity requires --chaos");
    if (flags.value("--fabric", "rack") == "l2")
        return runL2Campaign(quick, shards);
    if (shards > 0)
        sim::fatal("fig07: --shards requires --fabric l2");
    return runRackStudy(quick);
}
