/**
 * @file
 * Ablation A7: the cluster serving layer under overload and grey failure.
 *
 * Two phases, both pure functions of their seeds:
 *
 *  1. **Goodput under overload** — a ranking frontend drives a Poisson
 *     query stream through a ClusterClient over four pipelined FPGA
 *     accelerators, sweeping offered load from 0.5x to 2x the frontend's
 *     saturation point, with the token-bucket admission controller off
 *     and on. Goodput counts only queries answered within the SLO.
 *     Without admission, overload queues every query past its deadline
 *     and goodput falls off a cliff; with admission, excess arrivals are
 *     shed up front and goodput plateaus. The assertion (also enforced
 *     by CI in --quick mode): goodput at 1.5x saturation with admission
 *     on stays >= 90% of the sweep's peak.
 *
 *  2. **Grey failure: ejection vs heartbeat** — one backend in a HaaS
 *     pool silently degrades to 20x its service time mid-run. It still
 *     answers every management-path heartbeat, so the HealthMonitor's
 *     active path sees nothing (misses stay at zero); the serving
 *     layer's latency-percentile outlier detector ejects it from the
 *     routable set directly from data-plane evidence, and the ejection
 *     feeds one idempotent evidence report back to the monitor. The
 *     assertion: ejection lands strictly earlier than the monitor's own
 *     heartbeat-only detection bound for a node that went fully dark.
 *
 * Headline numbers are merged into BENCH_serving.json for the CI
 * artifact trail. Pass --quick for the shortened CI run; both phases'
 * assertions are enforced in quick mode too.
 */
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/cloud.hpp"
#include "haas/health_monitor.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "roles/dnn_role.hpp"
#include "serving/cluster_client.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

using namespace ccsim;

namespace {

/**
 * A pipelined accelerator endpoint whose service time can be inflated
 * mid-run — the grey-failure stand-in. Requests are accepted at the
 * engine's initiation interval and return after the fill latency, like
 * LocalFpgaAccelerator, but with a runtime slowdown multiplier.
 */
class DegradableAccelerator : public host::FeatureAccelerator
{
  public:
    explicit DegradableAccelerator(sim::EventQueue &eq) : queue(eq) {}

    void compute(std::uint32_t doc_count,
                 std::function<void()> done) override
    {
        const auto occupancy = static_cast<sim::TimePs>(doc_count) *
                               occupancyPerDoc * multiplier;
        const sim::TimePs start = std::max(queue.now(), busyUntil);
        busyUntil = start + occupancy;
        queue.schedule(busyUntil + fixedLatency * multiplier,
                       [d = std::move(done)] {
                           if (d)
                               d();
                       });
    }

    void setMultiplier(int m) { multiplier = m; }

    sim::TimePs occupancyPerDoc = 300 * sim::kNanosecond;
    sim::TimePs fixedLatency = 60 * sim::kMicrosecond;

  private:
    sim::EventQueue &queue;
    sim::TimePs busyUntil = 0;
    int multiplier = 1;
};

// ---------------------------------------------------------------------
// Phase 1: goodput under overload, admission off vs on
// ---------------------------------------------------------------------

/**
 * Frontend saturation: ~930us + ~620us CPU + ~120us accelerator per
 * query, 12 cores -> ~7.2k qps. The admission cap sits just below it.
 */
constexpr double kSatQps = 7200.0;
constexpr double kAdmitQps = 6200.0;
constexpr double kSloMs = 5.0;

struct LoadPoint {
    double factor = 0.0;      ///< offered load / saturation
    double goodputQps = 0.0;  ///< SLO-met completions per second
    double shedFrac = 0.0;    ///< submissions refused by admission
};

LoadPoint
runLoadPoint(double factor, bool admission_on, bool quick)
{
    const double warm_s = quick ? 0.2 : 0.4;
    const double window_s = quick ? 0.4 : 1.0;

    sim::EventQueue eq;
    std::vector<std::unique_ptr<host::LocalFpgaAccelerator>> accels;
    std::vector<int> instances;
    for (int i = 0; i < 4; ++i) {
        accels.push_back(
            std::make_unique<host::LocalFpgaAccelerator>(eq));
        instances.push_back(i);
    }

    serving::ServingConfig scfg;
    scfg.balancer = serving::BalancerPolicy::kLeastOutstanding;
    if (admission_on)
        scfg.admission.withRate(kAdmitQps, 64.0);
    serving::ClusterClient cluster(
        eq, "rank", [&instances] { return instances; }, scfg);
    for (int i = 0; i < 4; ++i)
        cluster.registerEndpoint(i, accels[i].get());

    host::RankingServer server(eq, host::RankingServiceParams{}, nullptr,
                               31);
    server.attachCluster(cluster, "bing");

    const sim::TimePs w_start = sim::fromSeconds(warm_s);
    const sim::TimePs w_end = w_start + sim::fromSeconds(window_s);
    std::uint64_t window_submitted = 0, window_shed = 0, window_good = 0;

    host::PoissonLoadGenerator gen(
        eq, factor * kSatQps,
        [&] {
            const sim::TimePs submitted_at = eq.now();
            const bool in_window =
                submitted_at >= w_start && submitted_at < w_end;
            if (in_window)
                ++window_submitted;
            const bool accepted = server.submitQuery([&, in_window](
                                                         sim::TimePs lat) {
                if (in_window && sim::toMillis(lat) <= kSloMs)
                    ++window_good;
            });
            if (!accepted && in_window)
                ++window_shed;
        },
        37);

    gen.start();
    eq.runUntil(w_end);
    gen.stop();
    // Let window submissions either finish or overshoot the SLO; queries
    // still queued after the slack have missed it by construction.
    eq.runFor(sim::fromMillis(quick ? 50 : 100));

    LoadPoint p;
    p.factor = factor;
    p.goodputQps = static_cast<double>(window_good) / window_s;
    p.shedFrac = window_submitted > 0
                     ? static_cast<double>(window_shed) /
                           static_cast<double>(window_submitted)
                     : 0.0;
    return p;
}

// ---------------------------------------------------------------------
// Phase 2: grey failure — passive ejection vs heartbeat detection
// ---------------------------------------------------------------------

struct GreyResult {
    bool ejected = false;
    double ejectMs = 0.0;          ///< grey onset -> ejection
    double heartbeatBoundMs = 0.0; ///< monitor's own dark-node bound
    std::uint64_t heartbeatMisses = 0;
    std::uint64_t evidenceReports = 0;
    double suspicion = 0.0;
};

GreyResult
runGreyFailure()
{
    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    obs::Observability hub;

    net::TopologyConfig topo;
    topo.hostsPerRack = 4;
    topo.racksPerPod = 2;
    topo.l1PerPod = 2;
    topo.pods = 1;
    topo.l2Count = 1;

    // Latency-percentile ejection tuned for a short run: a 32-sample
    // window re-evaluated every 16 successes, eject at 3x the cluster
    // median. Consecutive-error and timeout signals stay off — the grey
    // host never *fails* a request, it only serves them slowly.
    serving::ServingConfig scfg;
    scfg.balancer = serving::BalancerPolicy::kRoundRobin;
    scfg.ejection = {.consecutiveErrors = 0,
                     .baseEjectionTime = sim::fromMillis(500),
                     .maxEjectionMultiplier = 4,
                     .latencyFactor = 3.0,
                     .latencyPercentile = 50.0,
                     .minLatencySamples = 16,
                     .latencyWindow = 32};

    core::ConfigurableCloud cloud(eq, {.topology = topo,
                                       .createNics = false,
                                       .obs = &hub,
                                       .serving = scfg});
    auto &rm = cloud.resourceManager();

    // Management-path heartbeats at a realistic sweep period. The
    // monitor needs three misses to declare a node dead, so its bound
    // for a node that goes fully dark is ~4 sweep periods — and a grey
    // node never misses at all.
    haas::HealthMonitor hm(
        eq, rm,
        haas::HealthMonitorConfig{}
            .withHeartbeat(sim::fromMillis(250), sim::kMillisecond)
            .withSuspicion(3.0, 1.0, 1.0));
    cloud.attachHealthMonitor(hm);
    hm.startSharded(sq);

    std::map<int, std::unique_ptr<DegradableAccelerator>> accels;
    std::vector<std::unique_ptr<roles::DnnRole>> role_storage;
    haas::ServiceManager sm(eq, rm, "rank", [&](int) -> fpga::Role * {
        role_storage.push_back(std::make_unique<roles::DnnRole>(eq));
        return role_storage.back().get();
    });
    if (!sm.deploy(4))
        sim::fatal("ablation: deploy failed");

    auto cluster = cloud.makeClusterClient(sm, "rank", &hm);
    for (int host : sm.instances()) {
        accels[host] = std::make_unique<DegradableAccelerator>(eq);
        cluster->registerEndpoint(host, accels[host].get());
    }
    const int grey = sm.instances().front();

    host::PoissonLoadGenerator gen(
        eq, 2000.0,
        [&] {
            if (cluster->admit())
                cluster->compute(200, {});
        },
        41);

    const sim::TimePs t_grey = sim::fromMillis(500);
    const sim::TimePs t_end = t_grey + sim::fromSeconds(3.0);
    eq.schedule(t_grey, [&] { accels[grey]->setMultiplier(20); });

    GreyResult r;
    sim::TimePs t_eject = 0;
    std::function<void()> poll = [&] {
        if (cluster->outliers().ejected(grey)) {
            t_eject = eq.now();
            // Read the monitor state at the moment of ejection: the next
            // answered heartbeat will clear the suspicion again (the
            // management path *is* healthy — that is the point).
            r.evidenceReports = hm.evidenceReports();
            r.suspicion = hm.suspicion(grey);
            return;
        }
        if (eq.now() < t_end)
            eq.scheduleAfter(sim::kMillisecond, poll);
    };
    eq.schedule(t_grey, poll);

    gen.start();
    sq.runUntil(t_end);
    gen.stop();

    r.ejected = t_eject != 0;
    r.ejectMs = sim::toMillis(t_eject - t_grey);
    r.heartbeatBoundMs = sim::toMillis(hm.detectionBound());
    r.heartbeatMisses = hm.heartbeatsMissed();
    return r;
}

}  // namespace

int
main(int argc, char **argv)
{
    const bool quick = bench::Flags(argc, argv, {{"--quick"}}).has("--quick");

    std::printf("=== Ablation A7: serving layer under overload and grey "
                "failure ===%s\n\n",
                quick ? "  [quick]" : "");

    // ---- phase 1: goodput sweep -----------------------------------------
    std::printf("phase 1: goodput vs offered load (saturation ~%.0f qps, "
                "admission cap %.0f qps, SLO %.1f ms)\n",
                kSatQps, kAdmitQps, kSloMs);
    std::printf("  %-8s %18s %18s %10s\n", "load", "goodput (off)",
                "goodput (on)", "shed (on)");

    const std::vector<double> factors = {0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
    std::map<double, LoadPoint> off_points, on_points;
    for (double f : factors) {
        off_points[f] = runLoadPoint(f, false, quick);
        on_points[f] = runLoadPoint(f, true, quick);
        std::printf("  %-8.2f %14.0f qps %14.0f qps %9.0f%%\n", f,
                    off_points[f].goodputQps, on_points[f].goodputQps,
                    on_points[f].shedFrac * 100.0);
    }

    double peak_on = 0.0, peak_off = 0.0;
    for (double f : factors) {
        peak_on = std::max(peak_on, on_points[f].goodputQps);
        peak_off = std::max(peak_off, off_points[f].goodputQps);
    }
    const double plateau =
        peak_on > 0 ? on_points[1.5].goodputQps / peak_on : 0.0;
    std::printf("\n  peak goodput: %.0f qps (admission on), %.0f qps "
                "(off)\n",
                peak_on, peak_off);
    std::printf("  at 1.5x saturation: %.0f qps with admission (%.0f%% "
                "of peak) vs %.0f qps without\n",
                on_points[1.5].goodputQps, plateau * 100.0,
                off_points[1.5].goodputQps);

    bool ok = true;
    if (plateau >= 0.90) {
        std::printf("  goodput plateau: OK (>= 90%% of peak at 1.5x "
                    "saturation)\n");
    } else {
        std::printf("  goodput plateau: FAIL (%.0f%% < 90%% of peak)\n",
                    plateau * 100.0);
        ok = false;
    }
    if (off_points[1.5].goodputQps >= 0.5 * on_points[1.5].goodputQps) {
        std::printf("  FAIL: no overload cliff without admission — the "
                    "ablation shows nothing\n");
        ok = false;
    }

    // ---- phase 2: grey failure ------------------------------------------
    std::printf("\nphase 2: grey backend (20x service time, heartbeats "
                "still answered)\n");
    const GreyResult grey = runGreyFailure();
    if (!grey.ejected) {
        std::printf("  FAIL: grey backend was never ejected\n");
        ok = false;
    } else {
        std::printf("  outlier ejection after %.1f ms of grey service "
                    "(latency percentile)\n",
                    grey.ejectMs);
        std::printf("  heartbeat-only detection bound for a dark node: "
                    "%.1f ms — and this node never\n  missed a beat "
                    "(misses=%llu), so heartbeats alone would never "
                    "catch it\n",
                    grey.heartbeatBoundMs,
                    static_cast<unsigned long long>(grey.heartbeatMisses));
        std::printf("  evidence fed to HealthMonitor: %llu report(s), "
                    "suspicion %.1f\n",
                    static_cast<unsigned long long>(grey.evidenceReports),
                    grey.suspicion);
        if (grey.ejectMs < grey.heartbeatBoundMs &&
            grey.heartbeatMisses == 0 && grey.evidenceReports >= 1) {
            std::printf("  ejection beats heartbeat: OK (%.1f ms < %.1f "
                        "ms bound)\n",
                        grey.ejectMs, grey.heartbeatBoundMs);
        } else {
            std::printf("  ejection beats heartbeat: FAIL\n");
            ok = false;
        }
    }

    // ---- trajectory file -------------------------------------------------
    ccsim::bench::BenchValues v;
    v["serving.goodput_peak_on_qps"] = peak_on;
    v["serving.goodput_1p5x_on_qps"] = on_points[1.5].goodputQps;
    v["serving.goodput_1p5x_off_qps"] = off_points[1.5].goodputQps;
    v["serving.plateau_ratio"] = plateau;
    v["serving.shed_frac_1p5x"] = on_points[1.5].shedFrac;
    v["serving.grey_eject_ms"] = grey.ejectMs;
    v["serving.heartbeat_bound_ms"] = grey.heartbeatBoundMs;
    ccsim::bench::mergeBenchJson("BENCH_serving.json", v);
    std::printf("\n-> BENCH_serving.json (serving.*)\n");

    if (ok)
        std::printf("\nconclusion: admission shedding turns the overload "
                    "cliff into a plateau, and\npassive outlier ejection "
                    "catches a grey backend the heartbeat path cannot "
                    "see.\n");
    return ok ? 0 : 1;
}
