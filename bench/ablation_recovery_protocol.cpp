/**
 * @file
 * Ablation A6: the end-to-end failure detection & recovery protocol
 * under a chaos soak.
 *
 * A4 (ablation_fault_recovery) showed one hand-wired failover: the bench
 * itself subscribed to LTL failure callbacks and re-pointed the client.
 * This ablation exercises the *autonomous* protocol stack added on top:
 *
 *  - a haas::HealthMonitor detects every failure (active heartbeats +
 *    passive LTL timeout streaks) and reports/repairs nodes on the RM,
 *  - the ServiceManager auto-heals instances through its RM
 *    subscriptions,
 *  - the frontend runs per-query deadlines, bounded retry with backoff,
 *    and hedged requests to a replica instance, and
 *  - one outage is a *graceful* reconfiguration: the node's LTL engine
 *    quiesces (drain, then reject) before going dark.
 *
 * The fault injector runs with selfReport(false): it only manipulates
 * hardware state. Every detection and repair in this run comes from the
 * monitor. Asserted from observability counters alone:
 *
 *  - every node-dark fault is detected within the monitor's bound,
 *  - zero lost queries (submitted == completed, nothing in flight),
 *  - the flow-trace attribution invariant holds on every exemplar,
 *  - post-repair p99 within 5% of the pre-fault baseline (full run).
 *
 * Deterministic per seed: same seed, same timeline, same table. Pass
 * --quick for the CI smoke run (detection/loss/attribution still
 * enforced; the p99 threshold needs the full run's sample counts).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "haas/health_monitor.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/flow_trace.hpp"
#include "obs/metrics.hpp"
#include "roles/ranking/ranking_role.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

using namespace ccsim;

namespace {

struct Sample {
    sim::TimePs doneAt;
    double ms;
};

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        std::max(0.0, p / 100.0 * static_cast<double>(v.size()) - 1.0));
    return v[std::min(idx, v.size() - 1)];
}

struct PhaseStats {
    std::size_t n = 0;
    double mean = 0, p50 = 0, p99 = 0, max = 0;
};

PhaseStats
phaseStats(const std::vector<Sample> &samples, sim::TimePs from,
           sim::TimePs to)
{
    std::vector<double> v;
    for (const auto &s : samples)
        if (s.doneAt >= from && s.doneAt < to)
            v.push_back(s.ms);
    PhaseStats ps;
    ps.n = v.size();
    if (v.empty())
        return ps;
    double sum = 0;
    for (double x : v)
        sum += x;
    ps.mean = sum / static_cast<double>(v.size());
    ps.p50 = percentile(v, 50);
    ps.p99 = percentile(v, 99);
    ps.max = *std::max_element(v.begin(), v.end());
    return ps;
}

/** One frontend data-plane attachment to a service instance. */
struct Attachment {
    core::LtlChannel req, rep;
    std::unique_ptr<roles::RemoteRankingClient> client;
    int fwd = -1;  ///< forwarder-pool slot
};

}  // namespace

int
main(int argc, char **argv)
{
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

    std::printf("=== Ablation A6: chaos soak of the autonomous failure "
                "detection & recovery protocol ===%s\n\n",
                quick ? "  [quick]" : "");

    const double kQps = 2000.0;
    const double warm_s = quick ? 0.2 : 0.5;
    const double pre_s = quick ? 0.3 : 2.0;   // healthy baseline window
    const double post_s = quick ? 0.4 : 2.5;  // post-repair window
    const sim::TimePs kDark = sim::fromMillis(25);  // outage windows
    const sim::TimePs kFlap = 600 * sim::kMicrosecond;

    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    obs::Observability hub;

    // A small pod: 8 FPGA-equipped servers.
    net::TopologyConfig topo;
    topo.hostsPerRack = 4;
    topo.racksPerPod = 2;
    topo.l1PerPod = 2;
    topo.pods = 1;
    topo.l2Count = 1;
    fpga::ShellConfig shell;
    shell.ltl.maxConnections = 32;
    shell.roleSlots = 4;  // the frontend hosts a forwarder pool
    const core::CloudConfig cfg = core::CloudConfig{}
                                      .withTopology(topo)
                                      .withShellTemplate(shell)
                                      .withObservability(&hub)
                                      .withFlowTracing(64);
    core::ConfigurableCloud cloud(eq, cfg);
    auto &rm = cloud.resourceManager();

    // The frontend host is leased out of the pool so the accelerator
    // service can never land on it.
    auto frontend_lease = rm.acquire("ranking-frontend", 1);
    if (!frontend_lease)
        sim::fatal("ablation: empty pool");
    const int client = frontend_lease->hosts.front();

    // Ranking accelerator service: two instances, self-healing.
    std::vector<std::unique_ptr<roles::RankingRole>> role_pool;
    haas::ServiceManager sm(eq, rm, "rank", [&](int) {
        roles::RankingRoleParams rp;
        rp.occupancyPerDoc = 300 * sim::kNanosecond;
        rp.fixedLatency = 40 * sim::kMicrosecond;
        role_pool.push_back(std::make_unique<roles::RankingRole>(eq, rp));
        return role_pool.back().get();
    });
    sm.attachObservability(&hub);
    sm.enableAutoHeal(2);
    if (!sm.deploy(2))
        sim::fatal("ablation: deploy failed");
    const int v0 = sm.instances()[0];
    const int v1 = sm.instances()[1];

    // The failure detector: active heartbeats + passive LTL suspicion.
    haas::HealthMonitor hm(
        eq, rm,
        haas::HealthMonitorConfig{}
            .withHeartbeat(100 * sim::kMicrosecond, 10 * sim::kMicrosecond)
            .withSuspicion(3.0, 1.0, 1.0));
    hm.attachObservability(&hub);
    cloud.attachHealthMonitor(hm);
    hm.startSharded(sq);

    // ---- frontend data plane -------------------------------------------
    constexpr int kForwarders = 3;
    std::vector<std::unique_ptr<roles::ForwarderRole>> fwds;
    std::vector<bool> fwdBusy(kForwarders, false);
    for (int i = 0; i < kForwarders; ++i) {
        fwds.push_back(std::make_unique<roles::ForwarderRole>());
        if (cloud.shell(client).addRole(fwds.back().get()) < 0)
            sim::fatal("ablation: forwarder does not fit");
    }

    host::RankingServer server(eq, host::RankingServiceParams{}, nullptr,
                               31);
    server.attachObservability(&hub, "rank");
    // The deadline sits above the healthy end-to-end accel tail (~2.6 ms
    // completion p99) so it only expires during real outages; the hedge
    // delay adapts to the observed accel-stage p99.
    server.setRetryPolicy(
        serving::RequestPolicy{}
            .withDeadline(sim::fromMillis(3), 3)
            .withBackoff(200 * sim::kMicrosecond, 0.2)
            .withHedge()  // adaptive delay
            .withHedgeQuantile(99.0, 500 * sim::kMicrosecond));

    std::map<int, Attachment> attached;
    auto reconcile = [&] {
        const auto insts = sm.instances();
        // Detach instances the control plane has replaced (the RAII
        // channels close the dead connections).
        for (auto it = attached.begin(); it != attached.end();) {
            if (std::find(insts.begin(), insts.end(), it->first) ==
                insts.end()) {
                fwdBusy[it->second.fwd] = false;
                it = attached.erase(it);
            } else {
                ++it;
            }
        }
        // Attach new instances.
        for (int inst : insts) {
            if (attached.count(inst))
                continue;
            int f = -1;
            for (int i = 0; i < kForwarders; ++i)
                if (!fwdBusy[i])
                    f = f < 0 ? i : f;
            if (f < 0)
                break;
            Attachment a;
            a.req = cloud.openLtl(client, inst, fpga::kErPortRole0);
            a.rep = cloud.openLtl(inst, client, fwds[f]->port());
            a.client = std::make_unique<roles::RemoteRankingClient>(
                eq, cloud.shell(client), *fwds[f], a.req.sendConn(),
                a.rep.sendConn());
            a.fwd = f;
            fwdBusy[f] = true;
            attached.emplace(inst, std::move(a));
        }
        // Primary = first healthy attachment in instance order.
        host::FeatureAccelerator *primary = nullptr;
        for (int inst : insts) {
            auto it = attached.find(inst);
            if (it != attached.end() && !it->second.req.failed()) {
                primary = it->second.client.get();
                break;
            }
        }
        server.setAccelerator(primary);
    };
    server.setReplicaPicker([&]() -> host::FeatureAccelerator * {
        for (auto &[inst, a] : attached)
            if (a.client.get() != server.currentAccelerator() &&
                !a.req.failed())
                return a.client.get();
        return nullptr;
    });
    reconcile();

    bool reconciling = true;
    std::function<void()> reconcileLoop = [&] {
        if (!reconciling)
            return;
        reconcile();
        eq.scheduleAfter(500 * sim::kMicrosecond, [&] { reconcileLoop(); });
    };
    eq.scheduleAfter(500 * sim::kMicrosecond, [&] { reconcileLoop(); });

    // ---- load ----------------------------------------------------------
    std::vector<Sample> samples;
    std::uint64_t submitted = 0;
    host::PoissonLoadGenerator gen(
        eq, kQps,
        [&] {
            ++submitted;
            server.submitQuery([&](sim::TimePs lat) {
                samples.push_back({eq.now(), sim::toMillis(lat)});
            });
        },
        37);

    // ---- chaos script (hardware-only: selfReport off) ------------------
    const sim::TimePs t_warm = sim::fromSeconds(warm_s);
    const sim::TimePs t_g = t_warm + sim::fromSeconds(pre_s);
    const sim::TimePs t_p = t_g + sim::fromMillis(80);
    const sim::TimePs t_c = t_p + sim::fromMillis(80);
    const sim::TimePs t_f = t_c + sim::fromMillis(60);

    fault::FaultInjector injector(
        sq, cloud, fault::FaultConfig{}.withSeed(7).withSelfReport(false));
    fault::ChaosEngine chaos(
        sq,
        fault::ChaosScenario{}
            .withPhase("graceful-reconfig", t_g,
                       [&] { injector.gracefulReconfig(v0, kDark); })
            .withPhase("reconfig-pause", t_p,
                       [&] { injector.reconfigPause(v1, kDark); })
            .withPhase("corruption-burst", t_c,
                       [&] {
                           injector.corruptionBurst(
                               client, 0.08, 400 * sim::kMicrosecond);
                       })
            .withPhase("link-flap", t_f,
                       [&] { injector.flapHostLink(v0, kFlap); }));
    chaos.start();

    // Node-dark faults the monitor must detect. The graceful one drains
    // the victim's LTL engine before cutting, so its clock starts up to
    // one drain timeout late.
    struct DarkFault {
        const char *what;
        int host;
        sim::TimePs at;
        sim::TimePs bound;
    };
    const sim::TimePs kBound = hm.detectionBound();
    const sim::TimePs kDrainGrace = shell.ltl.quiesceDrainTimeout;
    const std::vector<DarkFault> darkFaults = {
        {"graceful reconfig", v0, t_g, kBound + kDrainGrace},
        {"reconfig pause", v1, t_p, kBound},
        {"link flap", v0, t_f, kBound},
    };

    // Record when the monitor's failure report reaches the RM for each
    // victim (reportFailure marks the node's FpgaManager unhealthy).
    // Checking that flag (rather than RM failure callbacks) covers nodes
    // that are back in the free pool when they fail: the RM only
    // notifies lease holders, but the detection bound applies to every
    // registered node. The monitor judges hosts at barriers, so the
    // check runs at every barrier, right after the monitor's own hook.
    std::vector<sim::TimePs> detectedAt(darkFaults.size(), -1);
    sq.atBarrier([&](sim::TimePs e) {
        for (std::size_t i = 0; i < darkFaults.size(); ++i) {
            if (detectedAt[i] >= 0 || e < darkFaults[i].at)
                continue;
            const haas::FpgaManager *fm = rm.manager(darkFaults[i].host);
            if (fm != nullptr && !fm->status().healthy)
                detectedAt[i] = e;
        }
        return sim::kTimeNever;
    });

    // ---- timeline, reported from the observability registry ------------
    struct Entry {
        sim::TimePs at;
        std::string text;
    };
    std::vector<Entry> timeline;
    auto probe = [&](const std::string &p) {
        return hub.registry.probeValue(p);
    };
    char buf[256];
    auto snap = [&](const char *text) {
        std::snprintf(buf, sizeof buf,
                      "%s: haas.health.detections=%.0f "
                      "haas.health.suspected=%.0f haas.failed=%.0f "
                      "haas.sm.rank.failovers=%.0f "
                      "haas.sm.rank.auto_heals=%.0f",
                      text, probe("haas.health.detections"),
                      probe("haas.health.suspected"), probe("haas.failed"),
                      probe("haas.sm.rank.failovers"),
                      probe("haas.sm.rank.auto_heals"));
        timeline.push_back({eq.now(), buf});
    };
    eq.schedule(t_g, [&] { snap("graceful reconfig begins (quiesce)"); });
    eq.schedule(t_g + kDark + kBound * 2,
                [&] { snap("graceful window over"); });
    eq.schedule(t_p, [&] { snap("ungraceful reconfig pause hits"); });
    eq.schedule(t_p + kDark + kBound * 2, [&] { snap("pause over"); });
    eq.schedule(t_c, [&] { snap("corruption burst on frontend link"); });
    eq.schedule(t_f + kFlap + kBound * 2, [&] { snap("flap over"); });

    // ---- run -----------------------------------------------------------
    gen.start();
    const sim::TimePs t_end = t_f + kFlap + sim::fromMillis(20) +
                              sim::fromSeconds(post_s);
    sq.runUntil(t_end);
    gen.stop();
    sq.runFor(sim::fromMillis(300));  // drain in-flight queries
    reconciling = false;
    hm.stop();
    sq.runFor(sim::fromMillis(1));  // let the last loop events expire

    // ---- report --------------------------------------------------------
    std::printf("timeline (all figures read live from the obs "
                "registry):\n");
    for (const auto &e : timeline)
        std::printf("  [%10.1f us] %s\n", sim::toMicros(e.at),
                    e.text.c_str());

    std::printf("\ndetector: heartbeats=%.0f misses=%.0f detections=%.0f "
                "rejoins=%.0f streak_reports=%.0f (bound %.0f us)\n",
                probe("haas.health.heartbeats"),
                probe("haas.health.misses"),
                probe("haas.health.detections"),
                probe("haas.health.rejoins"),
                probe("haas.health.streak_reports"),
                sim::toMicros(kBound));
    std::printf("frontend: deadline_expired=%.0f retries=%.0f hedges=%.0f "
                "hedge_wins=%.0f sw_fallbacks=%.0f hedge_delay=%.0f us\n",
                probe("host.rank.retry.deadline_expired"),
                probe("host.rank.retry.attempts"),
                probe("host.rank.retry.hedges"),
                probe("host.rank.retry.hedge_wins"),
                probe("host.rank.retry.sw_fallbacks"),
                probe("host.rank.retry.hedge_delay_us"));
    const std::string v0ltl = "ltl.node" + std::to_string(v0);
    std::printf("victim LTL (node %d): quiesces=%.0f sends_rejected=%.0f "
                "rejects_sent=%.0f\n",
                v0, probe(v0ltl + ".quiesces"),
                probe(v0ltl + ".sends_rejected"),
                probe(v0ltl + ".rejects_sent"));

    bool ok = true;

    // 1. Every node-dark fault detected within the monitor's bound.
    std::printf("\ndetection latency per injected dark fault:\n");
    for (std::size_t i = 0; i < darkFaults.size(); ++i) {
        const DarkFault &f = darkFaults[i];
        if (detectedAt[i] < 0) {
            std::printf("  %-18s host %d at %10.1f us: NEVER DETECTED\n",
                        f.what, f.host, sim::toMicros(f.at));
            ok = false;
            continue;
        }
        const sim::TimePs took = detectedAt[i] - f.at;
        const bool in_bound = took <= f.bound;
        std::printf("  %-18s host %d at %10.1f us: detected in %8.1f us "
                    "(bound %8.1f us) %s\n",
                    f.what, f.host, sim::toMicros(f.at),
                    sim::toMicros(took), sim::toMicros(f.bound),
                    in_bound ? "OK" : "TOO SLOW");
        if (!in_bound)
            ok = false;
    }
    if (ok)
        std::printf("detection within bound: OK\n");

    // 2. Zero lost queries.
    const std::uint64_t done = samples.size();
    std::printf("\nqueries: submitted=%llu completed=%llu in_flight=%llu "
                "(host.rank.completed=%.0f)\n",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(server.inFlight()),
                probe("host.rank.completed"));
    if (done != submitted || server.inFlight() != 0) {
        std::printf("FAIL: lost queries: %lld\n",
                    static_cast<long long>(submitted - done));
        ok = false;
    } else {
        std::printf("lost queries: 0\n");
    }

    // 3. Attribution invariant on every kept exemplar.
    std::uint64_t checked = 0;
    for (const obs::FlowTrace *t : hub.flows.worstFirst()) {
        const obs::LatencyAttribution a = obs::attributeLatency(*t);
        if (!a.consistent()) {
            std::printf("FAIL: attribution invariant violated for trace "
                        "%llu\n",
                        static_cast<unsigned long long>(t->traceId));
            ok = false;
        }
        ++checked;
    }
    if (ok)
        std::printf("attribution invariant: OK (%llu traces)\n",
                    static_cast<unsigned long long>(checked));

    // 4. Latency by phase; post-repair p99 near baseline.
    const sim::TimePs post_from = t_f + kFlap + sim::fromMillis(20);
    const PhaseStats pre = phaseStats(samples, t_warm, t_g);
    const PhaseStats during = phaseStats(samples, t_g, post_from);
    const PhaseStats post = phaseStats(samples, post_from, t_end);
    std::printf("\nlatency by phase (query completion time, ms):\n");
    std::printf("  %-22s %8s %8s %8s %8s %8s\n", "phase", "queries",
                "mean", "p50", "p99", "max");
    auto row = [](const char *name, const PhaseStats &s) {
        std::printf("  %-22s %8zu %8.2f %8.2f %8.2f %8.2f\n", name, s.n,
                    s.mean, s.p50, s.p99, s.max);
    };
    row("pre-fault (accel)", pre);
    row("during chaos", during);
    row("post-repair", post);

    const double delta =
        pre.p99 > 0 ? (post.p99 - pre.p99) / pre.p99 * 100.0 : 0.0;
    std::printf("\npost-repair p99 vs pre-fault baseline: %+.1f%% "
                "(%.2f ms -> %.2f ms)\n",
                delta, pre.p99, post.p99);
    if (!quick && std::abs(delta) > 5.0) {
        std::printf("FAIL: post-repair p99 outside 5%% of baseline\n");
        ok = false;
    }
    if (!quick && during.n == 0) {
        std::printf("FAIL: no queries completed during the chaos "
                    "window\n");
        ok = false;
    }

    if (ok)
        std::printf("\nconclusion: three node-dark faults, one corruption "
                    "burst; every failure\ndetected autonomously within "
                    "the bound, every query answered, and the\nself-"
                    "healed service returned to within %.1f%% of the "
                    "baseline p99.\n",
                    std::abs(delta));
    return ok ? 0 : 1;
}
