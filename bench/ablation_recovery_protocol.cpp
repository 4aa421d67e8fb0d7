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
 *
 * The three enforced results are also merged into BENCH_recovery.json
 * (recovery.detection_within_bound and recovery.attribution_ok as 1/0,
 * recovery.lost_queries as a count), so CI asserts them by key.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "haas/health_monitor.hpp"
#include "obs/flow_trace.hpp"
#include "scenario_util.hpp"

using namespace ccsim;

int
main(int argc, char **argv)
{
    const bool quick = bench::Flags(argc, argv, {{"--quick"}}).has("--quick");

    std::printf("=== Ablation A6: chaos soak of the autonomous failure "
                "detection & recovery protocol ===%s\n\n",
                quick ? "  [quick]" : "");

    const double warm_s = quick ? 0.2 : 0.5;
    const double pre_s = quick ? 0.3 : 2.0;   // healthy baseline window
    const double post_s = quick ? 0.4 : 2.5;  // post-repair window
    const sim::TimePs kDark = sim::fromMillis(25);  // outage windows
    const sim::TimePs kFlap = 600 * sim::kMicrosecond;

    // Ranking accelerator service: two instances, self-healing; flow
    // tracing samples one flow in 64.
    fpga::ShellConfig shell;
    shell.ltl.maxConnections = 32;
    shell.roleSlots = 4;  // the frontend hosts a forwarder pool
    bench::RecoveryPod pod(shell, 64);
    sim::EventQueue &eq = pod.eq;
    sim::ShardedEventQueue &sq = pod.sq;
    core::ConfigurableCloud &cloud = pod.cloud;
    haas::ServiceManager &sm = pod.sm;
    const int client = pod.client;
    sm.enableAutoHeal(2);
    if (!sm.deploy(2))
        sim::fatal("ablation: deploy failed");
    const int v0 = sm.instances()[0];
    const int v1 = sm.instances()[1];

    // The failure detector: active heartbeats + passive LTL suspicion.
    haas::HealthMonitor hm(
        eq, pod.rm,
        haas::HealthMonitorConfig{}
            .withHeartbeat(100 * sim::kMicrosecond, 10 * sim::kMicrosecond)
            .withSuspicion(3.0, 1.0, 1.0));
    hm.attachObservability(&pod.hub);
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

    bench::RankingFrontend front(pod, nullptr);
    host::RankingServer &server = front.server;
    // The deadline sits above the healthy end-to-end accel tail (~2.6 ms
    // completion p99) so it only expires during real outages; the hedge
    // delay adapts to the observed accel-stage p99.
    server.setRetryPolicy({.accelDeadline = sim::fromMillis(3),
                           .maxAttempts = 3,
                           .backoffBase = 200 * sim::kMicrosecond,
                           .backoffJitter = 0.2,
                           .hedge = true,  // adaptive delay
                           .hedgeQuantile = 99.0,
                           .hedgeMinDelay = 500 * sim::kMicrosecond});

    std::map<int, bench::RecoveryPod::Attachment> attached;
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
            bench::RecoveryPod::Attachment a;
            pod.connect(a, inst, *fwds[f]);
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
            const haas::FpgaManager *fm = pod.rm.manager(darkFaults[i].host);
            if (fm != nullptr && !fm->status().healthy)
                detectedAt[i] = e;
        }
        return sim::kTimeNever;
    });

    // ---- timeline, reported from the observability registry ------------
    auto snap = [&](const char *text) {
        pod.note("%s: haas.health.detections=%.0f haas.health.suspected=%.0f "
                 "haas.failed=%.0f haas.sm.rank.failovers=%.0f "
                 "haas.sm.rank.auto_heals=%.0f",
                 text, pod.probe("haas.health.detections"),
                 pod.probe("haas.health.suspected"), pod.probe("haas.failed"),
                 pod.probe("haas.sm.rank.failovers"),
                 pod.probe("haas.sm.rank.auto_heals"));
    };
    eq.schedule(t_g, [&] { snap("graceful reconfig begins (quiesce)"); });
    eq.schedule(t_g + kDark + kBound * 2,
                [&] { snap("graceful window over"); });
    eq.schedule(t_p, [&] { snap("ungraceful reconfig pause hits"); });
    eq.schedule(t_p + kDark + kBound * 2, [&] { snap("pause over"); });
    eq.schedule(t_c, [&] { snap("corruption burst on frontend link"); });
    eq.schedule(t_f + kFlap + kBound * 2, [&] { snap("flap over"); });

    // ---- run -----------------------------------------------------------
    front.gen.start();
    const sim::TimePs t_end = t_f + kFlap + sim::fromMillis(20) +
                              sim::fromSeconds(post_s);
    sq.runUntil(t_end);
    front.gen.stop();
    sq.runFor(sim::fromMillis(300));  // drain in-flight queries
    reconciling = false;
    hm.stop();
    sq.runFor(sim::fromMillis(1));  // let the last loop events expire

    // ---- report --------------------------------------------------------
    pod.printTimeline();

    std::printf("\ndetector: heartbeats=%.0f misses=%.0f detections=%.0f "
                "rejoins=%.0f streak_reports=%.0f (bound %.0f us)\n",
                pod.probe("haas.health.heartbeats"),
                pod.probe("haas.health.misses"),
                pod.probe("haas.health.detections"),
                pod.probe("haas.health.rejoins"),
                pod.probe("haas.health.streak_reports"),
                sim::toMicros(kBound));
    std::printf("frontend: deadline_expired=%.0f retries=%.0f hedges=%.0f "
                "hedge_wins=%.0f sw_fallbacks=%.0f hedge_delay=%.0f us\n",
                pod.probe("host.rank.retry.deadline_expired"),
                pod.probe("host.rank.retry.attempts"),
                pod.probe("host.rank.retry.hedges"),
                pod.probe("host.rank.retry.hedge_wins"),
                pod.probe("host.rank.retry.sw_fallbacks"),
                pod.probe("host.rank.retry.hedge_delay_us"));
    const std::string v0ltl = "ltl.node" + std::to_string(v0);
    std::printf("victim LTL (node %d): quiesces=%.0f sends_rejected=%.0f "
                "rejects_sent=%.0f\n",
                v0, pod.probe(v0ltl + ".quiesces"),
                pod.probe(v0ltl + ".sends_rejected"),
                pod.probe(v0ltl + ".rejects_sent"));

    // 1. Every node-dark fault detected within the monitor's bound.
    bool detectionOk = true;
    std::printf("\ndetection latency per injected dark fault:\n");
    for (std::size_t i = 0; i < darkFaults.size(); ++i) {
        const DarkFault &f = darkFaults[i];
        if (detectedAt[i] < 0) {
            std::printf("  %-18s host %d at %10.1f us: NEVER DETECTED\n",
                        f.what, f.host, sim::toMicros(f.at));
            detectionOk = false;
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
            detectionOk = false;
    }
    if (detectionOk)
        std::printf("detection within bound: OK\n");
    bool ok = detectionOk;

    // 2. Zero lost queries.
    const std::uint64_t done = front.samples.size();
    const auto lost = static_cast<long long>(front.submitted - done);
    std::printf("\nqueries: submitted=%llu completed=%llu in_flight=%llu "
                "(host.rank.completed=%.0f)\n",
                static_cast<unsigned long long>(front.submitted),
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(server.inFlight()),
                pod.probe("host.rank.completed"));
    if (done != front.submitted || server.inFlight() != 0) {
        std::printf("FAIL: lost queries: %lld\n", lost);
        ok = false;
    } else {
        std::printf("lost queries: 0\n");
    }

    // 3. Attribution invariant on every kept exemplar.
    bool attributionOk = true;
    std::uint64_t checked = 0;
    for (const obs::FlowTrace *t : pod.hub.flows.worstFirst()) {
        const obs::LatencyAttribution a = obs::attributeLatency(*t);
        if (!a.consistent()) {
            std::printf("FAIL: attribution invariant violated for trace "
                        "%llu\n",
                        static_cast<unsigned long long>(t->traceId));
            attributionOk = false;
            ok = false;
        }
        ++checked;
    }
    if (ok)
        std::printf("attribution invariant: OK (%llu traces)\n",
                    static_cast<unsigned long long>(checked));
    bench::mergeBenchJson(
        "BENCH_recovery.json",
        {{"recovery.detection_within_bound", detectionOk ? 1.0 : 0.0},
         {"recovery.lost_queries", static_cast<double>(lost)},
         {"recovery.attribution_ok", attributionOk ? 1.0 : 0.0}});

    // 4. Latency by phase; post-repair p99 near baseline.
    const sim::TimePs post_from = t_f + kFlap + sim::fromMillis(20);
    const auto [pre, during, post] = front.phaseTable(
        {t_warm, t_g, post_from, t_end},
        {"pre-fault (accel)", "during chaos", "post-repair"});
    const double delta = bench::printP99Delta("post-repair", pre, post);
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
