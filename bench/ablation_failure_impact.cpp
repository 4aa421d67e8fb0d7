/**
 * @file
 * Ablation A3: failure blast radius — bump-in-the-wire vs the torus.
 *
 * The paper's architectural argument (Sections I/II/V-C): in the 6x8
 * torus, a failed FPGA forces neighbours to re-route around it (extra
 * hops and latency) and certain failure patterns isolate healthy nodes;
 * in the Configurable Cloud, an FPGA failure affects only its own
 * server — every other FPGA pair keeps its latency, and the HaaS pool
 * simply swaps in one of the abundant spares.
 */
#include <cstdio>
#include <memory>

#include "bench_json.hpp"
#include "core/cloud.hpp"
#include "scenario_util.hpp"
#include "sim/stats.hpp"
#include "torus/torus.hpp"

using namespace ccsim;

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    std::printf("=== Ablation A3: failure blast radius ===\n\n");

    // ---- Torus: neighbours pay for a failure ------------------------
    std::printf("-- 6x8 torus (Catapult v1) --\n");
    torus::TorusNetwork torus;
    const torus::TorusCoord a{0, 0}, b{2, 0}, victim{1, 0};
    const double before = sim::toMicros(*torus.roundTripLatency(a, b));
    torus.failNode(victim);
    const double after = sim::toMicros(*torus.roundTripLatency(a, b));
    std::printf("  neighbour pair (0,0)<->(2,0) RTT: %.2f us -> %.2f us "
                "after (1,0) fails (+%.0f%%)\n", before, after,
                100.0 * (after - before) / before);

    // Pathological pattern: surrounding failures isolate a healthy node.
    torus::TorusNetwork torus2;
    torus2.failNode({1, 2});
    torus2.failNode({3, 2});
    torus2.failNode({2, 1});
    torus2.failNode({2, 3});
    std::printf("  4 failures around (2,2): healthy node isolated, "
                "reachable set %d/47\n",
                torus2.reachableNodes({0, 0}) - 1);

    // ---- Configurable Cloud: zero neighbour impact -------------------
    std::printf("\n-- Configurable Cloud (bump-in-the-wire + LTL) --\n");
    sim::EventQueue eq;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 8;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.createNics = false;
    cfg.shellTemplate.roleSlots = 4;
    cfg.shellTemplate.ltl.maxConnections = 32;
    core::ConfigurableCloud cloud(eq, cfg);

    fpga::NullRole r1, r2;
    cloud.shell(2).addRole(&r1);
    const double rtt_before = bench::meanLtlRttUs(cloud, eq, 0, 2, r1, 50);

    // Host 1's FPGA — sitting between hosts 0 and 2 in the rack — goes
    // dark (buggy image: its own server is cut off).
    cloud.shell(1).loadApplicationImage(
        fpga::FpgaImage{"buggy", false, 0, true});
    eq.runFor(3 * sim::kSecond);

    cloud.shell(2).addRole(&r2);
    const double rtt_after = bench::meanLtlRttUs(cloud, eq, 0, 2, r2, 50);
    std::printf("  pair 0<->2 LTL RTT: %.2f us -> %.2f us after host 1's "
                "FPGA fails (%+.1f%%)\n", rtt_before, rtt_after,
                100.0 * (rtt_after - rtt_before) / rtt_before);
    std::printf("  only the failed FPGA's own server is unreachable; "
                "no re-routing, no isolation of healthy nodes\n");

    // HaaS replaces the failed device from the spare pool.
    cloud.resourceManager().reportFailure(1);
    auto lease = cloud.resourceManager().acquire("svc", 1);
    std::printf("  HaaS: node 1 marked failed; replacement lease "
                "granted on host %d (%d spares left)\n",
                lease ? lease->hosts.front() : -1,
                cloud.resourceManager().freeCount());

    std::printf("\nconclusion: the torus couples failures to healthy "
                "neighbours (extra hops, possible isolation);\nthe "
                "bump-in-the-wire decouples them — the paper's core "
                "resilience argument for Catapult v2.\n");
    return 0;
}
