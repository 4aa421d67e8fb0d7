/**
 * @file
 * Reproduces the paper's Section I framing claim: LTL "makes the
 * datacenter-scale remote FPGA resources appear closer than either a
 * single local SSD access or the time to get through the host's
 * networking stack."
 *
 * LTL RTTs are measured on the simulated fabric (same methodology as
 * Figure 10); the comparators are standard latency figures for 2016-era
 * datacenter hardware: kernel UDP stack traversal ~25 us per direction
 * pair (syscall, socket, driver, interrupt+wakeup on the return), and
 * a datacenter-grade NVMe/SATA SSD random read ~90 us.
 */
#include <cstdio>
#include <memory>

#include "bench_json.hpp"
#include "core/cloud.hpp"
#include "scenario_util.hpp"
#include "sim/stats.hpp"

using namespace ccsim;

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    std::printf("=== Section I/V: how close are remote FPGAs? ===\n\n");

    sim::EventQueue eq;
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 24;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 2;
    cfg.topology.l2Count = 2;
    cfg.createNics = false;
    cfg.shellTemplate.roleSlots = 4;
    cfg.shellTemplate.ltl.maxConnections = 32;
    core::ConfigurableCloud cloud(eq, cfg);

    fpga::NullRole r0, r1, r2;
    cloud.shell(1).addRole(&r0);
    cloud.shell(24).addRole(&r1);
    cloud.shell(48).addRole(&r2);

    const double l0 = bench::meanLtlRttUs(cloud, eq, 0, 1, r0, 100);
    const double l1 = bench::meanLtlRttUs(cloud, eq, 0, 24, r1, 100);
    const double l2 = bench::meanLtlRttUs(cloud, eq, 0, 48, r2, 100);

    // Comparators (2016-era production hardware, see file comment).
    const double host_stack_rtt_us = 2.0 * 25.0;  // request + response
    const double ssd_read_us = 90.0;

    std::printf("  %-44s %10s\n", "operation", "latency");
    std::printf("  %-44s %8.2f us\n",
                "LTL round trip, same TOR (24 hosts)", l0);
    std::printf("  %-44s %8.2f us\n",
                "LTL round trip, same pod (960 hosts)", l1);
    std::printf("  %-44s %8.2f us\n",
                "LTL round trip, cross pod (250k+ hosts)", l2);
    std::printf("  %-44s %8.2f us\n",
                "host networking stack round trip (kernel UDP)",
                host_stack_rtt_us);
    std::printf("  %-44s %8.2f us\n", "single local SSD random read",
                ssd_read_us);

    std::printf("\npaper claim reproduced: %s — every remote FPGA in the "
                "datacenter is reachable faster\nthan one local SSD "
                "access, and faster than host software could even enter "
                "the network.\n",
                (l2 < host_stack_rtt_us && l2 < ssd_read_us) ? "yes"
                                                             : "NO");
    return 0;
}
