/**
 * @file
 * Reproduces Figure 6: 99th-percentile latency versus throughput of
 * ranking-service queries on a single server, with and without the local
 * FPGA (FFU + DPF offload).
 *
 * As in the paper, both axes are normalized: the production 99% latency
 * target and the typical software-mode throughput are 1.0. The headline
 * result is that at the target tail latency the FPGA-accelerated server
 * sustains 2.25x the software throughput, while the FPGA itself remains
 * underutilized (the software portion saturates the host first).
 */
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "sim/event_queue.hpp"

using namespace ccsim;

namespace {

struct Point {
    double qps;
    double p99_ms;
    double completed_qps;
    double fpga_util;
};

Point
runPoint(double qps, bool use_fpga, double measure_seconds = 15.0)
{
    sim::EventQueue eq;
    std::unique_ptr<host::LocalFpgaAccelerator> accel;
    if (use_fpga)
        accel = std::make_unique<host::LocalFpgaAccelerator>(eq);
    host::RankingServer server(eq, host::RankingServiceParams{},
                               accel.get(), 42);
    host::PoissonLoadGenerator gen(eq, qps, [&] { server.submitQuery(); },
                                   7);
    gen.start();
    eq.runUntil(sim::fromSeconds(3.0));  // warm-up
    server.clearStats();
    const auto completed_before = server.completed();
    eq.runFor(sim::fromSeconds(measure_seconds));
    gen.stop();

    Point p;
    p.qps = qps;
    p.p99_ms = server.latencyMs().percentile(99.0);
    p.completed_qps =
        static_cast<double>(server.completed() - completed_before) /
        measure_seconds;
    p.fpga_util = accel ? accel->utilization(eq.now()) : 0.0;
    return p;
}

/** Max offered load whose p99 stays at or below the target. */
double
throughputAtTarget(const std::vector<Point> &curve, double target_ms)
{
    double best = 0.0;
    for (const auto &p : curve) {
        if (p.p99_ms <= target_ms)
            best = std::max(best, p.completed_qps);
    }
    return best;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    std::printf("=== Figure 6: 99%% latency vs throughput, single "
                "ranking server ===\n\n");

    // Production operating point for normalization: software at ~93% of
    // its saturation throughput (capacity = 12 cores / 3.6 ms = 3333/s).
    const double kSoftwareNominalQps = 3100.0;

    std::vector<double> sw_rates = {500,  1000, 1500, 2000, 2400, 2800,
                                    3000, 3100, 3200, 3300, 3400};
    std::vector<double> fpga_rates = {500,  1500, 2500, 3500, 4500,
                                      5500, 6200, 6600, 6800, 6900,
                                      7000, 7100, 7300, 7600};

    std::vector<Point> sw_curve, fpga_curve;
    for (double r : sw_rates)
        sw_curve.push_back(runPoint(r, false));
    for (double r : fpga_rates)
        fpga_curve.push_back(runPoint(r, true));

    // Normalize: latency by the software p99 at the nominal point,
    // throughput by the nominal software throughput.
    const Point norm_point = runPoint(kSoftwareNominalQps, false, 30.0);
    const double target_ms = norm_point.p99_ms;

    std::printf("normalization: software nominal = %.0f qps, target p99 "
                "= %.2f ms\n\n", kSoftwareNominalQps, target_ms);

    std::printf("-- Software --\n");
    std::printf("  %12s %12s %14s %14s\n", "offered qps", "p99 (ms)",
                "norm tput", "norm p99");
    for (const auto &p : sw_curve) {
        std::printf("  %12.0f %12.2f %14.2f %14.2f\n", p.qps, p.p99_ms,
                    p.completed_qps / kSoftwareNominalQps,
                    p.p99_ms / target_ms);
    }
    std::printf("\n-- Local FPGA (FFU+DPF offloaded) --\n");
    std::printf("  %12s %12s %14s %14s %10s\n", "offered qps", "p99 (ms)",
                "norm tput", "norm p99", "fpga util");
    for (const auto &p : fpga_curve) {
        std::printf("  %12.0f %12.2f %14.2f %14.2f %9.0f%%\n", p.qps,
                    p.p99_ms, p.completed_qps / kSoftwareNominalQps,
                    p.p99_ms / target_ms, 100.0 * p.fpga_util);
    }

    const double sw_at_target = throughputAtTarget(sw_curve, target_ms);
    const double fpga_at_target = throughputAtTarget(fpga_curve, target_ms);
    std::printf("\nthroughput at target 99%% latency:\n");
    std::printf("  software:   %.2f (normalized)\n",
                sw_at_target / kSoftwareNominalQps);
    std::printf("  local FPGA: %.2f (normalized)\n",
                fpga_at_target / kSoftwareNominalQps);
    std::printf("  gain: %.2fx   (paper: 2.25x; fewer than half the "
                "servers for the same load)\n",
                fpga_at_target / std::max(sw_at_target, 1.0));
    return 0;
}
