/**
 * @file
 * Reproduces Figure 11: latency vs throughput of ranking running in
 * software, with the locally attached FPGA, and with a *remote* FPGA
 * accessed over LTL (Section V-D).
 *
 * The remote curve exercises the full simulated stack per query: host ->
 * PCIe DMA -> Elastic Router -> forwarder role -> LTL engine -> bump ->
 * TOR -> remote bump -> remote LTL -> remote ER -> ranking role, and the
 * same path back. The paper's claim: over a range of throughput targets,
 * the latency overhead of remote access is minimal (the remote curve
 * nearly overlays the local one), because LTL RTTs are microseconds
 * against millisecond-scale queries.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "core/cloud.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "roles/ranking/ranking_role.hpp"
#include "sim/event_queue.hpp"

using namespace ccsim;

namespace {

constexpr double kSoftwareNominalQps = 3100.0;

enum class Mode { kSoftware, kLocalFpga, kRemoteFpga };

struct Point {
    double qps;
    double p999_ms;
    double completed_qps;
};

Point
runPoint(Mode mode, double qps, double seconds)
{
    sim::EventQueue eq;

    std::unique_ptr<core::ConfigurableCloud> cloud;
    std::unique_ptr<host::LocalFpgaAccelerator> local;
    std::unique_ptr<roles::RankingRole> role;
    std::unique_ptr<roles::ForwarderRole> forwarder;
    std::unique_ptr<roles::RemoteRankingClient> remote_client;
    core::LtlChannel req_ch, rep_ch;  // must stay open while serving
    host::FeatureAccelerator *accel = nullptr;

    if (mode == Mode::kLocalFpga) {
        local = std::make_unique<host::LocalFpgaAccelerator>(eq);
        accel = local.get();
    } else if (mode == Mode::kRemoteFpga) {
        core::CloudConfig cfg;
        cfg.topology.hostsPerRack = 4;
        cfg.topology.racksPerPod = 2;
        cfg.topology.l1PerPod = 2;
        cfg.topology.pods = 1;
        cfg.topology.l2Count = 1;
        cfg.shellTemplate.ltl.maxConnections = 16;
        cloud = std::make_unique<core::ConfigurableCloud>(eq, cfg);

        const int client = 0;
        const int remote = 4;  // cross-rack remote accelerator

        roles::RankingRoleParams rp;
        rp.occupancyPerDoc = 300 * sim::kNanosecond;  // match local engine
        rp.fixedLatency = 40 * sim::kMicrosecond;
        role = std::make_unique<roles::RankingRole>(eq, rp);
        if (cloud->shell(remote).addRole(role.get()) < 0)
            sim::fatal("fig11: ranking role does not fit");
        forwarder = std::make_unique<roles::ForwarderRole>();
        if (cloud->shell(client).addRole(forwarder.get()) < 0)
            sim::fatal("fig11: forwarder does not fit");
        req_ch = cloud->openLtl(client, remote, fpga::kErPortRole0);
        rep_ch = cloud->openLtl(remote, client, forwarder->port());
        remote_client = std::make_unique<roles::RemoteRankingClient>(
            eq, cloud->shell(client), *forwarder, req_ch.sendConn(),
            rep_ch.sendConn());
        accel = remote_client.get();
    }

    host::RankingServer server(eq, host::RankingServiceParams{}, accel, 31);
    host::PoissonLoadGenerator gen(eq, qps, [&] { server.submitQuery(); },
                                   37);
    gen.start();
    eq.runFor(sim::fromSeconds(1.5));
    server.clearStats();
    const auto before = server.completed();
    eq.runFor(sim::fromSeconds(seconds));
    gen.stop();

    Point p;
    p.qps = qps;
    p.p999_ms = server.latencyMs().percentile(99.9);
    p.completed_qps =
        static_cast<double>(server.completed() - before) / seconds;
    return p;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    std::printf("=== Figure 11: software vs local-FPGA vs remote-FPGA "
                "ranking ===\n\n");

    const std::vector<double> sw_rates = {500, 1200, 2000, 2600, 3000,
                                          3100};
    const std::vector<double> fpga_rates = {500,  1500, 2500, 3500,
                                            4500, 5500, 6200, 6800};

    // Normalization: software 99.9th-percentile latency target.
    const Point norm = runPoint(Mode::kSoftware, kSoftwareNominalQps, 20.0);
    const double target_ms = norm.p999_ms;
    std::printf("normalization: software p99.9 target = %.2f ms at %.0f "
                "qps\n\n", target_ms, kSoftwareNominalQps);

    auto print_curve = [&](const char *label, Mode mode,
                           const std::vector<double> &rates,
                           double seconds) {
        std::printf("-- %s --\n", label);
        std::printf("  %12s %12s %14s %14s\n", "offered qps", "p99.9(ms)",
                    "norm tput", "norm p99.9");
        double at_target = 0;
        for (double r : rates) {
            const Point p = runPoint(mode, r, seconds);
            std::printf("  %12.0f %12.2f %14.2f %14.2f\n", p.qps,
                        p.p999_ms, p.completed_qps / kSoftwareNominalQps,
                        p.p999_ms / target_ms);
            if (p.p999_ms <= target_ms)
                at_target = std::max(at_target, p.completed_qps);
        }
        std::printf("  throughput at target: %.2f (normalized)\n\n",
                    at_target / kSoftwareNominalQps);
        return at_target;
    };

    print_curve("software", Mode::kSoftware, sw_rates, 12.0);
    const double local_at = print_curve("local FPGA", Mode::kLocalFpga,
                                        fpga_rates, 12.0);
    const std::vector<double> remote_rates = {500,  2500, 4500,
                                              5500, 6200, 6800};
    const double remote_at = print_curve("remote FPGA (over LTL)",
                                         Mode::kRemoteFpga, remote_rates,
                                         4.0);

    std::printf("remote/local throughput at target: %.3f (paper: remote "
                "overhead is minimal, curves nearly overlay)\n",
                remote_at / local_at);
    return 0;
}
