/**
 * @file
 * Scenario scaffolding shared by the bench binaries: the no-op LTL sink
 * role and idle-rate RTT probe, and the pod, frontend and phase-latency
 * report both fault ablations (A4 ablation_fault_recovery, A6
 * ablation_recovery_protocol) build on. Members are declared in the
 * order the ablations always built them: lazy materialization, probe
 * registration and event sequence numbers depend on it.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cloud.hpp"
#include "fpga/null_role.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "roles/ranking/ranking_role.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::bench {

/** Mean RTT of @p pings 64 B pings 20 us apart, run for twice that span. */
inline double
meanLtlRttUs(core::ConfigurableCloud &cloud, sim::EventQueue &eq, int src,
             int dst, const fpga::NullRole &role, int pings)
{
    auto ch = cloud.openLtl(src, dst, role.port);
    auto *engine = cloud.shell(src).ltlEngine();
    double sum = 0;
    std::size_t n = 0;
    engine->setRttObserver([&sum, &n](double us) {
        sum += us;
        ++n;
    });
    for (int i = 0; i < pings; ++i)
        eq.scheduleAfter(i * 20 * sim::kMicrosecond,
                         [engine, conn = ch.sendConn()] {
                             engine->sendMessage(conn, 64);
                         });
    eq.runFor(pings * 40 * sim::kMicrosecond);
    engine->setRttObserver(nullptr);
    return sum / static_cast<double>(n);
}

/** One completed query: when it finished and how long it took. */
struct Sample {
    sim::TimePs doneAt;
    double ms;
};

struct PhaseStats {
    std::size_t n = 0;
    double mean = 0, p50 = 0, p99 = 0, max = 0;
};

/** Latency statistics of the samples completing in [@p from, @p to). */
inline PhaseStats
phaseStats(const std::vector<Sample> &samples, sim::TimePs from,
           sim::TimePs to)
{
    std::vector<double> v;
    double sum = 0;
    for (const auto &s : samples)
        if (s.doneAt >= from && s.doneAt < to) {
            v.push_back(s.ms);
            sum += s.ms;
        }
    PhaseStats ps;
    ps.n = v.size();
    if (v.empty())
        return ps;
    std::sort(v.begin(), v.end());
    const auto pct = [&](double p) {
        const auto idx = static_cast<std::size_t>(
            std::max(0.0, p / 100.0 * static_cast<double>(v.size()) - 1.0));
        return v[std::min(idx, v.size() - 1)];
    };
    ps.mean = sum / static_cast<double>(v.size());
    ps.p50 = pct(50);
    ps.p99 = pct(99);
    ps.max = v.back();
    return ps;
}

/**
 * Print the @p phase p99 against the pre-fault baseline and return the
 * change in percent (0 without a baseline).
 */
inline double
printP99Delta(const char *phase, const PhaseStats &pre,
              const PhaseStats &post)
{
    const double delta =
        pre.p99 > 0 ? (post.p99 - pre.p99) / pre.p99 * 100.0 : 0.0;
    std::printf("\n%s p99 vs pre-fault baseline: %+.1f%% "
                "(%.2f ms -> %.2f ms)\n",
                phase, delta, pre.p99, post.p99);
    return delta;
}

/**
 * A small pod — 8 FPGA-equipped servers in two racks, shells built from
 * @p shell — on a one-partition kernel. The frontend host is leased out
 * of the pool (so the accelerator service can never land on it) and a
 * ranking accelerator service is ready to deploy through HaaS. The
 * timeline records figures read live from the observability registry.
 */
class RecoveryPod
{
  public:
    RecoveryPod(const fpga::ShellConfig &shell,
                std::uint32_t flow_sample_every = 0)
        : cloud(eq, {.topology = topology(),
                     .shellTemplate = shell,
                     .obs = &hub,
                     .flowSampleEvery = flow_sample_every}),
          rm(cloud.resourceManager()), client([this] {
              auto lease = rm.acquire("ranking-frontend", 1);
              if (!lease)
                  sim::fatal("ablation: empty pool");
              return lease->hosts.front();
          }()),
          sm(eq, rm, "rank", [this](int) {
              roles::RankingRoleParams rp;
              rp.occupancyPerDoc = 300 * sim::kNanosecond;
              rp.fixedLatency = 40 * sim::kMicrosecond;
              rolePool.push_back(
                  std::make_unique<roles::RankingRole>(eq, rp));
              return rolePool.back().get();
          })
    {
        sm.attachObservability(&hub);
    }
    RecoveryPod(const RecoveryPod &) = delete;
    RecoveryPod &operator=(const RecoveryPod &) = delete;

    /** A frontend data-plane attachment to a service instance. */
    struct Attachment {
        core::LtlChannel req, rep;
        std::unique_ptr<roles::RemoteRankingClient> client;
        int fwd = -1;  ///< forwarder-pool slot
    };

    /**
     * (Re-)attach @p a to @p instance, replies via @p fwd. The old client
     * goes first (its destructor clears the host-rx handler); the RAII
     * channels close the dead connections as new ones replace them.
     */
    void connect(Attachment &a, int instance, roles::ForwarderRole &fwd)
    {
        a.client.reset();
        a.req = cloud.openLtl(client, instance, fpga::kErPortRole0);
        a.rep = cloud.openLtl(instance, client, fwd.port());
        a.client = std::make_unique<roles::RemoteRankingClient>(
            eq, cloud.shell(client), fwd, a.req.sendConn(),
            a.rep.sendConn());
    }

    double probe(const std::string &path)
    {
        return hub.registry.probeValue(path);
    }

    /** Append a printf-formatted entry to the timeline at now(). */
    [[gnu::format(printf, 2, 3)]] void note(const char *fmt, ...)
    {
        char buf[256];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof buf, fmt, ap);
        va_end(ap);
        timeline.push_back({eq.now(), buf});
    }

    void printTimeline() const
    {
        std::printf("timeline (all figures read live from the obs "
                    "registry):\n");
        for (const auto &[at, text] : timeline)
            std::printf("  [%10.1f us] %s\n", sim::toMicros(at),
                        text.c_str());
    }

    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    obs::Observability hub;
    core::ConfigurableCloud cloud;
    haas::ResourceManager &rm;
    const int client;  ///< the frontend host
    std::vector<std::unique_ptr<roles::RankingRole>> rolePool;
    haas::ServiceManager sm;

  private:
    std::vector<std::pair<sim::TimePs, std::string>> timeline;

    static net::TopologyConfig topology()
    {
        net::TopologyConfig topo;
        topo.hostsPerRack = 4;
        topo.racksPerPod = 2;
        topo.l1PerPod = 2;
        topo.pods = 1;
        topo.l2Count = 1;
        return topo;
    }
};

/**
 * A RankingServer on @p accel fed by a 2,000 qps Poisson stream (not
 * started); every completion lands in `samples`.
 */
struct RankingFrontend {
    RankingFrontend(RecoveryPod &pod, host::FeatureAccelerator *accel)
        : server(pod.eq, host::RankingServiceParams{}, accel, 31),
          gen(
              pod.eq, 2000.0,
              [this, eq = &pod.eq] {
                  ++submitted;
                  server.submitQuery([this, eq](sim::TimePs lat) {
                      samples.push_back({eq->now(), sim::toMillis(lat)});
                  });
              },
              37)
    {
        server.attachObservability(&pod.hub, "rank");
    }
    RankingFrontend(const RankingFrontend &) = delete;
    RankingFrontend &operator=(const RankingFrontend &) = delete;

    /**
     * Print the latency-by-phase table of the completions in [t[0], t[1]),
     * [t[1], t[2]) and [t[2], t[3]), rows named @p names; returns them.
     */
    std::array<PhaseStats, 3>
    phaseTable(const std::array<sim::TimePs, 4> &t,
               const std::array<const char *, 3> &names) const
    {
        std::printf("\nlatency by phase (query completion time, ms):\n");
        std::printf("  %-22s %8s %8s %8s %8s %8s\n", "phase", "queries",
                    "mean", "p50", "p99", "max");
        std::array<PhaseStats, 3> rows;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const PhaseStats &s = rows[i] =
                phaseStats(samples, t[i], t[i + 1]);
            std::printf("  %-22s %8zu %8.2f %8.2f %8.2f %8.2f\n", names[i],
                        s.n, s.mean, s.p50, s.p99, s.max);
        }
        return rows;
    }

    host::RankingServer server;
    std::vector<Sample> samples;
    std::uint64_t submitted = 0;
    host::PoissonLoadGenerator gen;
};

}  // namespace ccsim::bench
