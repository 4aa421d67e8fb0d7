/**
 * @file
 * Determinism properties: ccsim is a deterministic discrete-event
 * simulator — identical configurations must produce bit-identical
 * traces, independent of wall-clock, across every layer of the stack.
 * This is what makes the figure benches reproducible.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cloud.hpp"
#include "fpga/null_role.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

namespace {

using namespace ccsim;
using sim::EventQueue;

TEST(Determinism, EventQueueInterleavingIsStable)
{
    // Two queues fed the same randomized schedule execute identically.
    auto run = [] {
        EventQueue eq;
        sim::Rng rng(777);
        std::vector<int> trace;
        std::function<void(int)> spawn = [&](int depth) {
            if (depth > 3)
                return;
            trace.push_back(depth);
            const int n = 1 + static_cast<int>(rng.uniformInt(
                                  std::uint64_t{3}));
            for (int i = 0; i < n; ++i) {
                eq.scheduleAfter(
                    1 + static_cast<sim::TimePs>(rng.uniformInt(
                            std::uint64_t{1000})),
                    [&spawn, depth] { spawn(depth + 1); });
            }
        };
        eq.schedule(0, [&spawn] { spawn(0); });
        eq.runAll();
        trace.push_back(static_cast<int>(eq.eventsExecuted()));
        return trace;
    };
    EXPECT_EQ(run(), run());
}

TEST(Determinism, LtlRttTraceIsBitIdentical)
{
    auto run = [] {
        EventQueue eq;
        core::CloudConfig cfg;
        cfg.topology.hostsPerRack = 4;
        cfg.topology.racksPerPod = 2;
        cfg.topology.l1PerPod = 2;
        cfg.topology.pods = 1;
        cfg.topology.l2Count = 1;
        cfg.createNics = false;
        cfg.shellTemplate.ltl.maxConnections = 8;
        core::ConfigurableCloud cloud(eq, cfg);

        fpga::NullRole sink;
        cloud.shell(5).addRole(&sink);
        auto ch = cloud.openLtl(0, 5, sink.port);
        auto *engine = cloud.shell(0).ltlEngine();
        std::vector<double> rtt;  // every sample, full precision
        engine->setRttObserver([&rtt](double us) { rtt.push_back(us); });
        for (int i = 0; i < 40; ++i) {
            eq.scheduleAfter(i * 10 * sim::kMicrosecond,
                             [engine, conn = ch.sendConn()] {
                                 engine->sendMessage(conn, 64);
                             });
        }
        eq.runFor(sim::fromMillis(2));
        return rtt;
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "sample " << i;
}

/**
 * Run the LTL RTT workload from LtlRttTraceIsBitIdentical, optionally
 * instrumented. Returns the raw RTT samples plus — when observed — the
 * registry snapshot JSON and the exported Chrome trace JSON.
 */
struct ObservedRun {
    std::vector<double> rtt;
    std::string snapshot;
    std::string trace;
};

ObservedRun
runLtlWorkload(bool observed, bool traced)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    obs::Observability hub;
    hub.trace.setEnabled(traced);

    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.createNics = false;
    cfg.shellTemplate.ltl.maxConnections = 8;
    obs::TimeSeriesHub sampler(
        obs::TimeSeriesConfig{.window = 50 * sim::kMicrosecond});
    if (observed) {
        cfg.obs = &hub;
        cfg.timeSeries = &sampler;
    }
    core::ConfigurableCloud cloud(eq, cfg);

    fpga::NullRole sink;
    cloud.shell(5).addRole(&sink);
    auto ch = cloud.openLtl(0, 5, sink.port);
    auto *engine = cloud.shell(0).ltlEngine();
    ObservedRun out;
    engine->setRttObserver([&out](double us) { out.rtt.push_back(us); });
    if (observed)
        sampler.startSampling(sq);
    for (int i = 0; i < 40; ++i) {
        eq.scheduleAfter(i * 10 * sim::kMicrosecond,
                         [engine, conn = ch.sendConn()] {
                             engine->sendMessage(conn, 64);
                         });
    }
    sq.runFor(sim::fromMillis(2));

    if (observed) {
        out.snapshot = hub.registry.snapshotJson();
        out.trace = hub.trace.json();
    }
    return out;
}

TEST(Determinism, ObservabilityDoesNotPerturbTheSimulation)
{
    // Attaching the full metrics/trace stack must not change a single
    // RTT sample: observability is read-only by construction.
    const auto bare = runLtlWorkload(false, false);
    const auto observed = runLtlWorkload(true, true);
    EXPECT_EQ(bare.rtt, observed.rtt);
}

TEST(Determinism, MetricSnapshotsAreByteIdenticalAcrossRuns)
{
    // Two same-seed instrumented runs: byte-identical registry
    // snapshots and byte-identical exported traces.
    const auto a = runLtlWorkload(true, true);
    const auto b = runLtlWorkload(true, true);
    EXPECT_FALSE(a.snapshot.empty());
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.snapshot, b.snapshot);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.rtt, b.rtt);

    // Tracing off must not change the metrics themselves either.
    const auto untraced = runLtlWorkload(true, false);
    EXPECT_EQ(untraced.snapshot, a.snapshot);
}

TEST(Determinism, RankingServerLatenciesIdenticalAcrossRuns)
{
    auto run = [] {
        EventQueue eq;
        host::RankingServer server(eq, host::RankingServiceParams{},
                                   nullptr, 33);
        host::PoissonLoadGenerator gen(eq, 2500.0,
                                       [&] { server.submitQuery(); }, 34);
        gen.start();
        eq.runUntil(sim::fromSeconds(2.0));
        gen.stop();
        return server.latencyMs().raw();
    };
    EXPECT_EQ(run(), run());
}

TEST(Determinism, SeedChangesChangeTheTrace)
{
    // The flip side: different seeds genuinely decorrelate the runs.
    auto run = [](std::uint64_t seed) {
        EventQueue eq;
        host::RankingServer server(eq, host::RankingServiceParams{},
                                   nullptr, seed);
        host::PoissonLoadGenerator gen(eq, 2500.0,
                                       [&] { server.submitQuery(); },
                                       seed + 1);
        gen.start();
        eq.runUntil(sim::fromSeconds(1.0));
        gen.stop();
        return server.latencyMs().raw();
    };
    EXPECT_NE(run(1), run(2));
}

}  // namespace
