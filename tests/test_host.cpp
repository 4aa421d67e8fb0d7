/**
 * @file
 * Host model tests: Poisson load generation, the diurnal trace, the
 * ranking-server queueing model (capacity, latency growth, accelerated
 * throughput gain), the local FPGA accelerator pipeline, and the slot
 * table server against the original map-and-closure server.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "reference_ranking_server.hpp"
#include "serving/request_policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ccsim;
using host::PoissonLoadGenerator;
using host::RankingServer;
using host::RankingServiceParams;
using sim::EventQueue;

TEST(PoissonLoad, RateIsApproximatelyCorrect)
{
    EventQueue eq;
    std::uint64_t arrivals = 0;
    PoissonLoadGenerator gen(eq, 1000.0, [&] { ++arrivals; }, 1);
    gen.start();
    eq.runUntil(10 * sim::kSecond);
    gen.stop();
    EXPECT_NEAR(static_cast<double>(arrivals), 10000.0, 300.0);
}

TEST(PoissonLoad, StopHaltsArrivals)
{
    EventQueue eq;
    std::uint64_t arrivals = 0;
    PoissonLoadGenerator gen(eq, 1000.0, [&] { ++arrivals; }, 2);
    gen.start();
    eq.runUntil(1 * sim::kSecond);
    gen.stop();
    const auto frozen = arrivals;
    eq.runUntil(5 * sim::kSecond);
    EXPECT_EQ(arrivals, frozen);
}

TEST(PoissonLoad, RateChangeTakesEffect)
{
    EventQueue eq;
    std::uint64_t arrivals = 0;
    PoissonLoadGenerator gen(eq, 100.0, [&] { ++arrivals; }, 3);
    gen.start();
    eq.runUntil(1 * sim::kSecond);
    const auto at_low = arrivals;
    gen.setRate(10000.0);
    eq.runUntil(2 * sim::kSecond);
    EXPECT_GT(arrivals - at_low, 50 * at_low / 10);
}

TEST(DiurnalTrace, ShapeAndBounds)
{
    host::DiurnalTraceParams p;
    const auto trace = host::makeDiurnalTrace(p);
    ASSERT_EQ(trace.size(),
              static_cast<std::size_t>(p.days * p.windowsPerDay));
    double lo = 1e9, hi = 0;
    for (double x : trace) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        EXPECT_GT(x, 0.0);
    }
    // Clear diurnal swing: peak at least twice the trough.
    EXPECT_GT(hi / lo, 2.0);
    EXPECT_LT(hi, 1.6);  // bounded above nominal peak + drift + burst

    // Mid-day windows are heavier than midnight windows on average.
    double midnight = 0, midday = 0;
    for (int day = 0; day < p.days; ++day) {
        midnight += trace[day * p.windowsPerDay];
        midday += trace[day * p.windowsPerDay + p.windowsPerDay / 2];
    }
    EXPECT_GT(midday, 1.5 * midnight);
}

TEST(DiurnalTrace, Deterministic)
{
    host::DiurnalTraceParams p;
    EXPECT_EQ(host::makeDiurnalTrace(p), host::makeDiurnalTrace(p));
}

RankingServiceParams
testParams()
{
    RankingServiceParams p;  // defaults from DESIGN.md calibration
    return p;
}

double
runServer(double qps, host::FeatureAccelerator *accel, double duration_s,
          double *p99_out)
{
    EventQueue eq;
    RankingServer server(eq, testParams(), accel, 5);
    PoissonLoadGenerator gen(eq, qps, [&] { server.submitQuery(); }, 6);
    gen.start();
    eq.runUntil(sim::fromSeconds(duration_s));
    gen.stop();
    if (p99_out)
        *p99_out = server.latencyMs().percentile(99.0);
    return static_cast<double>(server.completed()) / duration_s;
}

TEST(RankingServer, SoftwareSaturatesNearCapacity)
{
    // Capacity = cores / mean service = 12 / 3.6 ms = ~3333 qps.
    double p99 = 0;
    const double tput = runServer(5000.0, nullptr, 20.0, &p99);
    EXPECT_NEAR(tput, 3333.0, 300.0);  // saturated
}

TEST(RankingServer, LatencyGrowsWithLoad)
{
    double p99_low = 0, p99_high = 0;
    runServer(1000.0, nullptr, 20.0, &p99_low);
    runServer(3100.0, nullptr, 20.0, &p99_high);
    EXPECT_GT(p99_high, 1.5 * p99_low);
}

TEST(RankingServer, FpgaLiftsThroughputMoreThanTwofold)
{
    EventQueue eq;
    host::LocalFpgaAccelerator accel(eq);
    RankingServer server(eq, testParams(), &accel, 5);
    PoissonLoadGenerator gen(eq, 12000.0, [&] { server.submitQuery(); }, 6);
    gen.start();
    eq.runUntil(sim::fromSeconds(20.0));
    gen.stop();
    const double tput = static_cast<double>(server.completed()) / 20.0;
    EXPECT_GT(tput, 2.0 * 3333.0);  // > 2x software capacity
}

TEST(RankingServer, FpgaUnderutilizedAtServerSaturation)
{
    // Paper: "the software portion of ranking saturates the host server
    // before the FPGA is saturated."
    EventQueue eq;
    host::LocalFpgaAccelerator accel(eq);
    RankingServer server(eq, testParams(), &accel, 5);
    PoissonLoadGenerator gen(eq, 20000.0, [&] { server.submitQuery(); }, 6);
    gen.start();
    eq.runUntil(sim::fromSeconds(10.0));
    gen.stop();
    EXPECT_LT(accel.utilization(eq.now()), 0.75);
}

TEST(RankingServer, LatencySamplesAreSojournTimes)
{
    EventQueue eq;
    RankingServer server(eq, testParams(), nullptr, 5);
    sim::TimePs done_latency = -1;
    server.submitQuery([&](sim::TimePs lat) { done_latency = lat; });
    eq.runAll();
    EXPECT_GT(done_latency, 0);
    EXPECT_EQ(server.completed(), 1u);
    EXPECT_NEAR(server.latencyMs().mean(), sim::toMillis(done_latency),
                1e-9);
    // An unloaded query takes roughly the mean service time (~3.6 ms).
    EXPECT_NEAR(sim::toMillis(done_latency), 3.6, 2.5);
}

TEST(LocalFpgaAccelerator, PipelinesRequests)
{
    EventQueue eq;
    host::LocalFpgaParams p;
    p.occupancyPerDoc = sim::fromNanos(350);
    p.fixedLatency = sim::fromMicros(90);
    host::LocalFpgaAccelerator accel(eq, p);
    sim::TimePs t1 = 0, t2 = 0;
    accel.compute(200, [&] { t1 = eq.now(); });
    accel.compute(200, [&] { t2 = eq.now(); });
    eq.runAll();
    // First completes at occupancy + latency; second one occupancy later.
    EXPECT_EQ(t1, 200 * p.occupancyPerDoc + p.fixedLatency);
    EXPECT_EQ(t2 - t1, 200 * p.occupancyPerDoc);
}

/**
 * A scripted feature accelerator. Each compute() draws its fate from the
 * accelerator's own stream: drop the request (the ack never comes),
 * complete synchronously inside compute(), or complete after a delay
 * that may outlive deadlines and rescues (a late ack). Same-seeded
 * scripts behave identically as long as their callers issue the same
 * calls in the same order.
 */
struct ScriptedAccel : host::FeatureAccelerator {
    ScriptedAccel(EventQueue &q, std::uint64_t seed, int drop_pct,
                  int sync_pct, sim::TimePs max_delay)
        : eq(q), rng(seed), dropPct(drop_pct), syncPct(sync_pct),
          maxDelay(max_delay)
    {
    }

    void compute(std::uint32_t, std::function<void()> done) override
    {
        ++calls;
        const auto fate = static_cast<int>(rng.uniformInt(100));
        if (fate < dropPct)
            return;
        if (fate < dropPct + syncPct) {
            done();
            return;
        }
        const auto delay = static_cast<sim::TimePs>(
            rng.uniformInt(static_cast<std::uint64_t>(maxDelay)));
        eq.scheduleAfter(delay, [d = std::move(done)] { d(); });
    }

    EventQueue &eq;
    sim::Rng rng;
    int dropPct, syncPct;
    sim::TimePs maxDelay;
    std::uint64_t calls = 0;
};

/** One server under test with its accelerators, gates and records. */
template <typename Server>
struct RankingWorld {
    RankingWorld(std::uint64_t seed, int cores, bool flows)
    {
        // Primary: mixed fates, some acks far later than any deadline.
        accels.push_back(std::make_unique<ScriptedAccel>(
            eq, seed + 1, 15, 10, 4 * sim::kMillisecond));
        // Fast replica, often synchronous.
        accels.push_back(std::make_unique<ScriptedAccel>(
            eq, seed + 2, 5, 30, 300 * sim::kMicrosecond));
        // Slow, lossy replica.
        accels.push_back(std::make_unique<ScriptedAccel>(
            eq, seed + 3, 40, 0, 2 * sim::kMillisecond));
        RankingServiceParams params;
        params.cores = cores;
        server = std::make_unique<Server>(eq, params, accels[0].get(),
                                          seed + 4);
        hub.flows.setEnabled(flows);
        server->attachObservability(&hub, "rank");
        server->setAdmission(
            [this](const std::string &) { return admit.uniform() >= 0.1; });
        server->setReplicaPicker([this]() -> host::FeatureAccelerator * {
            const std::uint64_t pick = picker.uniformInt(4);
            return pick == 0 ? nullptr : accels[pick % 2 + 1].get();
        });
    }

    /** Submit one query; one completion in ten submits a follow-up. */
    void submit()
    {
        server->submitQuery([this](sim::TimePs latency) {
            done.emplace_back(eq.now(), latency);
            if (follow.uniform() < 0.1)
                submit();
        });
    }

    EventQueue eq;
    std::vector<std::unique_ptr<ScriptedAccel>> accels;
    obs::Observability hub;
    std::unique_ptr<Server> server;
    sim::Rng admit{11}, picker{12}, follow{13};
    /** (completion time, latency) per completed query. */
    std::vector<std::pair<sim::TimePs, sim::TimePs>> done;
};

template <typename A, typename B>
void
expectSameServerState(const RankingWorld<A> &a, const RankingWorld<B> &b,
                      const std::string &where)
{
    ASSERT_EQ(a.eq.now(), b.eq.now()) << where;
    ASSERT_EQ(a.eq.size(), b.eq.size()) << where;
    ASSERT_EQ(a.done, b.done) << where;
    for (std::size_t i = 0; i < a.accels.size(); ++i)
        ASSERT_EQ(a.accels[i]->calls, b.accels[i]->calls)
            << where << " accelerator " << i;
    const A &x = *a.server;
    const B &y = *b.server;
    ASSERT_EQ(x.completed(), y.completed()) << where;
    ASSERT_EQ(x.inFlight(), y.inFlight()) << where;
    ASSERT_EQ(x.queueDepth(), y.queueDepth()) << where;
    ASSERT_EQ(x.softwareFeatureQueries(), y.softwareFeatureQueries())
        << where;
    ASSERT_EQ(x.shedQueries(), y.shedQueries()) << where;
    ASSERT_EQ(x.deadlinesExpired(), y.deadlinesExpired()) << where;
    ASSERT_EQ(x.retriesIssued(), y.retriesIssued()) << where;
    ASSERT_EQ(x.hedgesIssued(), y.hedgesIssued()) << where;
    ASSERT_EQ(x.hedgeWins(), y.hedgeWins()) << where;
    ASSERT_EQ(x.softwareFallbacks(), y.softwareFallbacks()) << where;
    ASSERT_EQ(x.currentHedgeDelay(), y.currentHedgeDelay()) << where;
    ASSERT_EQ(x.latencyMs().raw(), y.latencyMs().raw()) << where;
    for (const char *probe :
         {"completed", "in_flight", "queue_depth", "sw_feature_queries",
          "shed", "accel_blocked", "retry.deadline_expired",
          "retry.attempts", "retry.hedges", "retry.hedge_wins",
          "retry.sw_fallbacks", "retry.hedge_delay_us"}) {
        const std::string path = std::string("host.rank.") + probe;
        ASSERT_EQ(a.hub.registry.probeValue(path),
                  b.hub.registry.probeValue(path))
            << where << " " << path;
    }
    const auto fa = a.hub.flows.worstFirst();
    const auto fb = b.hub.flows.worstFirst();
    ASSERT_EQ(fa.size(), fb.size()) << where;
    for (std::size_t i = 0; i < fa.size(); ++i) {
        ASSERT_EQ(fa[i]->latency(), fb[i]->latency()) << where;
        ASSERT_EQ(fa[i]->spans.size(), fb[i]->spans.size()) << where;
    }
}

TEST(RankingServer, MatchesReferenceOnRandomOps)
{
    using host::ReferenceRankingServer;
    std::uint64_t hedgeWins = 0, retries = 0, fallbacks = 0, shed = 0;
    std::uint64_t bigRescues = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sim::Rng ops(seed * 7919);
        const int cores = 2 + static_cast<int>(ops.uniformInt(5));
        const bool flows = seed % 2 == 0;
        RankingWorld<RankingServer> slot(seed, cores, flows);
        RankingWorld<ReferenceRankingServer> ref(seed, cores, flows);
        auto both = [&](auto &&op) {
            op(slot);
            op(ref);
        };
        for (int step = 0; step < 700; ++step) {
            const std::uint64_t kind = ops.uniformInt(100);
            if (kind < 35) {
                const std::uint64_t n = 1 + ops.uniformInt(4);
                both([&](auto &w) {
                    for (std::uint64_t i = 0; i < n; ++i)
                        w.submit();
                });
            } else if (kind < 70) {
                const auto dt = static_cast<sim::TimePs>(
                    ops.uniformInt(3 * sim::kMillisecond));
                both([&](auto &w) { w.eq.runFor(dt); });
            } else if (kind < 76) {
                // Policy change: none, deadlines with retry, fixed or
                // adaptive hedging, or both.
                serving::RequestPolicy p;
                const std::uint64_t deadline = ops.uniformInt(3);
                if (deadline > 0) {
                    p.accelDeadline = static_cast<sim::TimePs>(deadline) *
                                      300 * sim::kMicrosecond;
                    p.maxAttempts = 1 + static_cast<int>(ops.uniformInt(3));
                    p.backoffBase = 40 * sim::kMicrosecond;
                    p.backoffJitter = ops.uniform(0.0, 0.5);
                }
                const std::uint64_t hedge = ops.uniformInt(3);
                p.hedge = hedge != 0;
                if (hedge == 1) {
                    p.hedgeDelay = 250 * sim::kMicrosecond;
                } else if (hedge == 2) {
                    p.hedgeQuantile = 90.0;
                    p.hedgeMinDelay = 100 * sim::kMicrosecond;
                }
                both([&](auto &w) { w.server->setRetryPolicy(p); });
            } else if (kind < 84) {
                // Lose the accelerator, or re-point at any of them.
                const std::uint64_t to = ops.uniformInt(5);
                both([&](auto &w) {
                    w.server->setAccelerator(
                        to >= 3 ? nullptr : w.accels[to].get());
                });
            } else if (kind < 90) {
                // Let blocked queries pile up, then rescue them.
                std::uint64_t rescued[2];
                rescued[0] = slot.server->failPendingToSoftware();
                rescued[1] = ref.server->failPendingToSoftware();
                ASSERT_EQ(rescued[0], rescued[1]) << "seed " << seed;
                if (rescued[0] >= 3)
                    ++bigRescues;
            } else {
                const auto dt = static_cast<sim::TimePs>(
                    ops.uniformInt(20 * sim::kMillisecond));
                both([&](auto &w) { w.eq.runFor(dt); });
            }
            expectSameServerState(slot, ref,
                                  "seed " + std::to_string(seed) +
                                      " step " + std::to_string(step));
            if (HasFatalFailure())
                return;
        }
        hedgeWins += ref.server->hedgeWins();
        retries += ref.server->retriesIssued();
        fallbacks += ref.server->softwareFallbacks();
        shed += ref.server->shedQueries();
    }
    // The sequences reach every path of the accelerator stage.
    EXPECT_GT(hedgeWins, 0u);
    EXPECT_GT(retries, 0u);
    EXPECT_GT(fallbacks, 0u);
    EXPECT_GT(shed, 0u);
    EXPECT_GT(bigRescues, 0u);
}

}  // namespace
