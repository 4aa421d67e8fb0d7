/**
 * @file
 * The live telemetry pipeline: windowed time-series rollup
 * (TimeSeriesHub), mergeable histogram sketches, the deterministic
 * JSONL exporter, and the SLO burn-rate engine — including the
 * end-to-end story where an injected fault fires a burn-rate alert that
 * files HealthMonitor evidence well before the heartbeat detector's
 * worst-case bound.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cloud.hpp"
#include "haas/haas.hpp"
#include "haas/health_monitor.hpp"
#include "obs/json_util.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"
#include "sim/stats.hpp"

using namespace ccsim;

// One way to configure: fields or designated initializers, no setters.
static_assert(std::is_aggregate_v<obs::TimeSeriesConfig>);

namespace {

/** Count lines in @p s starting with the given JSONL record prefix. */
std::size_t
countLines(const std::string &s, const std::string &prefix)
{
    std::size_t n = 0, pos = 0;
    while (pos < s.size()) {
        std::size_t eol = s.find('\n', pos);
        if (eol == std::string::npos)
            eol = s.size();
        if (s.compare(pos, prefix.size(), prefix) == 0)
            ++n;
        pos = eol + 1;
    }
    return n;
}

/** Append @p name's point to @p pts at every window @p hub closes. */
void
collectWindows(obs::TimeSeriesHub &hub, const std::string &name,
               std::vector<obs::TsPoint> &pts)
{
    hub.addWindowObserver([&hub, name, &pts](sim::TimePs now,
                                             std::uint64_t) {
        if (const obs::TsPoint *p = hub.latest(name); p && p->t == now)
            pts.push_back(*p);
    });
}

}  // namespace

// ---------------------------------------------------------------------
// LogHistogram::fromBins (windowed histograms)
// ---------------------------------------------------------------------

namespace {

/** The histogram of everything @p h recorded. */
sim::LogHistogram
rebuilt(const sim::LogHistogram &h)
{
    return sim::LogHistogram::fromBins(h.binning(), h.binCounts(), h.sum());
}

}  // namespace

TEST(LogHistogramFromBins, BinDeltaIsTheExactWindow)
{
    sim::LogHistogram h(0.5, 96);
    h.add(1.0);
    h.add(2.0);
    h.add(4.0);
    const std::vector<std::uint64_t> snapBins = h.binCounts();
    const double snapSum = h.sum();

    h.add(8.0);
    h.add(16.0);
    std::vector<std::uint64_t> window = h.binCounts();
    for (std::size_t i = 0; i < snapBins.size(); ++i)
        window[i] -= snapBins[i];
    const sim::LogHistogram w = sim::LogHistogram::fromBins(
        h.binning(), std::move(window), h.sum() - snapSum);
    EXPECT_EQ(w.count(), 2u);
    EXPECT_DOUBLE_EQ(w.sum(), 24.0);
    EXPECT_DOUBLE_EQ(w.mean(), 12.0);
    // Both window samples sit well above the pre-snapshot ones, and the
    // range is the outer edges of the occupied bins.
    EXPECT_GT(w.percentile(50.0), 4.0);
    EXPECT_GT(w.percentile(99.0), w.percentile(50.0));
    EXPECT_GT(w.min(), 4.0);
    EXPECT_LE(w.min(), 8.0);
    EXPECT_GT(w.max(), 16.0);

    // The full bin vector covers everything.
    const sim::LogHistogram all = rebuilt(h);
    EXPECT_EQ(all.count(), 5u);
    EXPECT_DOUBLE_EQ(all.sum(), 31.0);
}

TEST(LogHistogramFromBins, MergeEqualsHistogramOfCombinedSamples)
{
    sim::LogHistogram h1(0.5, 96), h2(0.5, 96), both(0.5, 96);
    for (int i = 1; i <= 40; ++i) {
        const double v = 1.0 + 0.37 * i;
        h1.add(v);
        both.add(v);
    }
    for (int i = 1; i <= 60; ++i) {
        const double v = 50.0 + 1.21 * i;
        h2.add(v);
        both.add(v);
    }
    sim::LogHistogram merged = rebuilt(h1);
    merged.merge(rebuilt(h2));
    const sim::LogHistogram ref = rebuilt(both);

    EXPECT_EQ(merged.count(), ref.count());
    EXPECT_DOUBLE_EQ(merged.sum(), ref.sum());
    // Bin counts are integers, so merged percentiles are *identical* to
    // the single rebuilt histogram, not merely close.
    for (double p : {10.0, 50.0, 90.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(merged.percentile(p), ref.percentile(p)) << p;
}

TEST(LogHistogramFromBins, MergeRejectsMismatchedBinning)
{
    sim::LogHistogram a(0.5, 96), b(1.0, 48);
    a.add(3.0);
    b.add(3.0);
    sim::LogHistogram ra = rebuilt(a);
    const sim::LogHistogram rb = rebuilt(b);
    EXPECT_DEATH(ra.merge(rb), "binning");
}

// ---------------------------------------------------------------------
// TimeSeriesHub rollup
// ---------------------------------------------------------------------

TEST(TimeSeriesHub, RollsCountersGaugesProbesAndHistograms)
{
    obs::MetricsRegistry reg;
    sim::Counter &reqs = reg.counter("svc.reqs");
    obs::Gauge &depth = reg.gauge("svc.depth");
    double live = 2.0;
    reg.registerProbe("svc.live", [&live] { return live; });
    sim::LogHistogram &lat = reg.histogram("svc.lat_ms");

    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = sim::kMillisecond});
    hub.watchRegistry(&reg);

    reqs.inc(5);
    depth.set(0, 3.5);
    lat.add(1.0);
    lat.add(2.0);
    lat.add(1000.0);
    hub.rollAt(sim::kMillisecond);

    EXPECT_EQ(hub.windowsClosed(), 1u);
    EXPECT_EQ(hub.seriesCount(), 4u);
    EXPECT_EQ(hub.kindOf("svc.reqs"), obs::SeriesKind::kCounter);
    EXPECT_EQ(hub.kindOf("svc.depth"), obs::SeriesKind::kGauge);
    EXPECT_EQ(hub.kindOf("svc.live"), obs::SeriesKind::kProbe);
    EXPECT_EQ(hub.kindOf("svc.lat_ms"), obs::SeriesKind::kHistogram);

    const obs::TsPoint *c = hub.latest("svc.reqs");
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->value, 5.0);
    EXPECT_DOUBLE_EQ(c->delta, 5.0);
    EXPECT_DOUBLE_EQ(c->rate, 5000.0);  // 5 per 1 ms

    const obs::TsPoint *g = hub.latest("svc.depth");
    ASSERT_NE(g, nullptr);
    EXPECT_DOUBLE_EQ(g->value, 3.5);

    const obs::TsPoint *h = hub.latest("svc.lat_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 3u);
    EXPECT_GT(h->p99, h->p50);
    EXPECT_GT(h->p99, 100.0);  // pulled up by the 1000 ms outlier

    // Second window: deltas cover only the new activity.
    reqs.inc(2);
    live = 6.0;
    lat.add(4.0);
    hub.rollAt(2 * sim::kMillisecond);

    c = hub.latest("svc.reqs");
    EXPECT_DOUBLE_EQ(c->value, 7.0);
    EXPECT_DOUBLE_EQ(c->delta, 2.0);
    const obs::TsPoint *pr = hub.latest("svc.live");
    EXPECT_DOUBLE_EQ(pr->value, 6.0);
    EXPECT_DOUBLE_EQ(pr->delta, 4.0);
    h = hub.latest("svc.lat_ms");
    EXPECT_EQ(h->count, 1u);
    EXPECT_DOUBLE_EQ(h->mean, 4.0);
}

TEST(TimeSeriesHub, SurvivesComponentResetMidRun)
{
    // fig08's runDatacenter clears the server's stats between load
    // steps; the hub must apply the counter-reset rule (window delta
    // restarts from zero), not panic on a shrinking histogram.
    obs::MetricsRegistry reg;
    sim::Counter &reqs = reg.counter("svc.reqs");
    sim::LogHistogram &lat = reg.histogram("svc.lat_ms");

    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = sim::kMillisecond});
    hub.defineAggregate("fleet.lat", "svc.lat*");
    hub.watchRegistry(&reg);

    reqs.inc(10);
    lat.add(5.0);
    lat.add(7.0);
    hub.rollAt(sim::kMillisecond);

    lat.clear();
    reqs.reset();
    lat.add(3.0);
    reqs.inc(4);
    hub.rollAt(2 * sim::kMillisecond);

    const obs::TsPoint *h = hub.latest("svc.lat_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1u);  // everything since the reset, no negatives
    EXPECT_DOUBLE_EQ(h->mean, 3.0);

    const obs::TsPoint *a = hub.latest("fleet.lat");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->count, 1u);
    EXPECT_DOUBLE_EQ(a->mean, 3.0);

    const obs::TsPoint *c = hub.latest("svc.reqs");
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->value, 4.0);
    EXPECT_DOUBLE_EQ(c->delta, 4.0);  // not 4 - 10 = -6
}

TEST(TimeSeriesHub, IncludeGlobsFilterWatchedPaths)
{
    obs::MetricsRegistry reg;
    reg.counter("keep.a").inc();
    reg.counter("keep.b.c").inc();
    reg.counter("drop.a").inc();

    obs::TimeSeriesHub hub(obs::TimeSeriesConfig{.window = sim::kMillisecond,
                                                 .include = {"keep.*"}});
    hub.watchRegistry(&reg);
    hub.rollAt(sim::kMillisecond);

    EXPECT_EQ(hub.seriesCount(), 2u);
    EXPECT_NE(hub.latest("keep.a"), nullptr);
    EXPECT_NE(hub.latest("keep.b.c"), nullptr);  // '*' spans dots
    EXPECT_EQ(hub.latest("drop.a"), nullptr);
}

TEST(TimeSeriesHub, AggregatesMergeHistogramsAndSumScalars)
{
    obs::MetricsRegistry r0, r1;
    sim::LogHistogram &h0 = r0.histogram("n.node0.lat");
    sim::LogHistogram &h1 = r1.histogram("n.node1.lat");
    sim::Counter &c0 = r0.counter("n.node0.ops");
    sim::Counter &c1 = r1.counter("n.node1.ops");

    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = sim::kMillisecond});
    hub.watchRegistry(&r0);
    hub.watchRegistry(&r1);
    hub.defineAggregate("n.lat", "n.*.lat");
    hub.defineAggregate("n.ops", "n.*.ops");

    sim::LogHistogram ref(obs::kDefaultHistMinValue,
                          obs::kDefaultHistBinsPerOctave);
    for (int i = 1; i <= 50; ++i) {
        const double a = 1.0 + 0.13 * i, b = 20.0 + 0.77 * i;
        h0.add(a);
        ref.add(a);
        h1.add(b);
        ref.add(b);
    }
    c0.inc(30);
    c1.inc(12);
    hub.rollAt(sim::kMillisecond);

    EXPECT_EQ(hub.kindOf("n.lat"), obs::SeriesKind::kHistogram);
    const obs::TsPoint *agg = hub.latest("n.lat");
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->count, 100u);
    // The merged per-shard window reproduces the union percentiles
    // exactly (integer bin addition).
    const sim::LogHistogram want = rebuilt(ref);
    EXPECT_DOUBLE_EQ(agg->p50, want.percentile(50.0));
    EXPECT_DOUBLE_EQ(agg->p99, want.percentile(99.0));
    EXPECT_NEAR(agg->mean, ref.mean(), 1e-9);

    const obs::TsPoint *ops = hub.latest("n.ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_DOUBLE_EQ(ops->value, 42.0);
    EXPECT_DOUBLE_EQ(ops->delta, 42.0);
}

TEST(TimeSeriesHub, ExportsDeterministicJsonl)
{
    const auto run = [](std::string &outStr) {
        obs::MetricsRegistry reg;
        sim::Counter &c = reg.counter("e.ops");
        sim::LogHistogram &h = reg.histogram("e.lat");
        obs::TimeSeriesHub hub(
            obs::TimeSeriesConfig{.window = sim::kMillisecond});
        hub.watchRegistry(&reg);
        std::ostringstream os;
        hub.exportTo(&os);
        for (int w = 1; w <= 3; ++w) {
            c.inc(static_cast<std::uint64_t>(w));
            h.add(1.5 * w);
            hub.rollAt(w * sim::kMillisecond);
        }
        EXPECT_EQ(hub.exportedLines(), countLines(os.str(), "{"));
        outStr = os.str();
    };

    std::string a, b;
    run(a);
    run(b);
    EXPECT_EQ(a, b);  // byte-identical across identical runs
    EXPECT_EQ(a.substr(0, a.find('\n')),
              "{\"type\":\"meta\",\"window_us\":1000}");
    EXPECT_EQ(countLines(a, "{\"type\":\"series\""), 2u);
    EXPECT_EQ(countLines(a, "{\"type\":\"window\""), 3u);
    // Series appear sorted inside the window record.
    const std::size_t win = a.find("{\"type\":\"window\"");
    ASSERT_NE(win, std::string::npos);
    const std::size_t lat = a.find("\"e.lat\"", win);
    const std::size_t ops = a.find("\"e.ops\"", win);
    ASSERT_NE(lat, std::string::npos);
    ASSERT_NE(ops, std::string::npos);
    EXPECT_LT(lat, ops);
}

TEST(TimeSeriesHub, SingleQueueSamplingRollsOnCadence)
{
    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    obs::MetricsRegistry reg;
    sim::Counter &c = reg.counter("q.ticks");
    eq.scheduleAfter(50 * sim::kMicrosecond, [&c] { c.inc(); });
    eq.scheduleAfter(150 * sim::kMicrosecond, [&c] { c.inc(); });

    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = 100 * sim::kMicrosecond});
    hub.watchRegistry(&reg);
    std::vector<obs::TsPoint> pts;
    collectWindows(hub, "q.ticks", pts);
    hub.startSampling(sq);
    // An event exactly at a window end lands in that window, even one
    // scheduled after the rolls started.
    eq.schedule(200 * sim::kMicrosecond, [&c] { c.inc(); });
    sq.runFor(350 * sim::kMicrosecond);
    sq.runAll();  // terminates: window deadlines do not bound runAll()

    EXPECT_EQ(hub.windowsClosed(), 3u);
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_EQ(pts[1].t, 200 * sim::kMicrosecond);
    EXPECT_DOUBLE_EQ(pts[0].delta, 1.0);
    EXPECT_DOUBLE_EQ(pts[1].delta, 2.0);
    EXPECT_DOUBLE_EQ(pts[2].delta, 0.0);
}

TEST(Sampler, SampleSeesEveryEventAtItsInstant)
{
    // A window rolls at the barrier after every event at its end
    // instant, including events scheduled after sampling started.
    sim::ShardedEventQueue sq;
    obs::MetricsRegistry reg;
    double signal = 0.0;
    std::vector<double> seen;
    reg.registerProbe("test.signal", [&] {
        seen.push_back(signal);
        return signal;
    });
    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = 10 * sim::kMicrosecond});
    hub.watchRegistry(&reg);
    hub.startSampling(sq);
    sq.partition(0).schedule(10 * sim::kMicrosecond,
                             [&signal] { signal = 1.0; });
    sq.runUntil(20 * sim::kMicrosecond);
    EXPECT_EQ(seen, (std::vector<double>{1.0, 1.0}));
}

TEST(TimeSeriesHub, TraceDrawsEachTrackFirstThenOnChange)
{
    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    obs::MetricsRegistry reg;
    double changing = 0.0;
    reg.registerProbe("a.changing", [&] { return changing; });
    reg.registerProbe("b.constant", [] { return 5.0; });
    sim::Counter &ops = reg.counter("c.ops");
    sim::LogHistogram &lat = reg.histogram("d.lat_us");
    obs::TraceWriter tw;
    tw.setEnabled(true);

    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = 10 * sim::kMicrosecond});
    hub.watchRegistry(&reg);
    hub.attachTrace(&tw);
    hub.startSampling(sq);
    eq.scheduleAfter(5 * sim::kMicrosecond, [&] {
        ops.inc();
        lat.add(2.0);
    });
    eq.scheduleAfter(15 * sim::kMicrosecond, [&] { changing = 1.0; });
    sq.runUntil(45 * sim::kMicrosecond);  // windows end at 10,20,30,40

    // The first window draws every track. Afterwards a track is drawn
    // only when what it draws changes: the probe's value once, the
    // counter's rate and the histogram's p50/p99 once each (back to 0
    // in the empty second window), the constant never.
    const obs::JsonValue root = obs::parseJson(tw.json()).value();
    std::vector<std::string> drawn;
    for (const obs::JsonValue &e : root.at("traceEvents").arr) {
        if (e.at("ph").str != "C")
            continue;
        // The track's category is its name's first dotted segment.
        EXPECT_EQ(e.at("cat").str, e.at("name").str.substr(0, 1));
        drawn.push_back(e.at("name").str + "@" +
                        std::to_string(static_cast<int>(
                            e.at("ts").number)));
        const obs::JsonValue &args = e.at("args");
        if (e.at("name").str == "c.ops") {
            EXPECT_DOUBLE_EQ(args.at("value").number,
                             e.at("ts").number == 10 ? 1e5 : 0.0);
        }
        if (e.at("name").str == "d.lat_us") {
            const double want = e.at("ts").number == 10 ? 2.0 : 0.0;
            EXPECT_NEAR(args.at("p50").number, want, 0.05);
            EXPECT_NEAR(args.at("p99").number, want, 0.05);
        }
    }
    EXPECT_EQ(drawn, (std::vector<std::string>{
                         "a.changing@10", "b.constant@10", "c.ops@10",
                         "d.lat_us@10", "a.changing@20", "c.ops@20",
                         "d.lat_us@20"}));
    EXPECT_EQ(tw.categories(),
              (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(TimeSeriesHub, SelfProbesAndMetricPatternsAreDocumented)
{
    obs::MetricsRegistry reg;
    obs::TimeSeriesHub hub;
    hub.registerSelfProbes(reg);
    for (const std::string &path : reg.paths()) {
        EXPECT_NE(obs::findMetricPattern(path), nullptr)
            << path << " is not documented in metric_names.hpp";
    }
    // The SLO metric family is documented too.
    for (const char *p :
         {"slo.ranking_p99.alerts", "slo.ranking_p99.resolved",
          "slo.ranking_p99.firing", "slo.ranking_p99.burn_long",
          "slo.ranking_p99.burn_short", "serving.rank.latency_ms"}) {
        EXPECT_NE(obs::findMetricPattern(p), nullptr) << p;
    }
}

TEST(TimeSeriesHubDeathTest, ConfigValidation)
{
    EXPECT_DEATH(obs::TimeSeriesHub(obs::TimeSeriesConfig{.window = 0}),
                 "window");
    obs::TimeSeriesHub hub;
    EXPECT_DEATH(hub.kindOf("no.such.series"), "unknown series");
}

TEST(TimeSeriesHubDeathTest, SecondStartDies)
{
    // Barrier hooks cannot be deregistered: a second start would add a
    // second hook and roll every window twice.
    sim::ShardedEventQueue sq;
    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = 10 * sim::kMicrosecond});
    hub.startSampling(sq);
    EXPECT_DEATH(hub.startSampling(sq), "already sampling");
}

// ---------------------------------------------------------------------
// Cross-shard determinism (the merge property, end to end)
// ---------------------------------------------------------------------

namespace {

/** Deterministic sample value for partition @p p, event @p k. */
double
sampleValue(int p, int k)
{
    return 1.0 + 0.31 * static_cast<double>(p) +
           0.173 * static_cast<double>(k % 37) +
           (k % 11 == 0 ? 40.0 : 0.0);
}

/**
 * Run the sharded telemetry workload on @p threads workers: 8
 * partitions, each feeding its own registry's histogram and counter on
 * a fixed schedule, with a fleet aggregate over all of them. Returns
 * the JSONL export; @p p99s collects the aggregate's per-window p99.
 */
std::string
runShardedTelemetry(int threads, std::vector<double> *p99s)
{
    constexpr int kParts = 8;
    sim::ShardedEventQueue::Config qc;
    qc.partitions = kParts;
    qc.threads = threads;
    sim::ShardedEventQueue sq(qc);

    std::vector<obs::MetricsRegistry> regs(kParts);
    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = 100 * sim::kMicrosecond});
    for (int p = 0; p < kParts; ++p)
        hub.watchRegistry(&regs[p]);
    hub.defineAggregate("fleet.lat", "part.*.lat");
    hub.defineAggregate("fleet.ops", "part.*.ops");

    std::ostringstream os;
    hub.exportTo(&os);
    std::vector<obs::TsPoint> fleet;
    collectWindows(hub, "fleet.lat", fleet);
    hub.startSampling(sq);

    for (int p = 0; p < kParts; ++p) {
        const std::string prefix = "part.node" + std::to_string(p);
        sim::LogHistogram &h = regs[p].histogram(prefix + ".lat");
        sim::Counter &c = regs[p].counter(prefix + ".ops");
        for (int k = 1; k <= 150; ++k) {
            sq.partition(p).scheduleAfter(
                k * 7 * sim::kMicrosecond, [&h, &c, p, k] {
                    h.add(sampleValue(p, k));
                    c.inc();
                });
        }
    }
    sq.runFor(1200 * sim::kMicrosecond);

    if (p99s != nullptr) {
        for (const obs::TsPoint &pt : fleet)
            p99s->push_back(pt.p99);
    }
    return os.str();
}

}  // namespace

TEST(ShardedTelemetry, ByteIdenticalAcrossWorkerThreadCounts)
{
    std::vector<double> base_p99;
    const std::string base = runShardedTelemetry(1, &base_p99);
    EXPECT_GT(countLines(base, "{\"type\":\"window\""), 0u);
    EXPECT_FALSE(base_p99.empty());
    for (int threads : {2, 4, 8}) {
        std::vector<double> p99;
        EXPECT_EQ(runShardedTelemetry(threads, &p99), base)
            << "JSONL diverged at " << threads << " worker threads";
        EXPECT_EQ(p99, base_p99);
    }
}

TEST(ShardedTelemetry, MergedShardSketchesMatchSingleQueueRun)
{
    // Same workload on one sequential queue with ONE histogram fed the
    // union of every partition's samples.
    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    obs::MetricsRegistry reg;
    sim::LogHistogram &h = reg.histogram("all.lat");
    for (int p = 0; p < 8; ++p) {
        for (int k = 1; k <= 150; ++k) {
            eq.scheduleAfter(k * 7 * sim::kMicrosecond,
                             [&h, p, k] { h.add(sampleValue(p, k)); });
        }
    }
    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = 100 * sim::kMicrosecond});
    hub.watchRegistry(&reg);
    std::vector<obs::TsPoint> all;
    collectWindows(hub, "all.lat", all);
    hub.startSampling(sq);
    sq.runFor(1200 * sim::kMicrosecond);

    std::vector<double> single_p99, single_n;
    for (const obs::TsPoint &pt : all) {
        single_p99.push_back(pt.p99);
        single_n.push_back(static_cast<double>(pt.count));
    }

    std::vector<double> sharded_p99;
    const std::string jsonl = runShardedTelemetry(4, &sharded_p99);
    // Window-by-window, the aggregate of 8 per-shard sketches equals
    // the single-queue windowed percentiles exactly.
    ASSERT_EQ(sharded_p99.size(), single_p99.size());
    for (std::size_t i = 0; i < single_p99.size(); ++i)
        EXPECT_DOUBLE_EQ(sharded_p99[i], single_p99[i]) << "window " << i;
}

// ---------------------------------------------------------------------
// SLO burn-rate engine
// ---------------------------------------------------------------------

TEST(SloEngine, FiresAndResolvesOnBurnRate)
{
    obs::MetricsRegistry reg;
    sim::LogHistogram &lat = reg.histogram("svc.lat_ms");
    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = sim::kMillisecond});
    hub.watchRegistry(&reg);

    obs::SloEngine slo(hub);
    slo.addObjective({.name = "lat_p99", .series = "svc.lat_ms",
                      .stat = obs::SloStat::kP99, .cmp = obs::SloCmp::kLt,
                      .threshold = 5.0, .errorBudget = 0.5, .longWindows = 4,
                      .shortWindows = 2, .burnThreshold = 1.0});
    slo.attachObservability(reg);

    int w = 0;
    const auto roll = [&](double sample) {
        lat.add(sample);
        hub.rollAt(++w * sim::kMillisecond);
    };

    roll(1.0);
    roll(1.0);
    EXPECT_EQ(slo.alertsFired(), 0u);

    roll(100.0);  // burn_long 1/3 windows bad: below threshold
    EXPECT_EQ(slo.alertsFired(), 0u);
    roll(100.0);  // 2/4 bad = budget burned at 1x long, 2x short
    EXPECT_EQ(slo.alertsFired(), 1u);
    EXPECT_EQ(slo.firingCount(), 1u);
    EXPECT_DOUBLE_EQ(reg.probeValue("slo.lat_p99.firing"), 1.0);
    EXPECT_GE(reg.probeValue("slo.lat_p99.burn_short"), 1.0);

    roll(1.0);  // short window still half bad: keeps firing
    EXPECT_EQ(slo.alertsResolved(), 0u);
    roll(1.0);  // short window clean: resolves
    EXPECT_EQ(slo.alertsResolved(), 1u);
    EXPECT_EQ(slo.firingCount(), 0u);
    EXPECT_DOUBLE_EQ(reg.probeValue("slo.lat_p99.firing"), 0.0);

    ASSERT_EQ(slo.timeline().size(), 1u);
    const obs::SloEngine::Alert &a = slo.timeline().front();
    EXPECT_EQ(a.objective, "lat_p99");
    EXPECT_EQ(a.series, "svc.lat_ms");
    EXPECT_EQ(a.firedAt, 4 * sim::kMillisecond);
    EXPECT_EQ(a.resolvedAt, 6 * sim::kMillisecond);

    const sim::Counter *fired = reg.findCounter("slo.lat_p99.alerts");
    ASSERT_NE(fired, nullptr);
    EXPECT_EQ(fired->get(), 1u);

    // The timeline artifact is deterministic JSON.
    const std::string tj = slo.timelineJson();
    EXPECT_EQ(tj, slo.timelineJson());
    EXPECT_NE(tj.find("\"slo\":\"lat_p99\""), std::string::npos);
    EXPECT_NE(tj.find("\"resolved_us\":"), std::string::npos);
}

TEST(SloEngine, EmptyHistogramWindowsSpendNoErrorBudget)
{
    obs::MetricsRegistry reg;
    reg.histogram("idle.lat_ms");
    obs::TimeSeriesHub hub(
        obs::TimeSeriesConfig{.window = sim::kMillisecond});
    hub.watchRegistry(&reg);

    obs::SloEngine slo(hub);
    // "p99 must stay ABOVE 1" would read every empty window's p99=0 as
    // bad; the no-data rule counts it as in-budget instead.
    slo.addObjective({.name = "floor", .series = "idle.lat_ms",
                      .stat = obs::SloStat::kP99, .cmp = obs::SloCmp::kGt,
                      .threshold = 1.0, .errorBudget = 0.1, .longWindows = 4,
                      .shortWindows = 1, .burnThreshold = 1.0});
    for (int w = 1; w <= 10; ++w)
        hub.rollAt(w * sim::kMillisecond);
    EXPECT_EQ(slo.alertsFired(), 0u);
}

TEST(SloEngine, HostParsingAndValidation)
{
    EXPECT_EQ(obs::SloEngine::hostFromSeries("ltl.node17.retransmits"), 17);
    EXPECT_EQ(obs::SloEngine::hostFromSeries("node3.x"), 3);
    EXPECT_EQ(obs::SloEngine::hostFromSeries("fleet.lat"), -1);
    EXPECT_EQ(obs::SloEngine::hostFromSeries("x.nodeY.z"), -1);

    obs::TimeSeriesHub hub;
    obs::SloEngine slo(hub);
    EXPECT_DEATH(slo.addObjective({.name = "a.b", .series = "x"}),
                 "single dotted");
    EXPECT_DEATH(slo.addObjective(
                     {.name = "ok", .series = "x", .errorBudget = 0.0}),
                 "errorBudget");
    EXPECT_DEATH(slo.addObjective({.name = "ok", .series = "x",
                                   .longWindows = 2, .shortWindows = 5}),
                 "longWindows");
}

// ---------------------------------------------------------------------
// Acceptance: injected fault -> burn-rate alert -> HealthMonitor
// evidence, ahead of the heartbeat detection bound
// ---------------------------------------------------------------------

TEST(SloEngine, FaultFiresAlertAndFilesEvidenceBeforeHeartbeatBound)
{
    net::TopologyConfig topo;
    topo.hostsPerRack = 4;
    topo.racksPerPod = 2;
    topo.l1PerPod = 2;
    topo.pods = 1;
    topo.l2Count = 1;

    obs::Observability obsHub;
    sim::ShardedEventQueue sq;
    sim::EventQueue &eq = sq.partition(0);
    core::ConfigurableCloud cloud(eq, {.topology = topo, .obs = &obsHub});
    haas::ResourceManager &rm = cloud.resourceManager();

    // Heartbeats a full second apart: the active detector is effectively
    // blind for this test, and passive LTL streaks are gated out, so
    // only SLO evidence can drive the failure report.
    haas::HealthMonitor hm(
        eq, rm,
        haas::HealthMonitorConfig{}
            .withHeartbeat(sim::kSecond, 10 * sim::kMicrosecond)
            .withMinLtlStreak(1000));
    cloud.attachHealthMonitor(hm);
    hm.startSharded(sq);

    obs::TimeSeriesHub ts(obs::TimeSeriesConfig{
        .window = 100 * sim::kMicrosecond, .include = {"ltl.*"}});
    ts.watchRegistry(&obsHub.registry);
    ts.startSampling(sq);

    obs::SloEngine slo(ts);
    // Good = no retransmissions this window. One fire crosses the default
    // suspicion threshold (3.0).
    slo.addObjective({.name = "ltl_retransmits",
                      .series = "ltl.node0.retransmits",
                      .stat = obs::SloStat::kDelta, .cmp = obs::SloCmp::kLt,
                      .threshold = 0.5, .errorBudget = 0.25, .longWindows = 8,
                      .shortWindows = 2, .burnThreshold = 2.0,
                      .evidenceWeight = 3.0});
    slo.setEvidenceSink(hm.evidenceSink());

    // Warm-up with healthy traffic, then fail node 0's own link: its
    // un-ACKed frames retransmit every 50 us, turning every subsequent
    // telemetry window bad.
    core::LtlChannel ch = cloud.openLtl(0, 1, fpga::kErPortRole0);
    ch.send(1024);
    sq.runFor(150 * sim::kMicrosecond);
    EXPECT_EQ(slo.alertsFired(), 0u);
    cloud.setHostLinkDown(0, true);
    const sim::TimePs darkAt = eq.now();
    ch.send(1024);
    sq.runFor(2 * sim::kMillisecond);

    // The burn-rate alert fired, named the failing host...
    ASSERT_GE(slo.alertsFired(), 1u);
    const obs::SloEngine::Alert &a = slo.timeline().front();
    EXPECT_EQ(a.host, 0);
    EXPECT_EQ(a.series, "ltl.node0.retransmits");

    // ...and its evidence alone pushed the HealthMonitor over the
    // threshold, long before a heartbeat could have noticed.
    EXPECT_GE(hm.evidenceReports(), 1u);
    EXPECT_EQ(hm.detections(), 1u);
    EXPECT_FALSE(rm.manager(0)->status().healthy);
    EXPECT_EQ(hm.heartbeatsSent(), 0u);
    EXPECT_LT(a.firedAt - darkAt, hm.detectionBound());
    EXPECT_GE(hm.suspicion(0), 3.0);

    hm.stop();
}
