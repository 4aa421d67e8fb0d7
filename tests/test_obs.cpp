/**
 * @file
 * Observability layer tests: metrics registry registration / lookup /
 * hierarchy, deterministic JSON snapshots (parsed back by the shared
 * JSON reader), Chrome trace-event export validity, and the
 * barrier-driven periodic sampler checked against a hand-computed
 * schedule.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "fpga/null_role.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

namespace {

using namespace ccsim;
using obs::MetricsRegistry;
using obs::Observability;
using obs::TraceWriter;
using sim::EventQueue;

using obs::JsonValue;
using JsonKind = obs::JsonValue::Kind;

/** @p text through the shared JSON reader; invalid JSON fails the test. */
JsonValue
parseJsonOrDie(const std::string &text)
{
    auto v = obs::parseJson(text);
    EXPECT_TRUE(v.has_value()) << "invalid JSON: " << text.substr(0, 200);
    return v.value_or(JsonValue{});
}

// ---------------------------------------------------------------------------
// Registry basics.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterGetOrCreateReturnsStableReference)
{
    MetricsRegistry reg;
    sim::Counter &c = reg.counter("ltl.node0.frames_sent");
    c.inc(3);
    // Second lookup is the same object.
    reg.counter("ltl.node0.frames_sent").inc(2);
    EXPECT_EQ(c.get(), 5u);
    ASSERT_NE(reg.findCounter("ltl.node0.frames_sent"), nullptr);
    EXPECT_EQ(reg.findCounter("ltl.node0.frames_sent")->get(), 5u);
    EXPECT_EQ(reg.findCounter("no.such.path"), nullptr);
}

TEST(MetricsRegistry, GaugeTracksValueAverageAndPeak)
{
    MetricsRegistry reg;
    obs::Gauge &g = reg.gauge("switch.tor0.q3.depth");
    g.set(0, 10.0);
    g.set(100, 30.0);  // 10 held for [0,100)
    g.set(200, 0.0);   // 30 held for [100,200)
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_DOUBLE_EQ(g.timeAverage(), (10.0 * 100 + 30.0 * 100) / 200.0);
    EXPECT_DOUBLE_EQ(g.peak(), 30.0);
}

TEST(MetricsRegistry, HistogramKeepsFirstBinning)
{
    MetricsRegistry reg;
    sim::LogHistogram &h = reg.histogram("ltl.node0.rtt_us", 0.5, 96);
    h.add(10.0);
    // Re-request with different binning: same instance, args ignored.
    sim::LogHistogram &again = reg.histogram("ltl.node0.rtt_us", 2.0, 8);
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.count(), 1u);
}

TEST(MetricsRegistry, ProbesAreInvokableAndReplaceable)
{
    MetricsRegistry reg;
    double live = 7.0;
    reg.registerProbe("fpga.node0.pcie_util", [&live] { return live; });
    EXPECT_TRUE(reg.hasProbe("fpga.node0.pcie_util"));
    EXPECT_DOUBLE_EQ(reg.probeValue("fpga.node0.pcie_util"), 7.0);
    live = 9.0;
    EXPECT_DOUBLE_EQ(reg.probeValue("fpga.node0.pcie_util"), 9.0);
    // Re-registration replaces (supports component re-attachment).
    reg.registerProbe("fpga.node0.pcie_util", [] { return 1.0; });
    EXPECT_DOUBLE_EQ(reg.probeValue("fpga.node0.pcie_util"), 1.0);
}

TEST(MetricsRegistryDeathTest, CrossKindPathCollisionPanics)
{
    MetricsRegistry reg;
    reg.counter("ltl.node0.frames_sent");
    EXPECT_DEATH(reg.gauge("ltl.node0.frames_sent"), "different metric kind");
    EXPECT_DEATH(reg.registerProbe("ltl.node0.frames_sent",
                                   [] { return 0.0; }),
                 "different metric kind");
}

TEST(MetricsRegistry, DottedPathHierarchy)
{
    MetricsRegistry reg;
    reg.counter("ltl.node0.frames_sent");
    reg.counter("ltl.node1.frames_sent");
    reg.gauge("switch.tor0.q3.depth");
    reg.histogram("ltl.node0.rtt_us");
    reg.registerProbe("fpga.node0.pcie_util", [] { return 0.0; });

    const auto all = reg.paths();
    ASSERT_EQ(all.size(), 5u);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));

    EXPECT_EQ(reg.children(""),
              (std::vector<std::string>{"fpga", "ltl", "switch"}));
    EXPECT_EQ(reg.children("ltl"),
              (std::vector<std::string>{"node0", "node1"}));
    EXPECT_EQ(reg.children("ltl.node0"),
              (std::vector<std::string>{"frames_sent", "rtt_us"}));
    EXPECT_TRUE(reg.children("ltl.node0.rtt_us").empty());
    EXPECT_TRUE(reg.children("bogus").empty());
}

// ---------------------------------------------------------------------------
// Snapshot round-trip.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SnapshotJsonRoundTrip)
{
    MetricsRegistry reg;
    reg.counter("ltl.node0.frames_sent").inc(42);
    obs::Gauge &g = reg.gauge("switch.tor0.q3.depth");
    g.set(0, 4.0);
    g.set(1000, 8.0);
    sim::LogHistogram &h = reg.histogram("ltl.node0.rtt_us");
    for (int i = 1; i <= 100; ++i)
        h.add(static_cast<double>(i));
    reg.histogram("ltl.node1.rtt_us");  // empty histogram: count only
    reg.registerProbe("fpga.node0.pcie_util", [] { return 0.25; });

    const JsonValue root = parseJsonOrDie(reg.snapshotJson());
    ASSERT_EQ(root.kind, JsonKind::kObject);

    const JsonValue &counters = root.at("counters");
    EXPECT_DOUBLE_EQ(counters.at("ltl.node0.frames_sent").number, 42.0);

    const JsonValue &gauge = root.at("gauges").at("switch.tor0.q3.depth");
    EXPECT_DOUBLE_EQ(gauge.at("value").number, 8.0);
    EXPECT_DOUBLE_EQ(gauge.at("avg").number, 4.0);
    EXPECT_DOUBLE_EQ(gauge.at("peak").number, 8.0);

    const JsonValue &hist = root.at("histograms").at("ltl.node0.rtt_us");
    EXPECT_DOUBLE_EQ(hist.at("count").number, 100.0);
    EXPECT_DOUBLE_EQ(hist.at("mean").number, 50.5);
    EXPECT_DOUBLE_EQ(hist.at("min").number, 1.0);
    EXPECT_DOUBLE_EQ(hist.at("max").number, 100.0);
    // Log-binned percentiles are approximate; the registry default
    // binning keeps relative error under ~1%.
    EXPECT_NEAR(hist.at("p50").number, 50.0, 1.0);
    EXPECT_NEAR(hist.at("p99").number, 99.0, 1.5);

    // An empty histogram reports its count and omits the moments (no
    // infinities may leak into the JSON).
    const JsonValue &empty = root.at("histograms").at("ltl.node1.rtt_us");
    EXPECT_DOUBLE_EQ(empty.at("count").number, 0.0);
    EXPECT_EQ(empty.find("min"), nullptr);

    const JsonValue &probe = root.at("probes").at("fpga.node0.pcie_util");
    EXPECT_DOUBLE_EQ(probe.at("value").number, 0.25);
}

TEST(MetricsRegistry, SnapshotEscapesAndNonFiniteValues)
{
    MetricsRegistry reg;
    reg.counter("weird.\"quoted\"\\path");
    reg.registerProbe("bad.probe",
                      [] { return std::nan(""); });
    const std::string json = reg.snapshotJson();
    const JsonValue root = parseJsonOrDie(json);
    EXPECT_NE(root.at("counters").find("weird.\"quoted\"\\path"), nullptr);
    // Non-finite probe values serialize as null, keeping the JSON valid.
    EXPECT_EQ(root.at("probes").at("bad.probe").at("value").kind,
              JsonKind::kNull);
}

// ---------------------------------------------------------------------------
// Randomized check against a std::map model of the registry.
// ---------------------------------------------------------------------------

/**
 * Every path in one std::map, whatever its kind, holding the values the
 * registry should report. render() writes the snapshot format from the
 * map directly, so the registry's id-ordered storage must reproduce it
 * byte for byte.
 */
struct RegistryOracle {
    using Kind = MetricsRegistry::Kind;
    struct Metric {
        Kind kind = Kind::kCounter;
        std::uint64_t count = 0;
        obs::Gauge gauge;
        std::unique_ptr<sim::LogHistogram> hist;
        std::shared_ptr<double> probe;  ///< the registered callback's cell
    };
    std::map<std::string, Metric> metrics;

    std::string render(int shard, int shards) const
    {
        using obs::detail::jsonNumber;
        std::ostringstream os;
        const char *open[] = {"{\"counters\":{", "},\"gauges\":{",
                              "},\"histograms\":{", "},\"probes\":{"};
        for (const Kind kind : {Kind::kCounter, Kind::kGauge,
                                Kind::kHistogram, Kind::kProbe}) {
            os << open[static_cast<int>(kind)];
            bool first = true;
            for (const auto &[path, m] : metrics) {
                if (m.kind != kind || (shard >= 0 && shardOf(path, shards) !=
                                                         shard))
                    continue;
                os << (first ? "\"" : ",\"");
                first = false;
                obs::detail::jsonEscape(os, path);
                os << "\":";
                if (kind == Kind::kCounter) {
                    os << m.count;
                } else if (kind == Kind::kGauge) {
                    os << "{\"value\":";
                    jsonNumber(os, m.gauge.value());
                    os << ",\"avg\":";
                    jsonNumber(os, m.gauge.timeAverage());
                    os << ",\"peak\":";
                    jsonNumber(os, m.gauge.peak());
                    os << "}";
                } else if (kind == Kind::kHistogram) {
                    const sim::LogHistogram &h = *m.hist;
                    os << "{\"count\":" << h.count();
                    if (h.count() > 0) {
                        os << ",\"mean\":";
                        jsonNumber(os, h.mean());
                        os << ",\"min\":";
                        jsonNumber(os, h.min());
                        os << ",\"max\":";
                        jsonNumber(os, h.max());
                        const char *label[] = {"p50", "p90", "p99", "p999"};
                        const double pct[] = {50.0, 90.0, 99.0, 99.9};
                        for (int i = 0; i < 4; ++i) {
                            os << ",\"" << label[i] << "\":";
                            jsonNumber(os, h.percentile(pct[i]));
                        }
                    }
                    os << "}";
                } else {
                    os << "{\"value\":";
                    jsonNumber(os, *m.probe);
                    os << "}";
                }
            }
        }
        os << "}}";
        return os.str();
    }

    std::vector<std::string> paths(int shard, int shards) const
    {
        std::vector<std::string> out;
        for (const auto &[path, m] : metrics)
            if (shardOf(path, shards) == shard)
                out.push_back(path);
        return out;
    }

    static int shardOf(const std::string &path, int shards)
    {
        return static_cast<int>(std::hash<std::string>{}(path) %
                                static_cast<std::size_t>(shards));
    }
};

/** children() recomputed from a sorted path list. */
std::vector<std::string>
childrenOf(const std::vector<std::string> &paths, const std::string &prefix)
{
    const std::string want = prefix.empty() ? "" : prefix + ".";
    std::vector<std::string> kids;
    for (const std::string &p : paths)
        if (p.size() > want.size() && p.compare(0, want.size(), want) == 0)
            kids.push_back(p.substr(want.size()).substr(
                0, p.substr(want.size()).find('.')));
    std::sort(kids.begin(), kids.end());
    kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
    return kids;
}

TEST(MetricsRegistryDeathTest, MatchesMapOracleOnRandomOps)
{
    using Kind = MetricsRegistry::Kind;
    // Prefix relations ("x", "x.y", "x-y") and shared segments.
    std::vector<std::string> universe = {"x", "x.y", "x.y.z", "x-y", "x.y-z",
                                         "weird.\"q\"\\p"};
    for (int a = 0; a < 3; ++a)
        for (int b = 0; b < 4; ++b)
            for (int c = 0; c < 3; ++c)
                universe.push_back("s" + std::to_string(a) + ".n" +
                                   std::to_string(b) + ".m" +
                                   std::to_string(c));
    constexpr int kShards = 3;  // an odd count: one run merges late
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Rng rng(seed);
        MetricsRegistry regs[kShards];
        RegistryOracle oracle;
        sim::TimePs now = 0;
        int deathChecks = 0;
        for (int step = 0; step < 400; ++step) {
            const std::string &path =
                universe[rng.uniformInt(universe.size())];
            MetricsRegistry &reg =
                regs[RegistryOracle::shardOf(path, kShards)];
            const auto want = static_cast<Kind>(rng.uniformInt(4));
            const auto it = oracle.metrics.find(path);
            if (it != oracle.metrics.end() && it->second.kind != want) {
                // A cross-kind collision panics; check a few per seed.
                if (deathChecks++ < 2) {
                    EXPECT_DEATH(
                        {
                            if (want == Kind::kCounter)
                                reg.counter(path);
                            else if (want == Kind::kGauge)
                                reg.gauge(path);
                            else if (want == Kind::kHistogram)
                                reg.histogram(path);
                            else
                                reg.registerProbe(path, [] { return 0.0; });
                        },
                        "different metric kind");
                }
                continue;
            }
            RegistryOracle::Metric &m = oracle.metrics[path];
            m.kind = want;
            now += static_cast<sim::TimePs>(rng.uniformInt(1000));
            const double v = static_cast<double>(rng.uniformInt(100)) / 4.0;
            switch (want) {
            case Kind::kCounter: {
                const std::uint64_t n = rng.uniformInt(5);
                reg.counter(path).inc(n);
                m.count += n;
                break;
            }
            case Kind::kGauge:
                reg.gauge(path).set(now, v);
                m.gauge.set(now, v);
                break;
            case Kind::kHistogram: {
                // Later calls ignore the binning: the first one sticks.
                const double min = rng.bernoulli(0.5) ? 0.5 : 2.0;
                if (!m.hist)
                    m.hist = std::make_unique<sim::LogHistogram>(min, 96);
                reg.histogram(path, min, 96).add(v);
                m.hist->add(v);
                break;
            }
            case Kind::kProbe:
                if (m.probe && rng.bernoulli(0.6)) {
                    *m.probe = v;  // the live value moves
                } else {
                    // New probe, or a replacement with a fresh callback.
                    m.probe = std::make_shared<double>(v);
                    reg.registerProbe(path, [cell = m.probe] { return *cell; });
                }
                break;
            }
            if (rng.bernoulli(0.1))
                now += 1 + static_cast<sim::TimePs>(rng.uniformInt(5000));

            // Point lookups agree on a random path.
            const std::string &q = universe[rng.uniformInt(universe.size())];
            const MetricsRegistry &qr =
                regs[RegistryOracle::shardOf(q, kShards)];
            const auto qit = oracle.metrics.find(q);
            const auto is = [&](Kind k) {
                return qit != oracle.metrics.end() && qit->second.kind == k;
            };
            ASSERT_EQ(qr.findCounter(q) != nullptr, is(Kind::kCounter));
            ASSERT_EQ(qr.findGauge(q) != nullptr, is(Kind::kGauge));
            ASSERT_EQ(qr.findHistogram(q) != nullptr, is(Kind::kHistogram));
            ASSERT_EQ(qr.hasProbe(q), is(Kind::kProbe));
            if (is(Kind::kCounter)) {
                ASSERT_EQ(qr.findCounter(q)->get(), qit->second.count);
            }
            if (is(Kind::kProbe)) {
                ASSERT_EQ(qr.probeValue(q), *qit->second.probe);
            }
        }

        std::vector<const MetricsRegistry *> all;
        for (int s = 0; s < kShards; ++s) {
            const std::vector<std::string> paths = oracle.paths(s, kShards);
            EXPECT_EQ(regs[s].paths(), paths);
            EXPECT_EQ(regs[s].size(), paths.size());
            EXPECT_EQ(regs[s].snapshotJson(), oracle.render(s, kShards));
            for (const std::string prefix :
                 {"", "x", "x.y", "s0", "s1.n2", "s2.n3.m1", "bogus"})
                EXPECT_EQ(regs[s].children(prefix), childrenOf(paths, prefix))
                    << "prefix '" << prefix << "'";
            all.push_back(&regs[s]);
        }
        EXPECT_EQ(MetricsRegistry::mergedSnapshotJson(all),
                  oracle.render(-1, kShards));
    }
}

// ---------------------------------------------------------------------------
// Trace writer.
// ---------------------------------------------------------------------------

TEST(TraceWriter, DisabledWriterRecordsNothing)
{
    TraceWriter tw;
    const int t = tw.track("ltl.node0");
    tw.complete(t, "ltl", "msg", 0, 1000);
    tw.instant(t, "ltl", "retransmit", 500);
    tw.counter("ltl", "rate", 0, 40.0);
    EXPECT_EQ(tw.eventCount(), 0u);
}

TEST(TraceWriter, TracksAreStablePerName)
{
    TraceWriter tw;
    const int a = tw.track("ltl.node0");
    const int b = tw.track("ltl.node1");
    EXPECT_NE(a, b);
    EXPECT_EQ(tw.track("ltl.node0"), a);
}

TEST(TraceWriter, ExportIsValidChromeTraceJson)
{
    TraceWriter tw;
    tw.setEnabled(true);
    const int t0 = tw.track("ltl.node0");
    const int t1 = tw.track("host.rank");
    // Simulated times in ps; exported ts/dur are microseconds.
    tw.complete(t0, "ltl", "ltl.node0.msg", 2'000'000, 500'000);
    tw.instant(t0, "ltl", "ltl.node0.retransmit", 2'250'000);
    tw.counter("host", "host.rank.in_flight", 3'000'000, 12.0);
    tw.complete(t1, "host", "host.rank.query", 0, 10'000'000);

    const JsonValue root = parseJsonOrDie(tw.json());
    ASSERT_EQ(root.kind, JsonKind::kObject);
    ASSERT_NE(root.find("traceEvents"), nullptr);
    const auto &events = root.at("traceEvents").arr;
    ASSERT_EQ(events.size(), 4u);

    const JsonValue &span = events[0];
    EXPECT_EQ(span.at("ph").str, "X");
    EXPECT_EQ(span.at("cat").str, "ltl");
    EXPECT_EQ(span.at("name").str, "ltl.node0.msg");
    EXPECT_DOUBLE_EQ(span.at("ts").number, 2.0);
    EXPECT_DOUBLE_EQ(span.at("dur").number, 0.5);
    EXPECT_EQ(static_cast<int>(span.at("tid").number), t0);

    const JsonValue &inst = events[1];
    EXPECT_EQ(inst.at("ph").str, "i");
    EXPECT_DOUBLE_EQ(inst.at("ts").number, 2.25);

    const JsonValue &ctr = events[2];
    EXPECT_EQ(ctr.at("ph").str, "C");
    EXPECT_DOUBLE_EQ(ctr.at("args").at("value").number, 12.0);

    EXPECT_EQ(tw.categories(),
              (std::vector<std::string>{"host", "ltl"}));
}

// ---------------------------------------------------------------------------
// End to end: an instrumented cloud produces a multi-component trace.
// ---------------------------------------------------------------------------

TEST(ObservabilityIntegration, SmallCloudTraceCoversAllComponentFamilies)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    Observability hub;
    hub.trace.setEnabled(true);

    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.createNics = false;
    cfg.shellTemplate.ltl.maxConnections = 8;
    cfg.obs = &hub;
    cfg.flowSampleEvery = 1;
    obs::TimeSeriesHub sampler(
        obs::TimeSeriesConfig{.window = 50 * sim::kMicrosecond});
    cfg.timeSeries = &sampler;
    core::ConfigurableCloud cloud(eq, cfg);

    fpga::NullRole sink;
    cloud.shell(5).addRole(&sink);
    auto ch = cloud.openLtl(0, 5, sink.port);
    auto *engine = cloud.shell(0).ltlEngine();

    sampler.startSampling(sq);
    for (int i = 0; i < 20; ++i) {
        eq.scheduleAfter(i * 10 * sim::kMicrosecond,
                         [engine, conn = ch.sendConn()] {
                             engine->sendMessage(conn, 256);
                         });
    }
    sq.runFor(sim::fromMillis(1));

    // The acceptance bar for the trace: valid JSON, >= 4 component
    // families represented.
    const JsonValue root = parseJsonOrDie(hub.trace.json());
    EXPECT_GE(root.at("traceEvents").arr.size(), 4u);
    const auto cats = hub.trace.categories();
    EXPECT_GE(cats.size(), 4u);
    for (const char *want : {"fpga", "ltl", "router", "switch"})
        EXPECT_TRUE(std::find(cats.begin(), cats.end(), want) != cats.end())
            << "missing category " << want;

    // Registry agrees with the engine's own counters.
    EXPECT_EQ(hub.registry.probeValue("ltl.node0.frames_sent"),
              double(engine->framesSent()));
    const auto *rtt = hub.registry.findHistogram("ltl.node0.rtt_us");
    ASSERT_NE(rtt, nullptr);
    EXPECT_EQ(rtt->count(), engine->rttUs().count());

    // PR-3 kernel probes ride along on any observed cloud.
    for (const char *probe :
         {"sim.queue.events_per_sec", "sim.queue.live",
          "sim.queue.cancelled", "sim.queue.wheel_overflow"})
        EXPECT_TRUE(hub.registry.hasProbe(probe))
            << "missing kernel probe " << probe;

    // The other exporters' outputs read back through the same reader: the
    // span dump, a merged snapshot and one CCSIM_TS window line.
    EXPECT_FALSE(
        parseJsonOrDie(hub.flows.spanDumpJson()).at("flows").arr.empty());
    MetricsRegistry other;
    other.counter("other.ops").inc(3);
    const JsonValue merged = parseJsonOrDie(
        MetricsRegistry::mergedSnapshotJson({&hub.registry, &other}));
    EXPECT_DOUBLE_EQ(merged.at("counters").at("other.ops").number, 3.0);
    obs::TimeSeriesHub ts(obs::TimeSeriesConfig{.window = sim::kMillisecond});
    ts.watchRegistry(&hub.registry);
    std::ostringstream jsonl;
    ts.exportTo(&jsonl);
    ts.rollAt(sim::fromMillis(1));
    const std::string text = jsonl.str();
    const std::size_t at = text.find("{\"type\":\"window\"");
    ASSERT_NE(at, std::string::npos);
    const JsonValue window =
        parseJsonOrDie(text.substr(at, text.find('\n', at) - at));
    EXPECT_DOUBLE_EQ(window.at("t_us").number, 1000.0);
    EXPECT_FALSE(window.at("series").obj.empty());
}

TEST(JsonReader, RejectsMalformedTextAndDecodesEscapes)
{
    for (const char *bad :
         {"{\"a\":[1,2]", "{\"a\":nul}", "[\"open]", "{\"a\" 1}"})
        EXPECT_FALSE(obs::parseJson(bad).has_value()) << bad;
    const auto v =
        obs::parseJson(R"( {"s": "q\"b\\s\n\u0001", "n": -2.5e3} )");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->at("s").str, "q\"b\\s\n?");
    EXPECT_DOUBLE_EQ(v->numOr("n", 0.0), -2500.0);
}

TEST(EventQueueProbes, ExportKernelHealthDeterministically)
{
    EventQueue eq;
    MetricsRegistry registry;
    obs::registerEventQueueProbes(registry, eq);

    EXPECT_EQ(registry.probeValue("sim.queue.live"), 0.0);
    EXPECT_EQ(registry.probeValue("sim.queue.events_per_sec"), 0.0);

    const auto doomed = eq.scheduleAfter(50, [] {});
    eq.scheduleAfter(100, [] {});
    EXPECT_EQ(registry.probeValue("sim.queue.live"), 2.0);
    eq.cancel(doomed);
    EXPECT_EQ(registry.probeValue("sim.queue.live"), 1.0);
    EXPECT_EQ(registry.probeValue("sim.queue.cancelled"), 1.0);

    eq.runAll();
    EXPECT_EQ(registry.probeValue("sim.queue.live"), 0.0);
    // The rate probe is defined over *simulated* time so same-seed runs
    // snapshot identically: 1 event in 100 ps = 1e10 events/sec.
    EXPECT_EQ(registry.probeValue("sim.queue.events_per_sec"), 1e10);
}

}  // namespace
