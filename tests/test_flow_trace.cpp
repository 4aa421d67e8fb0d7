/**
 * @file
 * Flow tracing and tail-latency attribution: the timeline-sweep
 * decomposition's exactness invariant, FlightRecorder sampling and
 * worst-N exemplar policy, trace-context survival across LTL
 * retransmission (NACK and timeout), attribution consistency under load
 * with faults armed, same-seed span-dump determinism, TraceWriter flush
 * on abnormal termination, and the metric-name catalogue cross-check.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "host/ranking_server.hpp"
#include "ltl/ltl_engine.hpp"
#include "obs/flow_trace.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ccsim;
using obs::Component;
using obs::FlightRecorder;
using obs::FlowTrace;
using obs::Span;
using obs::TraceContext;
using sim::EventQueue;

FlowTrace
makeFlow(sim::TimePs start, sim::TimePs end,
         std::vector<Span> spans = {})
{
    FlowTrace t;
    t.traceId = 1;
    t.flow = "test.flow";
    t.start = start;
    t.end = end;
    t.spans = std::move(spans);
    return t;
}

Span
makeSpan(std::uint32_t id, Component c, sim::TimePs start, sim::TimePs end,
         std::string hop)
{
    Span s;
    s.id = id;
    s.comp = c;
    s.start = start;
    s.end = end;
    s.hop = std::move(hop);
    return s;
}

// ---------------------------------------------------------------------
// Attribution sweep: exactness, priority, clipping.
// ---------------------------------------------------------------------

TEST(Attribution, UncoveredTimeFallsToQueueingAndSumsExactly)
{
    const auto t = makeFlow(
        0, 100, {makeSpan(1, Component::kCompute, 10, 30, "a")});
    const auto a = obs::attributeLatency(t);
    EXPECT_EQ(a.total, 100);
    EXPECT_EQ(a.of(Component::kCompute), 20);
    EXPECT_EQ(a.of(Component::kQueueing), 80);
    EXPECT_TRUE(a.consistent());
}

TEST(Attribution, EmptyFlowIsAllQueueing)
{
    const auto a = obs::attributeLatency(makeFlow(50, 150));
    EXPECT_EQ(a.of(Component::kQueueing), 100);
    EXPECT_TRUE(a.consistent());
}

TEST(Attribution, HigherPriorityComponentWinsOverlap)
{
    // A retransmit window laid over an explicit queueing span: the
    // overlap must count as retransmit, never inflate queueing.
    const auto t = makeFlow(
        0, 100, {makeSpan(1, Component::kQueueing, 0, 100, "q"),
                 makeSpan(2, Component::kRetransmit, 20, 60, "rtx")});
    const auto a = obs::attributeLatency(t);
    EXPECT_EQ(a.of(Component::kRetransmit), 40);
    EXPECT_EQ(a.of(Component::kQueueing), 60);
    EXPECT_TRUE(a.consistent());
}

TEST(Attribution, SamePriorityTieGoesToLowestSpanId)
{
    const auto t = makeFlow(
        0, 150, {makeSpan(1, Component::kCompute, 0, 100, "a"),
                 makeSpan(2, Component::kCompute, 50, 150, "b")});
    const auto rows = obs::attributeByHop(t);
    ASSERT_EQ(rows.size(), 2u);
    sim::TimePs a_total = 0, b_total = 0;
    for (const auto &r : rows) {
        if (r.hop == "a")
            a_total = r.total();
        if (r.hop == "b")
            b_total = r.total();
    }
    EXPECT_EQ(a_total, 100);  // wins the [50,100) tie by lower id
    EXPECT_EQ(b_total, 50);
}

TEST(Attribution, SpansClippedToFlowWindow)
{
    const auto t = makeFlow(
        100, 200,
        {makeSpan(1, Component::kSerialization, 50, 150, "wire"),
         makeSpan(2, Component::kPropagation, 180, 400, "cable")});
    const auto a = obs::attributeLatency(t);
    EXPECT_EQ(a.of(Component::kSerialization), 50);  // [100,150)
    EXPECT_EQ(a.of(Component::kPropagation), 20);    // [180,200)
    EXPECT_EQ(a.of(Component::kQueueing), 30);       // [150,180)
    EXPECT_TRUE(a.consistent());
}

TEST(Attribution, ByHopRowsSumToTotalWithUnattributedRow)
{
    const auto t = makeFlow(
        0, 100, {makeSpan(1, Component::kCompute, 0, 40, "stage")});
    const auto rows = obs::attributeByHop(t);
    ASSERT_EQ(rows.size(), 2u);
    sim::TimePs sum = 0;
    bool unattributed = false;
    for (const auto &r : rows) {
        sum += r.total();
        unattributed |= r.hop == "(unattributed)";
    }
    EXPECT_EQ(sum, t.latency());
    EXPECT_TRUE(unattributed);
}

TEST(Attribution, FormatTableShowsHopsAndTotalRow)
{
    const auto t = makeFlow(
        0, 2000000,
        {makeSpan(1, Component::kCompute, 0, 1000000, "ltl.node0.tx")});
    const std::string table = obs::formatAttributionTable(t);
    EXPECT_NE(table.find("ltl.node0.tx"), std::string::npos);
    EXPECT_NE(table.find("(total)"), std::string::npos);
    EXPECT_EQ(table.find("INCONSISTENT"), std::string::npos);
}

// ---------------------------------------------------------------------
// FlightRecorder: sampling, exemplar policy, drop accounting.
// ---------------------------------------------------------------------

TEST(FlightRecorder, DisabledRecorderReturnsUnsampledContexts)
{
    FlightRecorder fr;
    const auto ctx = fr.beginFlow("f", 0);
    EXPECT_FALSE(ctx.sampled);
    EXPECT_EQ(ctx.traceId, 0u);
    EXPECT_EQ(fr.flowsStarted(), 0u);
}

TEST(FlightRecorder, SamplesOneFlowInN)
{
    FlightRecorder fr;
    fr.setEnabled(true);
    fr.setSampleEvery(3);
    int sampled = 0;
    for (int i = 0; i < 9; ++i)
        sampled += fr.beginFlow("f", i).sampled ? 1 : 0;
    EXPECT_EQ(sampled, 3);  // flows 1, 4, 7 (the first is always taken)
    EXPECT_EQ(fr.flowsStarted(), 9u);
    EXPECT_EQ(fr.flowsSampled(), 3u);
}

TEST(FlightRecorder, KeepsWorstNByLatency)
{
    FlightRecorder fr;
    fr.setEnabled(true);
    fr.setTailCapacity(2);
    for (sim::TimePs lat : {10, 30, 20}) {
        const auto ctx = fr.beginFlow("f", 0);
        fr.recordSpan(ctx, "hop", Component::kCompute, 0, lat);
        fr.endFlow(ctx, lat);
    }
    const auto worst = fr.worstFirst();
    ASSERT_EQ(worst.size(), 2u);
    EXPECT_EQ(worst[0]->latency(), 30);
    EXPECT_EQ(worst[1]->latency(), 20);
    // The evicted 10 ps flow carried one span.
    EXPECT_EQ(fr.droppedSpans(), 1u);
}

TEST(FlightRecorder, LateAndOverflowSpansCountedAsDropped)
{
    FlightRecorder fr;
    fr.setEnabled(true);
    fr.setMaxSpansPerTrace(2);
    const auto ctx = fr.beginFlow("f", 0);
    fr.recordSpan(ctx, "a", Component::kCompute, 0, 1);
    fr.recordSpan(ctx, "b", Component::kCompute, 1, 2);
    fr.recordSpan(ctx, "c", Component::kCompute, 2, 3);  // over the cap
    EXPECT_EQ(fr.droppedSpans(), 1u);
    fr.endFlow(ctx, 3);
    fr.recordSpan(ctx, "d", Component::kCompute, 3, 4);  // flow is gone
    EXPECT_EQ(fr.droppedSpans(), 2u);
    ASSERT_EQ(fr.exemplars().size(), 1u);
    EXPECT_EQ(fr.exemplars()[0].spans.size(), 2u);
    EXPECT_EQ(fr.exemplars()[0].droppedSpans, 1u);
}

TEST(FlightRecorder, OpenCloseSpanRoundTrip)
{
    FlightRecorder fr;
    fr.setEnabled(true);
    const auto ctx = fr.beginFlow("f", 0);
    const auto id = fr.openSpan(ctx, "stage", Component::kPfcPause, 5);
    ASSERT_NE(id, 0u);
    fr.closeSpan(ctx, id, 25);
    fr.endFlow(ctx, 30);
    ASSERT_EQ(fr.exemplars().size(), 1u);
    const auto &s = fr.exemplars()[0].spans.at(0);
    EXPECT_EQ(s.start, 5);
    EXPECT_EQ(s.end, 25);
    EXPECT_EQ(s.comp, Component::kPfcPause);
}

TEST(FlightRecorder, BindMetricsFoldsPreBindCounts)
{
    FlightRecorder fr;
    fr.setEnabled(true);
    const auto ctx = fr.beginFlow("f", 0);
    fr.endFlow(ctx, 1);

    obs::MetricsRegistry reg;
    fr.bindMetrics(reg);
    const auto *sampled = reg.findCounter("trace.sampled_flows");
    ASSERT_NE(sampled, nullptr);
    EXPECT_EQ(sampled->get(), 1u);

    fr.endFlow(fr.beginFlow("f", 2), 3);
    EXPECT_EQ(sampled->get(), 2u);
}

TEST(FlightRecorder, NewWindowDiscardsExemplarsWithoutCountingDrops)
{
    FlightRecorder fr;
    fr.setEnabled(true);
    const auto ctx = fr.beginFlow("f", 0);
    fr.recordSpan(ctx, "hop", Component::kCompute, 0, 1);
    fr.endFlow(ctx, 1);
    ASSERT_EQ(fr.exemplars().size(), 1u);
    fr.newWindow();
    EXPECT_TRUE(fr.exemplars().empty());
    EXPECT_EQ(fr.droppedSpans(), 0u);  // an intentional reset, not loss
}

// ---------------------------------------------------------------------
// TraceWriter: flush on abnormal termination, Chrome flow events.
// ---------------------------------------------------------------------

TEST(TraceWriterFlush, DestructorWritesBufferedEvents)
{
    const std::string path = "test_flow_trace_flush.json";
    std::remove(path.c_str());
    {
        obs::TraceWriter tw;
        tw.setEnabled(true);
        tw.autoFlushOnExit(path);
        tw.instant(0, "test", "orphaned-event", 123);
        // No explicit writeFile: the destructor must salvage the buffer
        // (the same path covers std::exit via the atexit hook).
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("orphaned-event"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceWriterFlush, ExplicitWriteClearsDirtyFlag)
{
    const std::string path = "test_flow_trace_clean.json";
    obs::TraceWriter tw;
    tw.setEnabled(true);
    tw.instant(0, "test", "e", 1);
    EXPECT_TRUE(tw.dirty());
    ASSERT_TRUE(tw.writeFile(path));
    EXPECT_FALSE(tw.dirty());
    std::remove(path.c_str());
}

TEST(TraceWriter, FlowEventsCarryIdAndBindingPoint)
{
    const std::string path = "test_flow_trace_flow_events.json";
    obs::TraceWriter tw;
    tw.setEnabled(true);
    tw.flowPoint('s', 0, "flow", "f", 10, 7);
    tw.flowPoint('f', 0, "flow", "f", 20, 7);
    ASSERT_TRUE(tw.writeFile(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\"id\":7"), std::string::npos);
    EXPECT_NE(ss.str().find("\"bp\":\"e\""), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// LTL: trace context survives retransmission (satellite test).
// ---------------------------------------------------------------------

/** Two engines joined by a droppable pipe (as in test_ltl.cpp). */
struct TracedPair {
    EventQueue eq;
    obs::Observability hub;
    std::unique_ptr<ltl::LtlEngine> a;
    std::unique_ptr<ltl::LtlEngine> b;
    sim::TimePs oneWay = sim::fromNanos(800);
    std::function<bool(const net::PacketPtr &)> dropIf;
    std::vector<ltl::LtlMessage> delivered;

    explicit TracedPair(ltl::LtlConfig base = ltl::LtlConfig{})
    {
        hub.flows.setEnabled(true);
        hub.flows.setSampleEvery(1);
        ltl::LtlConfig ca = base;
        ca.localIp = {1};
        ltl::LtlConfig cb = base;
        cb.localIp = {2};
        a = std::make_unique<ltl::LtlEngine>(
            eq, ca, [this](const net::PacketPtr &p) {
                auto hdr = std::static_pointer_cast<ltl::LtlHeader>(p->meta);
                const bool is_data = hdr && (hdr->flags & ltl::kFlagData);
                if (is_data && dropIf && dropIf(p))
                    return;
                eq.scheduleAfter(oneWay,
                                 [this, p] { b->onNetworkPacket(p); });
            });
        b = std::make_unique<ltl::LtlEngine>(
            eq, cb, [this](const net::PacketPtr &p) {
                eq.scheduleAfter(oneWay,
                                 [this, p] { a->onNetworkPacket(p); });
            });
        a->attachObservability(&hub, "a");
        b->setDeliveryHandler(
            [this](const ltl::LtlMessage &m) { delivered.push_back(m); });
    }

    std::uint16_t connect()
    {
        const std::uint16_t rx = b->openReceive(0);
        return a->openSend({2}, rx);
    }
};

TEST(FlowTraceLtl, NackRetransmitKeepsTraceIdAndCountsAsRetransmit)
{
    TracedPair pair;
    const auto conn = pair.connect();
    int data_frames = 0;
    pair.dropIf = [&](const net::PacketPtr &) {
        return ++data_frames == 3;  // drop message 3's only frame
    };
    for (int i = 0; i < 10; ++i)
        pair.a->sendMessage(conn, 64, std::make_shared<int>(i));
    pair.eq.runUntil(sim::fromMicros(2000));
    ASSERT_EQ(pair.delivered.size(), 10u);
    ASSERT_GT(pair.b->nacksSent(), 0u);
    ASSERT_EQ(pair.a->timeouts(), 0u);  // NACK recovery, not timeout

    // The retransmitted copy must carry the original flow's trace id:
    // the id the receiver observed for message 3 names an exemplar that
    // contains the retransmit span.
    const std::uint64_t retx_id = pair.delivered[2].trace.traceId;
    ASSERT_NE(retx_id, 0u);
    const FlowTrace *retx_flow = nullptr;
    const FlowTrace *clean_flow = nullptr;
    for (const auto &t : pair.hub.flows.exemplars()) {
        if (t.traceId == retx_id)
            retx_flow = &t;
        // Go-back-N resends everything at and after the loss, so only
        // messages acked before the drop are clean; message 1 is.
        if (t.traceId == pair.delivered[0].trace.traceId)
            clean_flow = &t;
    }
    ASSERT_NE(retx_flow, nullptr);
    ASSERT_NE(clean_flow, nullptr);

    bool has_retx_span = false;
    for (const auto &s : retx_flow->spans)
        has_retx_span |= s.comp == Component::kRetransmit;
    EXPECT_TRUE(has_retx_span);

    const auto attr = obs::attributeLatency(*retx_flow);
    const auto clean = obs::attributeLatency(*clean_flow);
    EXPECT_TRUE(attr.consistent());
    EXPECT_TRUE(clean.consistent());
    EXPECT_GT(attr.of(Component::kRetransmit), 0);
    EXPECT_EQ(clean.of(Component::kRetransmit), 0);
    // The loss-detection wait is attributed to retransmit, so the
    // affected flow's queueing share stays at a clean flow's level (one
    // extra flight of uncovered wire time at most).
    EXPECT_LE(attr.of(Component::kQueueing),
              clean.of(Component::kQueueing) + sim::fromMicros(5));
}

TEST(FlowTraceLtl, TimeoutRetransmitAttributedToRetransmit)
{
    ltl::LtlConfig cfg;
    cfg.enableNack = false;
    TracedPair pair(cfg);
    const auto conn = pair.connect();
    int data_frames = 0;
    pair.dropIf = [&](const net::PacketPtr &) {
        return ++data_frames == 1;
    };
    pair.a->sendMessage(conn, 64, std::make_shared<int>(7));
    pair.eq.runUntil(sim::fromMicros(500));
    ASSERT_EQ(pair.delivered.size(), 1u);
    ASSERT_GE(pair.a->timeouts(), 1u);

    ASSERT_EQ(pair.hub.flows.exemplars().size(), 1u);
    const auto &flow = pair.hub.flows.exemplars()[0];
    EXPECT_EQ(flow.traceId, pair.delivered[0].trace.traceId);
    const auto attr = obs::attributeLatency(flow);
    EXPECT_TRUE(attr.consistent());
    // The timeout wait dominates this flow's latency and must land in
    // the retransmit component, not queueing.
    EXPECT_GT(attr.of(Component::kRetransmit),
              attr.of(Component::kQueueing));
}

// ---------------------------------------------------------------------
// Cloud-level property, determinism, and catalogue cross-check.
// ---------------------------------------------------------------------

struct CloudRole : fpga::Role {
    int port = -1;
    std::string name() const override { return "sink"; }
    std::uint32_t areaAlms() const override { return 100; }
    void attach(fpga::Shell &, int p) override { port = p; }
    void onMessage(const router::ErMessagePtr &) override {}
};

core::CloudConfig
tracedCloudConfig(obs::Observability *hub)
{
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.racksPerPod = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    cfg.createNics = false;
    cfg.shellTemplate.ltl.maxConnections = 16;
    cfg.obs = hub;
    cfg.flowSampleEvery = 1;
    cfg.flowTailCapacity = 128;
    return cfg;
}

/**
 * Drive a small cloud under load with a scripted link flap, check
 * the attribution invariant on every exemplar, and return the span dump.
 */
std::string
runFaultyCloudScenario()
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    obs::Observability hub;
    core::ConfigurableCloud cloud(eq, tracedCloudConfig(&hub));
    CloudRole sink;
    EXPECT_GE(cloud.shell(5).addRole(&sink), 0);
    auto ch = cloud.openLtl(0, 5, sink.port);

    // Cut the sender's TOR cable mid-train: retransmission and recovery
    // happen while spans are recording.
    fault::FaultInjector inj(sq, cloud);
    fault::ChaosEngine chaos(
        sq, fault::ChaosScenario{}.withPhase(
                "flap", sim::fromMicros(500),
                [&] { inj.flapHostLink(0, sim::fromMicros(200)); }));
    chaos.start();

    auto *engine = cloud.shell(0).ltlEngine();
    for (int i = 0; i < 100; ++i) {
        eq.scheduleAfter(i * 20 * sim::kMicrosecond,
                         [engine, conn = ch.sendConn()] {
                             engine->sendMessage(conn, 1408);
                         });
    }
    sq.runUntil(sim::fromMicros(10000));

    EXPECT_GT(cloud.shell(0).ltlEngine()->framesRetransmitted(), 0u);
    EXPECT_FALSE(hub.flows.exemplars().empty());
    bool saw_retransmit = false;
    for (const auto &t : hub.flows.exemplars()) {
        const auto attr = obs::attributeLatency(t);
        EXPECT_TRUE(attr.consistent())
            << "trace " << t.traceId << ": components sum to "
            << attr.sum() << " ps, total " << attr.total << " ps";
        saw_retransmit |= attr.of(Component::kRetransmit) > 0;
    }
    EXPECT_TRUE(saw_retransmit);
    return hub.flows.spanDumpJson();
}

TEST(FlowTraceProperty, AttributionConsistentUnderLoadWithFaultsArmed)
{
    runFaultyCloudScenario();
}

TEST(FlowTraceDeterminism, SameSeedRunsProduceIdenticalSpanDumps)
{
    const std::string first = runFaultyCloudScenario();
    const std::string second = runFaultyCloudScenario();
    EXPECT_EQ(first, second);
}

TEST(MetricNames, EveryRegisteredPathMatchesADocumentedPattern)
{
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    obs::Observability hub;
    core::CloudConfig cfg = tracedCloudConfig(&hub);
    cfg.createNics = true;  // cover nic.* too
    core::ConfigurableCloud cloud(eq, cfg);
    fault::FaultInjector inj(sq, cloud);
    host::RankingServer server(eq, host::RankingServiceParams{}, nullptr);
    server.attachObservability(&hub, "rank");

    const auto paths = hub.registry.paths();
    ASSERT_GT(paths.size(), 50u);
    for (const auto &p : paths) {
        EXPECT_NE(obs::findMetricPattern(p), nullptr)
            << "metric path '" << p
            << "' is not documented in src/obs/metric_names.hpp";
    }
}

TEST(MetricNames, GlobSemantics)
{
    EXPECT_TRUE(obs::matchesMetricPattern("ltl.*.rtt_us",
                                          "ltl.node12.rtt_us"));
    EXPECT_TRUE(obs::matchesMetricPattern("switch.*.q*.depth",
                                          "switch.tor.0.1.q3.depth"));
    EXPECT_FALSE(obs::matchesMetricPattern("ltl.*.rtt_us", "ltl.rtt_us"));
    EXPECT_FALSE(obs::matchesMetricPattern("fault.node*.down",
                                           "fault.node3.downtime_us"));
    EXPECT_FALSE(obs::matchesMetricPattern("a.b", "a.bc"));
    EXPECT_TRUE(obs::matchesMetricPattern("a.b", "a.b"));
}

}  // namespace
