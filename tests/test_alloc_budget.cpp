/**
 * @file
 * Heap budgets. Idle fabric: an idle cable must cost little more than
 * its one allocation (the link with both channels and both PFC shims)
 * and its names, because an empty queue owns no heap (sim::Fifo
 * allocates on its first push), and an idle shell owns no LTL
 * connection slot, because the tables grow by open. Busy fabric: once warm,
 * moving a packet through a switch allocates nothing, because every
 * per-hop closure fits sim::EventFn's inline buffer. Metrics registry:
 * a switch probe costs its interned path, a dense-id record and its
 * callback, not a map node and a string per path. Outlier detector:
 * once its latency windows are full, a success and the percentile
 * evaluation it triggers allocate nothing. Ranking server: once warm, a
 * query allocates nothing, in software mode or through an accelerator
 * with deadlines and hedging, because it lives in a per-core slot and
 * every closure it schedules fits inline. Remote DNN request: once warm,
 * a request that crosses PCIe, two Elastic Routers, LTL and the network
 * to a DNN role and back allocates nothing, because its message records
 * come from sim::PoolAllocator and its flits are counts, not objects.
 * Sharded kernel: once warm, a barrier window whose partitions post
 * cross messages allocates nothing, because the outboxes and the flush's
 * merge scratch keep their capacity. Time-series hub: its live heap
 * stops growing once every series has rolled, because a series keeps
 * only what it rolls from and its newest point.
 *
 * This binary replaces the global `operator new` with a byte and call
 * counter, plus a live-byte count kept in a size header in front of
 * every block, and measures the heap a construction or a run takes. It
 * is an executable of its own so that the replacement never runs under
 * the other suites.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <numeric>

#include <vector>

#include "core/cloud.hpp"
#include "fpga/shell.hpp"
#include "host/ranking_server.hpp"
#include "net/channel.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "roles/dnn_role.hpp"
#include "roles/ranking/ranking_role.hpp"
#include "serving/outlier.hpp"
#include "serving/request_policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_queue.hpp"

namespace {

std::size_t heapBytes = 0;
std::size_t heapCalls = 0;
std::size_t liveBytes = 0;

/** Every block starts with its size, so delete can debit liveBytes. */
constexpr std::size_t kHeader = alignof(std::max_align_t);

}  // namespace

// Not inlined: inlined into a caller, the header arithmetic reads as an
// out-of-bounds access of the object the caller allocated.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    heapBytes += size;
    ++heapCalls;
    liveBytes += size;
    if (void *p = std::malloc(size + kHeader)) {
        *static_cast<std::size_t *>(p) = size;
        return static_cast<char *>(p) + kHeader;
    }
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    if (p == nullptr)
        return;
    void *block = static_cast<char *>(p) - kHeader;
    liveBytes -= *static_cast<std::size_t *>(block);
    std::free(block);
}

void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

namespace {

using namespace ccsim;

/** Budget for one idle cable: the Link (channels inside) and names. */
constexpr std::size_t kIdleLinkBudget = 440;
/**
 * Budget per trunk for a whole lazy fabric: its idle trunks plus the
 * switches, routes and host stubs they connect, amortized.
 */
constexpr std::size_t kLazyFabricPerTrunkBudget = 4096;

template <typename Build>
std::size_t
heapOf(Build &&build)
{
    const std::size_t before = heapBytes;
    build();
    return heapBytes - before;
}

TEST(AllocBudget, IdleTrunkLinkStaysUnderBudget)
{
    sim::EventQueue eq;
    std::unique_ptr<net::Link> link;
    const std::size_t bytes = heapOf([&] {
        link = std::make_unique<net::Link>(eq, "l1.123.1-l2.3", 40.0,
                                           300.0);
    });
    EXPECT_LE(bytes, kIdleLinkBudget) << "heap bytes for one idle link";
}

/**
 * Budget for one idle shell: its Elastic Router, LTL engine, packet
 * switch and router endpoints, but no LTL connection slot.
 */
constexpr std::size_t kIdleShellBudget = 6500;

TEST(AllocBudget, IdleShellStaysUnderBudget)
{
    // A fresh queue each time, so both shells pay for the same wheel
    // cells and pool records.
    auto shellHeap = [](std::uint16_t max_connections) {
        sim::EventQueue eq;
        fpga::ShellConfig cfg;
        cfg.ip = {10};
        cfg.ltl.maxConnections = max_connections;
        std::unique_ptr<fpga::Shell> shell;
        return heapOf(
            [&] { shell = std::make_unique<fpga::Shell>(eq, cfg); });
    };
    const std::size_t bytes = shellHeap(64);
    // Connection slots are allocated by the opens that need them: until
    // one opens, the cap costs no heap.
    EXPECT_EQ(bytes, shellHeap(1)) << "heap bytes, 64 vs 1 connection cap";
    EXPECT_LE(bytes, kIdleShellBudget) << "heap bytes for one idle shell";
}

TEST(AllocBudget, LazyTopologyTrunksStayUnderBudget)
{
    sim::EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 24;
    cfg.racksPerPod = 4;
    cfg.l1PerPod = 2;
    cfg.pods = 2;
    cfg.l2Count = 2;
    cfg.lazyHosts = true;
    std::unique_ptr<net::Topology> topo;
    const std::size_t bytes = heapOf([&] {
        topo = std::make_unique<net::Topology>(eq, cfg);
    });
    ASSERT_GT(topo->numTrunkLinks(), 0);
    ASSERT_EQ(topo->materializedHosts(), 0);
    EXPECT_LE(bytes / topo->numTrunkLinks(), kLazyFabricPerTrunkBudget)
        << bytes << " heap bytes for " << topo->numTrunkLinks()
        << " trunks";
}

/**
 * Budget per registered switch path: the interned path, its 16 B id
 * record and index slot, the probe callback, and the switch's trace
 * track, amortized.
 */
constexpr std::size_t kSwitchPathBudget = 128;

TEST(AllocBudget, SwitchProbesStayUnderBudget)
{
    sim::EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 24;
    cfg.racksPerPod = 4;
    cfg.l1PerPod = 2;
    cfg.pods = 2;
    cfg.l2Count = 2;
    cfg.lazyHosts = true;
    net::Topology topo(eq, cfg);
    obs::Observability hub;
    std::vector<obs::Observability *> hubs(
        static_cast<std::size_t>(cfg.pods + 1), &hub);
    const std::size_t before = liveBytes;
    topo.attachObservability(hubs);
    const std::size_t bytes = liveBytes - before;
    const std::size_t paths = hub.registry.paths().size();
    ASSERT_GT(paths, 0u);
    EXPECT_LE(bytes / paths, kSwitchPathBudget)
        << bytes << " live heap bytes for " << paths << " switch paths";
}

TEST(AllocBudget, TimeSeriesHubHeapStaysFlatAcrossWindows)
{
    obs::MetricsRegistry reg;
    sim::Counter &ops = reg.counter("svc.node0.ops");
    obs::Gauge &depth = reg.gauge("svc.node0.depth");
    double live = 0.0;
    reg.registerProbe("svc.node0.live", [&live] { return live; });
    sim::LogHistogram &lat = reg.histogram("svc.node0.lat");
    obs::TimeSeriesHub hub(obs::TimeSeriesConfig{.window = sim::kMillisecond});
    hub.watchRegistry(&reg);
    hub.defineAggregate("fleet.lat", "svc.*.lat");

    // Every window records the same samples, so the cumulative
    // histogram's bin vector keeps the length the first window gave it.
    int w = 0;
    auto roll = [&](int windows) {
        for (int i = 0; i < windows; ++i, ++w) {
            ops.inc(3);
            depth.set(w * sim::kMillisecond, w % 7);
            live = w;
            for (double v : {1.0, 40.0, 900.0})
                lat.add(v);
            hub.rollAt((w + 1) * sim::kMillisecond);
        }
    };
    roll(64);
    ASSERT_EQ(hub.seriesCount(), 5u);
    ASSERT_NE(hub.latest("fleet.lat"), nullptr);
    const std::size_t warm = liveBytes;
    roll(2000);
    EXPECT_EQ(liveBytes, warm)
        << "live heap bytes after 2,064 windows vs after 64";
    EXPECT_EQ(hub.latest("fleet.lat")->count, 3u);
}

TEST(MetricsRegistry, EmptyRegistryAllocatesNothing)
{
    // Every shard of a sharded cloud owns a hub; most registries of a
    // 261-partition fabric stay small, and an unused one costs no heap.
    const std::size_t calls = heapCalls;
    {
        obs::MetricsRegistry reg;
        const bool found = reg.findCounter("a.b") != nullptr ||
                           reg.findGauge("a.b") != nullptr ||
                           reg.findHistogram("a.b") != nullptr ||
                           reg.hasProbe("a.b");
        const bool listed = !reg.paths().empty() ||
                            !reg.children("").empty() || reg.size() != 0;
        EXPECT_FALSE(found || listed);
    }
    EXPECT_EQ(heapCalls - calls, 0u)
        << "operator new calls by an empty registry";
}

/** Counts deliveries and keeps nothing. */
class CountingSink : public net::PacketSink
{
  public:
    void acceptPacket(const net::PacketPtr &) override { ++received; }
    std::size_t received = 0;
};

TEST(AllocBudget, WarmLosslessSwitchHopsAllocateNothing)
{
    sim::EventQueue eq;
    net::SwitchConfig cfg;
    cfg.forwardingLatency = 450 * sim::kNanosecond;
    net::Switch tor(eq, cfg);
    // host 10 -> TOR -> host 11; hosts at end A, the TOR at end B.
    net::Link up(eq, "h10-tor", 40.0, 2.0), down(eq, "tor-h11", 40.0, 2.0);
    CountingSink h10, h11;
    up.attachA(&h10);
    down.attachA(&h11);
    const int p10 = tor.addPort(&up.bToA());
    const int p11 = tor.addPort(&down.bToA());
    up.attachB(tor.portSink(p10));
    down.attachB(tor.portSink(p11));
    tor.addHostRoute({10}, p10);
    tor.addHostRoute({11}, p11);

    constexpr int kPackets = 64;
    // Every burst starts at the same phase of the timing wheel's top
    // level, so a warm burst reuses the wheel cells the warm-up grew.
    constexpr int kPhaseBits = 60;
    auto burst = [&] {
        eq.runUntil(((eq.now() >> kPhaseBits) + 1) << kPhaseBits);
        // The packets are built before the count starts: the budget
        // covers only what moving them costs.
        std::vector<net::PacketPtr> pkts;
        for (int i = 0; i < kPackets; ++i) {
            auto pkt = net::makePacket();
            pkt->ipSrc = {10};
            pkt->ipDst = {11};
            pkt->payloadBytes = 1000;
            pkt->priority = net::kTcLossless;
            pkts.push_back(std::move(pkt));
        }
        const std::size_t before = heapCalls;
        for (const net::PacketPtr &pkt : pkts)
            up.aToB().send(pkt);
        pkts.clear();
        eq.runAll();
        return heapCalls - before;
    };
    burst();  // warm-up: queue rings and wheel cells reach their size
    burst();
    const std::size_t calls = burst();
    EXPECT_EQ(calls, 0u) << "operator new calls for " << kPackets
                         << " lossless packets host -> TOR -> host";
    EXPECT_EQ(h11.received, 3u * kPackets);
    EXPECT_EQ(tor.pfcFramesSent(), 0u);
}

TEST(AllocBudget, WarmOutlierEvaluationAllocatesNothing)
{
    sim::EventQueue eq;
    serving::EjectionConfig cfg;  // p50 over 128-sample windows
    serving::OutlierDetector det(eq, cfg);
    constexpr int kHosts = 4;
    det.trackHosts({0, 1, 2, 3});
    // Similar latencies on every host: evaluations run, nothing ejects.
    auto latency = [](int i) {
        return static_cast<sim::TimePs>(1 + (i * 7919) % 97) *
               sim::kMicrosecond;
    };
    for (int i = 0; i < kHosts * cfg.latencyWindow; ++i)
        det.recordSuccess(i % kHosts, latency(i));

    const std::size_t before = heapCalls;
    // 2,500 successes per host: ~156 latency evaluations each.
    for (int i = 0; i < 10000; ++i)
        det.recordSuccess(i % kHosts, latency(i + 1));
    EXPECT_EQ(heapCalls - before, 0u)
        << "operator new calls for 10k warm recordSuccess calls";
    EXPECT_EQ(det.ejections(), 0u);
}

TEST(AllocBudget, WarmRankingQueriesAllocateNothing)
{
    // Constant service times: every wave replays the same schedule, so
    // once warm the timing wheel's cells have the size a wave needs and
    // every call counted is the servers' own.
    host::RankingServiceParams params;
    params.cpuCv = 0.0;
    params.swFeatureCv = 0.0;
    params.docsPerQueryCv = 0.0;
    sim::EventQueue eq;
    host::LocalFpgaAccelerator fpga(eq), replica(eq);
    host::RankingServer software(eq, params, nullptr, 1);
    host::RankingServer accelerated(eq, params, &fpga, 2);
    // The FPGA serves a burst of three back to back, 120, 180 and 240 us
    // after it arrives, so every query misses its first deadline (a
    // retry), is hedged to the replica, and leaves late losers behind.
    accelerated.setRetryPolicy({.accelDeadline = 100 * sim::kMicrosecond,
                                .maxAttempts = 3,
                                .backoffBase = 50 * sim::kMicrosecond,
                                .backoffJitter = 0.0,
                                .hedge = true,
                                .hedgeDelay = 110 * sim::kMicrosecond});
    accelerated.setReplicaPicker(
        [&]() -> host::FeatureAccelerator * { return &replica; });

    // Bursts of three queries to each server every 1.5 ms: the software
    // server runs at 60% load.
    constexpr int kBursts = 64;
    constexpr int kBurst = 3;
    constexpr sim::TimePs kGap = 1500 * sim::kMicrosecond;
    // Every wave starts at the same phase of the timing wheel's top
    // level, so a warm wave reuses the wheel cells the warm-up grew.
    constexpr int kPhaseBits = 60;
    std::size_t completions = 0;
    auto wave = [&] {
        const sim::TimePs start = ((eq.now() >> kPhaseBits) + 1)
                                  << kPhaseBits;
        eq.runUntil(start);
        // Latency samples reuse the capacity the warm-up grew.
        software.clearStats();
        accelerated.clearStats();
        const std::size_t before = heapCalls;
        for (int i = 0; i < kBursts; ++i) {
            eq.runUntil(start + i * kGap);
            for (int j = 0; j < kBurst; ++j) {
                software.submitQuery([&](sim::TimePs) { ++completions; });
                accelerated.submitQuery(
                    [&](sim::TimePs) { ++completions; });
            }
        }
        eq.runAll();
        return heapCalls - before;
    };
    wave();  // warm-up: rings, sample buffers and wheel cells grow
    wave();
    const std::uint64_t hedges = accelerated.hedgesIssued();
    const std::uint64_t retries = accelerated.retriesIssued();
    const std::size_t calls = wave();
    EXPECT_EQ(calls, 0u) << "operator new calls for " << kBursts * kBurst
                         << " software and " << kBursts * kBurst
                         << " accelerated queries";
    EXPECT_EQ(completions, 3u * 2 * kBursts * kBurst);
    EXPECT_EQ(accelerated.hedgesIssued() - hedges, 1u * kBursts * kBurst);
    EXPECT_EQ(accelerated.retriesIssued() - retries, 1u * kBursts * kBurst);
}

TEST(AllocBudget, WarmRemoteDnnRequestAllocatesNothing)
{
    // Two hosts under one TOR: a forwarder role on host 0 ships each
    // request over LTL to a DNN role on host 1, whose reply comes back
    // over LTL, through the forwarder and PCIe, to the host RX handler.
    core::CloudConfig cfg;
    cfg.topology.hostsPerRack = 2;
    cfg.topology.racksPerPod = 1;
    cfg.topology.l1PerPod = 1;
    cfg.topology.pods = 1;
    cfg.topology.l2Count = 1;
    // Constant latencies: every wave replays the same schedule.
    cfg.topology.torParams.jitterMean = 0;
    cfg.topology.l1Params.jitterMean = 0;
    cfg.topology.l2Params.jitterMean = 0;
    sim::EventQueue eq;
    core::ConfigurableCloud cloud(eq, cfg);
    roles::DnnRoleParams params;
    params.serviceTime = 5 * sim::kMicrosecond;
    roles::DnnRole dnn(eq, params);
    roles::ForwarderRole forwarder;
    const int dnn_port = cloud.shell(1).addRole(&dnn);
    ASSERT_GE(dnn_port, 0);
    ASSERT_GE(cloud.shell(0).addRole(&forwarder), 0);
    const core::LtlChannel requests = cloud.openLtl(0, 1, dnn_port);
    const core::LtlChannel replies = cloud.openLtl(1, 0, forwarder.port());
    std::size_t answered = 0;
    cloud.shell(0).setHostRxHandler(
        forwarder.port(),
        [&](int, const router::ErMessagePtr &) { ++answered; });

    // One payload for every request: each send copies the pointer.
    auto req = std::make_shared<roles::DnnRequest>();
    req->replyConn = replies.sendConn();
    auto fwd = std::make_shared<roles::ForwarderRole::ForwardRequest>();
    fwd->sendConn = requests.sendConn();
    fwd->bytes = 512;
    fwd->inner = req;
    const std::shared_ptr<void> payload = fwd;

    // Bursts of two requests every 20 us: the DNN role queues the second.
    constexpr int kBursts = 32;
    constexpr sim::TimePs kGap = 20 * sim::kMicrosecond;
    // Every wave starts at the same phase of the wheel's lowest four
    // levels (a wave spans under 2^36 ps) and of the router clock, with
    // the wheel anchored there by an event at the start, so a warm wave
    // reuses the wheel cells the warm-up grew.
    const sim::TimePs phase = std::lcm(
        sim::TimePs{1} << 36, sim::cyclePeriod(router::ErConfig{}.clockMhz));
    auto wave = [&] {
        const sim::TimePs start = (eq.now() / phase + 1) * phase;
        eq.schedule(start, [] {});
        eq.runUntil(start);
        const std::size_t before = heapCalls;
        for (int i = 0; i < kBursts; ++i) {
            eq.runUntil(start + i * kGap);
            for (int j = 0; j < 2; ++j)
                cloud.shell(0).sendFromHost(forwarder.port(), fwd->bytes,
                                            payload);
        }
        eq.runUntil(start + (kBursts + 50) * kGap);
        return heapCalls - before;
    };
    // Warm-up: queues, pools and wheel cells grow.
    wave();
    wave();
    const std::size_t answeredBefore = answered;
    const std::size_t calls = wave();
    EXPECT_EQ(calls, 0u) << "operator new calls for " << 2 * kBursts
                         << " remote DNN requests";
    EXPECT_EQ(answered - answeredBefore, 2u * kBursts);
    EXPECT_EQ(dnn.requestsServed(), answered);
}

TEST(AllocBudget, WarmShardedWindowsAllocateNothing)
{
    // Three partitions on a ring of 1.5 us edges, one worker thread. Each
    // wave drops a ball on every partition; a ball hops to the next
    // partition until its hops run out, so every window of the wave
    // flushes cross messages at its barrier.
    constexpr int kParts = 3;
    constexpr sim::TimePs kLatency = 1500;
    constexpr int kHops = 200;
    sim::ShardedEventQueue::Config qc;
    qc.partitions = kParts;
    sim::ShardedEventQueue sq(qc);
    for (int p = 0; p < kParts; ++p)
        sq.registerCrossEdge(p, (p + 1) % kParts, kLatency);
    std::function<void(int, int)> hop = [&](int p, int hops) {
        if (hops == 0)
            return;
        const int to = (p + 1) % kParts;
        sq.postCross(p, to, sq.partition(p).now() + kLatency,
                     [&hop, to, hops] { hop(to, hops - 1); });
    };

    // Every wave starts at the same phase of the wheels' lowest four
    // levels, with each wheel anchored there by an event at the start,
    // so a warm wave reuses the wheel cells the warm-up grew.
    constexpr sim::TimePs kPhase = sim::TimePs{1} << 36;
    auto wave = [&] {
        const sim::TimePs start = (sq.now() / kPhase + 1) * kPhase;
        for (int p = 0; p < kParts; ++p)
            sq.partition(p).schedule(start, [] {});
        sq.runUntil(start);
        const std::size_t before = heapCalls;
        for (int p = 0; p < kParts; ++p)
            sq.partition(p).schedule(start + 1 + p,
                                     [&hop, p] { hop(p, kHops); });
        sq.runUntil(start + (kHops + 2) * kLatency);
        return heapCalls - before;
    };
    // Warm-up: outboxes, flush scratch, pools and wheel cells grow.
    wave();
    wave();
    const std::uint64_t crossBefore = sq.crossMessages();
    const std::uint64_t windowsBefore = sq.windowsRun();
    const std::size_t calls = wave();
    EXPECT_EQ(calls, 0u) << "operator new calls for " << kParts * kHops
                         << " cross messages";
    EXPECT_EQ(sq.crossMessages() - crossBefore,
              static_cast<std::uint64_t>(kParts * kHops));
    EXPECT_GE(sq.windowsRun() - windowsBefore,
              static_cast<std::uint64_t>(kHops));
}

}  // namespace
