/**
 * @file
 * google-benchmark micro-benchmarks for the hot code paths: the
 * discrete-event kernel, the crypto datapath the crypto role executes,
 * the ranking feature engines, flit routing through the ER, and the two
 * fabric-wide lookups of the L2 campaign (HaaS pod leases and fluid
 * re-rating).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "crypto/aes.hpp"
#include "crypto/sha1.hpp"
#include "haas/haas.hpp"
#include "host/workload.hpp"
#include "net/fluid.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "roles/ranking/features.hpp"
#include "router/elastic_router.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

using namespace ccsim;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    sim::EventQueue eq;
    std::int64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleAfter(i, [&sink] { ++sink; });
        eq.runAll();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueCancelChurn(benchmark::State &state)
{
    // Timer-heavy workloads (LTL retransmit timers, DCQCN rate timers)
    // schedule and then cancel most of what they schedule.
    sim::EventQueue eq;
    std::int64_t sink = 0;
    std::vector<sim::EventId> ids(1000);
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            ids[i] = eq.scheduleAfter(i + 1, [&sink] { ++sink; });
        for (int i = 0; i < 1000; i += 2)
            eq.cancel(ids[i]);
        eq.runAll();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelChurn);

void
BM_EventQueueBimodal(benchmark::State &state)
{
    // ccsim's real delay mix: sub-ns flit/link hops interleaved with
    // 50 µs LTL retransmit timers, which land in wheel levels 0 and 2.
    sim::EventQueue eq;
    std::int64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            const sim::TimePs delay =
                (i % 10 == 9) ? sim::fromNanos(50000) : 100 + i;
            eq.scheduleAfter(delay, [&sink] { ++sink; });
        }
        eq.runAll();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueBimodal);

/**
 * The sparse shape of rank_fig08 and serving_overload: 16 live timers,
 * each re-arming itself after an exponential delay of 0.1-5 ms. Every
 * event is a jump in simulated time of the kind the wheel would have to
 * locate and bring down from an upper level, where the dense benchmarks
 * above drain level 0 slot after slot; the 16 fit in the head list, so
 * none is parked.
 */
struct SparseTimers {
    static constexpr int kTimers = 16;
    static constexpr std::size_t kDelays = 4096;  // a power of two

    sim::EventQueue eq;
    std::vector<sim::TimePs> delays;
    std::size_t next = 0;
    std::int64_t fired = 0;

    SparseTimers() : delays(kDelays)
    {
        sim::Rng rng(20161015);
        for (sim::TimePs &d : delays)
            d = sim::fromMillis(std::clamp(rng.exponential(1.0), 0.1, 5.0));
        for (int t = 0; t < kTimers; ++t)
            arm();
    }

    void arm()
    {
        eq.scheduleAfter(delays[next++ & (kDelays - 1)], [this] {
            ++fired;
            arm();
        });
    }
};

void
BM_EventQueueSparseTimers(benchmark::State &state)
{
    SparseTimers rig;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            rig.eq.step();
    }
    benchmark::DoNotOptimize(rig.fired);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueSparseTimers);

/**
 * The chained shape of remote_pool: one event that re-schedules itself
 * 2.56 ns out, over 16 timers that re-arm every 50 µs (LTL retransmit
 * timers). A link is the earliest event from the moment it is scheduled,
 * so it runs from the head list without touching the wheel; with the
 * link, the timers overfill the list, so the latest of them are parked.
 */
struct ChainOverTimers {
    static constexpr int kTimers = 16;
    static constexpr sim::TimePs kLink = 2560;

    sim::EventQueue eq;
    std::int64_t links = 0;

    ChainOverTimers()
    {
        for (int t = 0; t < kTimers; ++t)
            arm(sim::fromMicros(10.0 + 2.5 * t));
        link();
    }

    void arm(sim::TimePs delay)
    {
        eq.scheduleAfter(delay, [this] { arm(sim::fromMicros(50.0)); });
    }

    void link()
    {
        eq.scheduleAfter(kLink, [this] {
            ++links;
            link();
        });
    }
};

void
BM_EventQueueChain(benchmark::State &state)
{
    ChainOverTimers rig;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            rig.eq.step();
    }
    benchmark::DoNotOptimize(rig.links);
    state.SetItemsProcessed(state.iterations() * 1000);
    state.counters["bypass_ratio"] =
        static_cast<double>(rig.eq.eventsBypassed()) /
        static_cast<double>(rig.eq.eventsExecuted());
}
BENCHMARK(BM_EventQueueChain);

/**
 * The sharded kernel's per-window cost when almost nothing happens: 261
 * partitions (the L2 campaign's 260 pods + spine) on 2 threads, with
 * `pairs` partition pairs spread over them, each bouncing balls over a
 * registered edge. A ball's visit runs `burst` local events 10 ps apart
 * and then sends it on, so every window holds a few events on a few
 * partitions and the rest is barrier overhead. One ball leaves one busy
 * partition per window; two on one pair keep both busy with two events;
 * one on each of six pairs, four events a visit, is the Figure 7 chaos
 * drill's window shape (6.5 busy partitions and ~27 events a window).
 * The kernel runs all three inline; sixteen events a visit is enough
 * work for a claimed handoff per window.
 */
struct SparseBarrierRig {
    static constexpr int kPartitions = 261;
    static constexpr sim::TimePs kLatency = 1500;  // the L1<->L2 trunk
    static constexpr int kPairStride = 42;  // even, so p ^ 1 is p's partner

    sim::ShardedEventQueue sq;
    int burst;

    static sim::ShardedEventQueue::Config config()
    {
        sim::ShardedEventQueue::Config qc;
        qc.partitions = kPartitions;
        qc.threads = 2;
        return qc;
    }

    SparseBarrierRig(int pairs, int ballsPerPair, int eventsPerVisit)
        : sq(config()), burst(eventsPerVisit)
    {
        for (int i = 0; i < pairs; ++i) {
            const int a = i * kPairStride;
            sq.registerCrossEdge(a, a + 1, kLatency);
            sq.registerCrossEdge(a + 1, a, kLatency);
            for (int b = 0; b < ballsPerPair; ++b)
                sq.partition(a + b).schedule(
                    1, [this, p = a + b] { visit(p, burst); });
        }
    }

    void visit(int p, int left)
    {
        if (left > 1) {
            sq.partition(p).scheduleAfter(
                10, [this, p, left] { visit(p, left - 1); });
            return;
        }
        const int to = p ^ 1;
        sq.postCross(p, to, sq.partition(p).now() + kLatency,
                     [this, to] { visit(to, burst); });
    }

    /** Run @p windows barrier windows; returns the windows actually run. */
    std::uint64_t run(int windows)
    {
        const std::uint64_t before = sq.windowsRun();
        sq.runFor(static_cast<sim::TimePs>(windows) * kLatency);
        return sq.windowsRun() - before;
    }
};

/**
 * The chaos drill's window shape: six busy pairs, four events a visit
 * (~24 events a window, which the kernel runs inline). Sixteen events a
 * visit (~96 a window) is enough work for it to hand partitions off.
 */
constexpr int kDrillPairs = 6;
constexpr int kDrillBurst = 4;
constexpr int kClaimedBurst = 16;

void
sparseBarrierLoop(benchmark::State &state, SparseBarrierRig &rig)
{
    std::uint64_t windows = 0;
    for (auto _ : state)
        windows += rig.run(100);
    benchmark::DoNotOptimize(windows);
    state.SetItemsProcessed(static_cast<std::int64_t>(windows));
    state.counters["ns_per_window"] = benchmark::Counter(
        static_cast<double>(windows),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_ShardedSparseBarrier(benchmark::State &state)
{
    SparseBarrierRig rig(1, static_cast<int>(state.range(0)), 1);
    sparseBarrierLoop(state, rig);
}
BENCHMARK(BM_ShardedSparseBarrier)->Arg(1)->Arg(2);

/**
 * Wall time, not CPU time: a handoff window's cost is mostly the
 * coordinator waiting for the partitions other threads run.
 */
void
BM_ShardedDrillBarrier(benchmark::State &state)
{
    SparseBarrierRig rig(kDrillPairs, 1, static_cast<int>(state.range(0)));
    sparseBarrierLoop(state, rig);
}
BENCHMARK(BM_ShardedDrillBarrier)
    ->Arg(kDrillBurst)
    ->Arg(kClaimedBurst)
    ->UseRealTime();

void
BM_PacketPoolMakePacket(benchmark::State &state)
{
    // Steady-state packet churn: every created packet is dropped before
    // the next, so the pool serves each request from its freelist.
    for (auto _ : state) {
        auto pkt = net::makePacket();
        benchmark::DoNotOptimize(pkt);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketPoolMakePacket);

void
BM_Rng(benchmark::State &state)
{
    sim::Rng rng(1);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc ^= rng.next();
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Rng);

void
BM_AesEncryptBlock(benchmark::State &state)
{
    crypto::Key128 key{};
    crypto::Aes128 aes(key);
    crypto::Block block{};
    for (auto _ : state) {
        aes.encryptBlock(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

void
BM_AesCbc1500B(benchmark::State &state)
{
    crypto::Key128 key{};
    crypto::Block iv{};
    crypto::AesCbc cbc(key, iv);
    std::vector<std::uint8_t> buf(1504, 0xAB);
    for (auto _ : state) {
        cbc.encrypt(buf.data(), buf.size());
        benchmark::DoNotOptimize(buf);
    }
    state.SetBytesProcessed(state.iterations() * 1504);
}
BENCHMARK(BM_AesCbc1500B);

void
BM_AesGcm1500B(benchmark::State &state)
{
    crypto::Key128 key{};
    crypto::AesGcm gcm(key);
    std::vector<std::uint8_t> buf(1500, 0xAB);
    std::uint8_t iv[12] = {};
    crypto::Block tag;
    for (auto _ : state) {
        gcm.encrypt(iv, nullptr, 0, buf.data(), buf.size(), tag);
        benchmark::DoNotOptimize(tag);
    }
    state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_AesGcm1500B);

void
BM_Sha1_1500B(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(1500, 0xAB);
    for (auto _ : state) {
        auto digest = crypto::Sha1::hash(buf.data(), buf.size());
        benchmark::DoNotOptimize(digest);
    }
    state.SetBytesProcessed(state.iterations() * 1500);
}
BENCHMARK(BM_Sha1_1500B);

void
BM_FfuRun(benchmark::State &state)
{
    host::CorpusGenerator corpus(20000, 1.0, 5);
    const auto query = corpus.makeQuery(4);
    const auto doc = corpus.makeCandidateDocument(query, 500);
    const auto prog = roles::FfuProgram::compile(query);
    roles::FeatureVector f{};
    for (auto _ : state) {
        prog.run(doc, f);
        benchmark::DoNotOptimize(f);
    }
    state.SetItemsProcessed(state.iterations() * doc.terms.size());
}
BENCHMARK(BM_FfuRun);

void
BM_DpfRun(benchmark::State &state)
{
    host::CorpusGenerator corpus(20000, 1.0, 5);
    const auto query = corpus.makeQuery(4);
    const auto doc = corpus.makeCandidateDocument(query, 500);
    const roles::DpfEngine dpf(query);
    roles::FeatureVector f{};
    for (auto _ : state) {
        dpf.run(doc, f);
        benchmark::DoNotOptimize(f);
    }
    state.SetItemsProcessed(state.iterations() * doc.terms.size());
}
BENCHMARK(BM_DpfRun);

void
BM_ErMessageRouting(benchmark::State &state)
{
    sim::EventQueue eq;
    router::ErConfig cfg;
    router::ElasticRouter er(eq, cfg);
    std::vector<std::unique_ptr<router::ErEndpoint>> eps;
    for (int p = 0; p < cfg.numPorts; ++p) {
        eps.push_back(std::make_unique<router::ErEndpoint>(eq, er, p, p));
        er.setOutputSink(p, eps.back().get());
    }
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eps[i % 4]->sendMessage((i + 1) % 4, i % 2, 256);
        eq.runAll();
    }
    state.SetItemsProcessed(state.iterations() * 64);
    state.counters["ns_per_flit"] = benchmark::Counter(
        static_cast<double>(er.flitsRouted()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ErMessageRouting);

/**
 * The production shell's crossbar: 11 ports (PCIe, DRAM, LTL and 8 role
 * slots) and 2 VCs, with every port sending 16-flit messages to the
 * others at once, so most outputs have competing inputs every cycle.
 */
struct ErShellRig {
    static constexpr int kPorts = 11;
    static constexpr int kMessagesPerPort = 8;
    static constexpr std::uint32_t kMessageBytes = 16 * 32;  // 16 flits

    sim::EventQueue eq;
    router::ElasticRouter er;
    std::vector<std::unique_ptr<router::ErEndpoint>> eps;

    static router::ErConfig config()
    {
        router::ErConfig cfg;
        cfg.numPorts = kPorts;
        cfg.numVcs = 2;
        return cfg;
    }

    ErShellRig() : er(eq, config())
    {
        for (int p = 0; p < kPorts; ++p) {
            eps.push_back(std::make_unique<router::ErEndpoint>(eq, er, p, p));
            er.setOutputSink(p, eps.back().get());
        }
    }

    /** Send one round of messages and drain it; returns flits routed. */
    std::uint64_t round()
    {
        const std::uint64_t before = er.flitsRouted();
        for (int i = 0; i < kMessagesPerPort; ++i) {
            for (int p = 0; p < kPorts; ++p)
                eps[p]->sendMessage((p + 1 + i) % kPorts, i % 2,
                                    kMessageBytes);
        }
        eq.runAll();
        return er.flitsRouted() - before;
    }
};

void
BM_ErShellCrossbar(benchmark::State &state)
{
    ErShellRig rig;
    std::uint64_t flits = 0;
    for (auto _ : state)
        flits += rig.round();
    state.SetItemsProcessed(static_cast<std::int64_t>(flits));
    state.counters["ns_per_flit"] = benchmark::Counter(
        static_cast<double>(flits),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ErShellCrossbar);

/**
 * One 64-flit message at a time through the default 4-port router: the
 * router holds a single candidate, so each message crosses as a train
 * apart from the cycles its injector spends waiting for credits.
 */
struct ErTrainRig {
    static constexpr int kMessages = 64;
    static constexpr std::uint32_t kMessageBytes = 64 * 32;  // 64 flits

    sim::EventQueue eq;
    router::ElasticRouter er;
    std::vector<std::unique_ptr<router::ErEndpoint>> eps;

    ErTrainRig() : er(eq, router::ErConfig{})
    {
        for (int p = 0; p < er.config().numPorts; ++p) {
            eps.push_back(std::make_unique<router::ErEndpoint>(eq, er, p, p));
            er.setOutputSink(p, eps.back().get());
        }
    }

    /** Send and drain one message after another; returns flits routed. */
    std::uint64_t round()
    {
        const std::uint64_t before = er.flitsRouted();
        const int ports = er.config().numPorts;
        for (int i = 0; i < kMessages; ++i) {
            eps[i % ports]->sendMessage((i + 1) % ports, i % 2,
                                        kMessageBytes);
            eq.runAll();
        }
        return er.flitsRouted() - before;
    }
};

void
BM_ErLongTrain(benchmark::State &state)
{
    ErTrainRig rig;
    std::uint64_t flits = 0;
    for (auto _ : state)
        flits += rig.round();
    state.SetItemsProcessed(static_cast<std::int64_t>(flits));
    state.counters["ns_per_flit"] = benchmark::Counter(
        static_cast<double>(flits),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ErLongTrain);

/** The paper's L2 fabric shape: 24 x 40 x 260 = 249,600 hosts. */
constexpr int kL2Pods = 260;
constexpr int kL2RacksPerPod = 40;
constexpr int kL2HostsPerRack = 24;

void
BM_LeaseAcquirePod(benchmark::State &state)
{
    // A pool of stub nodes (no FpgaManager, as in a lazy cloud); each
    // iteration leases 8 hosts inside one pod and hands them back.
    sim::EventQueue eq;
    haas::ResourceManager rm(eq);
    constexpr int kHostsPerPod = kL2RacksPerPod * kL2HostsPerRack;
    for (int host = 0; host < kL2Pods * kHostsPerPod; ++host) {
        const int pod = host / kHostsPerPod;
        const int rack = host % kHostsPerPod / kL2HostsPerRack;
        rm.registerNode(host, nullptr, pod, pod * kL2RacksPerPod + rack);
    }
    int pod = 0;
    for (auto _ : state) {
        haas::LeaseConstraints c;
        const auto lease = rm.acquire("svc", 8, c.withPod(pod));
        if (!lease) {
            state.SkipWithError("pod exhausted");
            break;
        }
        rm.release(lease->id);
        pod = (pod + 1) % kL2Pods;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeaseAcquirePod);

void
BM_FluidReRate(benchmark::State &state)
{
    // 20k background flows over the lazy L2 fabric, all re-rated once
    // per iteration after a 5 ms window (so every re-rate also folds).
    sim::EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = kL2HostsPerRack;
    cfg.racksPerPod = kL2RacksPerPod;
    cfg.l1PerPod = 2;
    cfg.pods = kL2Pods;
    cfg.l2Count = 4;
    cfg.lazyHosts = true;
    net::Topology topo(eq, cfg);
    net::FluidTrafficModel fluid(eq, topo);
    constexpr int kFlows = 20000;
    constexpr std::uint64_t kBps = 400ull * 1000 * 1000;
    sim::Rng rng(11);
    const auto hosts = static_cast<std::uint64_t>(topo.numHosts());
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kFlows; ++i) {
        const int src = static_cast<int>(rng.uniformInt(hosts));
        int dst = static_cast<int>(rng.uniformInt(hosts - 1));
        if (dst >= src)
            ++dst;
        ids.push_back(fluid.addFlow(src, dst, kBps));
    }
    std::uint64_t window = 0;
    for (auto _ : state) {
        eq.runFor(5 * sim::kMillisecond);
        ++window;
        for (const std::uint64_t id : ids)
            fluid.setRate(id,
                          kBps / 2 + (id + window) % 1000 * kBps / 1000);
    }
    state.SetItemsProcessed(state.iterations() * kFlows);
}
BENCHMARK(BM_FluidReRate)->Unit(benchmark::kMillisecond);

/**
 * Directly timed kernel measurements for the benchmark trajectory.
 * These deliberately bypass google-benchmark so the recorded numbers
 * have one clean definition (fixed event count, one timed region) that
 * stays comparable across PRs regardless of --benchmark_* flags.
 */
ccsim::bench::BenchValues
measureKernelTrajectory()
{
    using Clock = std::chrono::steady_clock;
    ccsim::bench::BenchValues v;

    {
        // Mirrors BM_EventQueueScheduleRun: 2M short-delay events.
        sim::EventQueue eq;
        std::int64_t sink = 0;
        const auto t0 = Clock::now();
        for (int batch = 0; batch < 2000; ++batch) {
            for (int i = 0; i < 1000; ++i)
                eq.scheduleAfter(i, [&sink] { ++sink; });
            eq.runAll();
        }
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        benchmark::DoNotOptimize(sink);
        const double events = static_cast<double>(eq.eventsExecuted());
        v["kernel.events_per_sec"] = events / secs;
        v["kernel.ns_per_event"] = 1e9 * secs / events;
        v["kernel.peak_live_events"] =
            static_cast<double>(eq.peakLiveEvents());
    }
    {
        // Bimodal mix with a 50% cancel rate, the LTL-like workload.
        sim::EventQueue eq;
        std::int64_t sink = 0;
        std::vector<sim::EventId> ids(1000);
        const auto t0 = Clock::now();
        for (int batch = 0; batch < 1000; ++batch) {
            for (int i = 0; i < 1000; ++i) {
                const sim::TimePs delay =
                    (i % 10 == 9) ? sim::fromNanos(50000) : 100 + i;
                ids[i] = eq.scheduleAfter(delay, [&sink] { ++sink; });
            }
            for (int i = 0; i < 1000; i += 2)
                eq.cancel(ids[i]);
            eq.runAll();
        }
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        benchmark::DoNotOptimize(sink);
        const double ops =
            static_cast<double>(eq.eventsExecuted() + eq.eventsCancelled());
        v["kernel.bimodal_cancel.events_per_sec"] = ops / secs;
    }
    {
        // Mirrors BM_EventQueueChain: 2M events, almost all chain links.
        // The bypass ratio comes from the kernel's exact counter, so CI
        // can gate the head list's fast path without timing it.
        ChainOverTimers rig;
        const auto t0 = Clock::now();
        for (int i = 0; i < 2000000; ++i)
            rig.eq.step();
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        benchmark::DoNotOptimize(rig.links);
        const double events = static_cast<double>(rig.eq.eventsExecuted());
        v["kernel.chain.ns_per_event"] = 1e9 * secs / events;
        v["kernel.chain.bypass_ratio"] =
            static_cast<double>(rig.eq.eventsBypassed()) / events;
    }
    {
        // Mirrors BM_EventQueueSparseTimers: 2M events of 16 live timers.
        // Its bypass ratio gates the head list the same way.
        SparseTimers rig;
        const auto t0 = Clock::now();
        for (int i = 0; i < 2000000; ++i)
            rig.eq.step();
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        benchmark::DoNotOptimize(rig.fired);
        const double events = static_cast<double>(rig.eq.eventsExecuted());
        v["kernel.sparse_timers.ns_per_event"] = 1e9 * secs / events;
        v["kernel.sparse_timers.bypass_ratio"] =
            static_cast<double>(rig.eq.eventsBypassed()) / events;
    }
    struct SparseCase {
        const char *key;
        int pairs, ballsPerPair, burst;
        /** Where the partition visits per window go, or null. */
        const char *visitsKey;
    };
    for (const SparseCase &c :
         {SparseCase{"kernel.sparse_barrier.ns_per_window", 1, 1, 1, nullptr},
          SparseCase{"kernel.sparse_barrier.handoff_ns_per_window", 1, 2, 1,
                     nullptr},
          SparseCase{"kernel.sparse_barrier.drill_ns_per_window",
                     kDrillPairs, 1, kDrillBurst,
                     "kernel.sparse_barrier.visits_per_window"},
          SparseCase{"kernel.sparse_barrier.claimed_ns_per_window",
                     kDrillPairs, 1, kClaimedBurst, nullptr}}) {
        // Mirrors BM_ShardedSparseBarrier and BM_ShardedDrillBarrier:
        // wall time per barrier window. The visits come from the
        // kernel's exact partitionVisits() count, so CI can gate the
        // barrier's work without timing it.
        SparseBarrierRig rig(c.pairs, c.ballsPerPair, c.burst);
        const std::uint64_t visits = rig.sq.partitionVisits();
        const auto t0 = Clock::now();
        const std::uint64_t windows = rig.run(20000);
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        v[c.key] = 1e9 * secs / static_cast<double>(windows);
        if (c.visitsKey != nullptr)
            v[c.visitsKey] =
                static_cast<double>(rig.sq.partitionVisits() - visits) /
                static_cast<double>(windows);
    }
    {
        // Mirrors BM_ErShellCrossbar: host time per flit through the ER.
        ErShellRig rig;
        std::uint64_t flits = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < 200; ++i)
            flits += rig.round();
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        v["kernel.er.ns_per_flit"] = 1e9 * secs / static_cast<double>(flits);
    }
    {
        // Mirrors BM_ErLongTrain: host time per flit of a lone train.
        ErTrainRig rig;
        std::uint64_t flits = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < 200; ++i)
            flits += rig.round();
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        v["kernel.er.train_ns_per_flit"] =
            1e9 * secs / static_cast<double>(flits);
    }
    {
        const auto t0 = Clock::now();
        for (int i = 0; i < 1000000; ++i) {
            auto pkt = net::makePacket();
            benchmark::DoNotOptimize(pkt);
        }
        const double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        v["kernel.packet_pool.packets_per_sec"] = 1e6 / secs;
    }

    const long rss = ccsim::bench::peakRssKb();
    if (rss >= 0)
        v["kernel.rss_peak_kb"] = static_cast<double>(rss);
    return v;
}

}  // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const auto values = measureKernelTrajectory();
    ccsim::bench::mergeBenchJson("BENCH_kernel.json", values);
    std::printf("\nwrote %zu kernel trajectory keys to BENCH_kernel.json "
                "(%.2fM events/sec, %.1f ns/event)\n",
                values.size(), values.at("kernel.events_per_sec") / 1e6,
                values.at("kernel.ns_per_event"));
    return 0;
}
