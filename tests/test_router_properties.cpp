/**
 * @file
 * Property-based Elastic Router suites: across the parameterization the
 * paper calls out (ports, VCs, flit sizes, buffer policies), the router
 * must deliver every message, preserve per-(source, VC) order, never
 * exceed its buffer budget, and conserve flits. Golden-trace tests pin
 * the exact delivery times of seeded contended traffic, and the
 * run-ahead differential checks that a router crossing a lone train in
 * one step (EventQueue::advanceIfIdle) matches one whose every cycle is
 * a scheduled event. The run suites check that buffering a message's
 * flits as runs, and injecting them as trains, behaves exactly like one
 * flit object per flit. The liveness property draws seeded
 * configurations and traffic: each is rejected at construction or
 * delivers every message and drains to empty buffers.
 */
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "router/elastic_router.hpp"
#include "router/er_network.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ccsim;
using router::CreditPolicy;
using router::ElasticRouter;
using router::ErConfig;
using router::ErEndpoint;
using router::ErMessage;
using router::ErMessagePtr;
using router::Flit;
using router::FlitKind;

class ErConfigMatrix
    : public ::testing::TestWithParam<
          std::tuple<int, int, std::uint32_t, CreditPolicy>>
{
};

TEST_P(ErConfigMatrix, AllMessagesDeliveredInPerSourceVcOrder)
{
    auto [ports, vcs, flit_bytes, policy] = GetParam();
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = ports;
    cfg.numVcs = vcs;
    cfg.flitBytes = flit_bytes;
    cfg.policy = policy;
    ElasticRouter er(eq, cfg);

    std::vector<std::unique_ptr<ErEndpoint>> eps;
    // received[dst] = list of (src, vc, seq).
    std::map<int, std::vector<std::tuple<int, int, int>>> received;
    for (int p = 0; p < ports; ++p) {
        eps.push_back(std::make_unique<ErEndpoint>(eq, er, p, p));
        er.setOutputSink(p, eps.back().get());
        const int port = p;
        eps.back()->setMessageHandler(
            [&received, port](const ErMessagePtr &m) {
                received[port].push_back(
                    {m->srcEndpoint, m->vc,
                     *std::static_pointer_cast<int>(m->payload)});
            });
    }

    sim::Rng rng(123);
    std::map<std::tuple<int, int, int>, int> sent_count;  // (src,dst,vc)
    int total = 0;
    for (int round = 0; round < 40; ++round) {
        for (int src = 0; src < ports; ++src) {
            const int dst =
                static_cast<int>(rng.uniformInt(std::uint64_t(ports)));
            const int vc =
                static_cast<int>(rng.uniformInt(std::uint64_t(vcs)));
            const auto bytes = static_cast<std::uint32_t>(
                1 + rng.uniformInt(std::uint64_t{900}));
            auto key = std::make_tuple(src, dst, vc);
            eps[src]->sendMessage(dst, vc, bytes,
                                  std::make_shared<int>(sent_count[key]));
            ++sent_count[key];
            ++total;
        }
    }
    eq.runAll();

    int delivered = 0;
    // Per (src, dst, vc): sequence numbers must arrive monotonically.
    std::map<std::tuple<int, int, int>, int> next_expected;
    for (const auto &[dst, msgs] : received) {
        delivered += static_cast<int>(msgs.size());
        for (const auto &[src, vc, seq] : msgs) {
            auto key = std::make_tuple(src, dst, vc);
            EXPECT_EQ(seq, next_expected[key]++)
                << "src=" << src << " dst=" << dst << " vc=" << vc;
        }
    }
    EXPECT_EQ(delivered, total);
    EXPECT_EQ(er.messagesRouted(), static_cast<std::uint64_t>(total));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ErConfigMatrix,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(16u, 32u, 64u),
                       ::testing::Values(CreditPolicy::kElastic,
                                         CreditPolicy::kStatic)));

class ErBudgetSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ErBudgetSweep, BufferOccupancyNeverExceedsBudget)
{
    const int budget = GetParam();
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 4;
    cfg.numVcs = 4;
    cfg.policy = CreditPolicy::kElastic;
    cfg.perVcReservedFlits = 1;
    cfg.sharedPoolFlits = budget - cfg.numVcs;
    ElasticRouter er(eq, cfg);
    std::vector<std::unique_ptr<ErEndpoint>> eps;
    for (int p = 0; p < 4; ++p) {
        eps.push_back(std::make_unique<ErEndpoint>(eq, er, p, p));
        er.setOutputSink(p, eps.back().get());
    }
    er.setOutputCyclesPerFlit(3, 16);  // a slow hot-spot output

    for (int src = 0; src < 3; ++src) {
        for (int i = 0; i < 8; ++i)
            eps[src]->sendMessage(3, i % 4, 2048);
    }
    eq.runAll();
    // Peak buffered flits across the router can never exceed the sum of
    // per-port budgets (reservations + shared pool).
    const int per_port = cfg.numVcs * cfg.perVcReservedFlits +
                         cfg.sharedPoolFlits;
    EXPECT_LE(er.peakBufferedFlits(), 4 * per_port);
    EXPECT_GT(er.peakBufferedFlits(), 0);
}

INSTANTIATE_TEST_SUITE_P(Budgets, ErBudgetSweep,
                         ::testing::Values(8, 16, 32, 64));

TEST(ErComposition, ThreeRouterChainDelivers)
{
    // Chain A - B - C: endpoints 0..1 on A, 2..3 on C, B is pure transit.
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 3;
    cfg.numVcs = 2;
    ElasticRouter a(eq, cfg), b(eq, cfg), c(eq, cfg);
    a.setRouteFn([](int dst) { return dst <= 1 ? dst : 2; });
    b.setRouteFn([](int dst) { return dst <= 1 ? 0 : 1; });  // 0->A, 1->C
    c.setRouteFn([](int dst) { return dst >= 2 ? dst - 2 : 2; });

    struct Hop : router::FlitSink {
        ElasticRouter *er;
        int port;
        std::deque<router::Flit> pending;
        sim::EventQueue *eq;
        void acceptFlit(const router::Flit &f) override
        {
            pending.push_back(f);
            pump();
        }
        void pump()
        {
            while (!pending.empty() &&
                   er->canAccept(port, pending.front().vc)) {
                er->injectFlit(port, pending.front());
                pending.pop_front();
            }
            if (!pending.empty())
                eq->scheduleAfter(100 * sim::kNanosecond,
                                  [this] { pump(); });
        }
    };

    Hop a_to_b{}, b_to_c{}, c_to_b{}, b_to_a{};
    a_to_b.er = &b; a_to_b.port = 0; a_to_b.eq = &eq;
    b_to_c.er = &c; b_to_c.port = 2; b_to_c.eq = &eq;
    c_to_b.er = &b; c_to_b.port = 1; c_to_b.eq = &eq;
    b_to_a.er = &a; b_to_a.port = 2; b_to_a.eq = &eq;
    a.setOutputSink(2, &a_to_b);
    b.setOutputSink(1, &b_to_c);
    b.setOutputSink(0, &b_to_a);
    c.setOutputSink(2, &c_to_b);

    ErEndpoint e0(eq, a, 0, 0), e1(eq, a, 1, 1);
    ErEndpoint e2(eq, c, 0, 2), e3(eq, c, 1, 3);
    a.setOutputSink(0, &e0);
    a.setOutputSink(1, &e1);
    c.setOutputSink(0, &e2);
    c.setOutputSink(1, &e3);

    int at_e3 = 0, at_e0 = 0;
    e3.setMessageHandler([&](const ErMessagePtr &) { ++at_e3; });
    e0.setMessageHandler([&](const ErMessagePtr &) { ++at_e0; });

    for (int i = 0; i < 10; ++i) {
        e0.sendMessage(3, i % 2, 512);  // A -> C
        e3.sendMessage(0, i % 2, 256);  // C -> A
    }
    eq.runAll();
    EXPECT_EQ(at_e3, 10);
    EXPECT_EQ(at_e0, 10);
}

TEST(ErThroughput, OutputSustainsOneFlitPerCycle)
{
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 1;
    cfg.clockMhz = 175.0;
    ElasticRouter er(eq, cfg);
    ErEndpoint src(eq, er, 0, 0), dst(eq, er, 1, 1);
    er.setOutputSink(0, &src);
    er.setOutputSink(1, &dst);
    int done = 0;
    dst.setMessageHandler([&](const ErMessagePtr &) { ++done; });

    const std::uint32_t bytes = 32 * 1024;  // 1024 flits
    src.sendMessage(1, 0, bytes);
    eq.runAll();
    EXPECT_EQ(done, 1);
    // 1024 flits at 1 flit/cycle, 175 MHz: ~5.85 us minimum.
    const double us = sim::toMicros(eq.now());
    EXPECT_GE(us, 5.8);
    EXPECT_LE(us, 7.5);  // small arbitration/pipeline overhead allowed
}

/** FNV-1a over 64-bit words: a stable digest of a delivery trace. */
struct TraceHash {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void addRouter(const ElasticRouter &er)
    {
        add(er.flitsRouted());
        add(er.busyCycles());
        add(static_cast<std::uint64_t>(er.peakBufferedFlits()));
    }
};

/**
 * Hash every delivery (time, endpoint, source, VC, sequence) of seeded,
 * contended traffic injected at staggered times into endpoints
 * @p eps. Every message must arrive; returns the trace digest.
 */
TraceHash
runGoldenTraffic(sim::EventQueue &eq,
                 const std::vector<ErEndpoint *> &eps, int vcs,
                 std::uint64_t seed, int messages)
{
    TraceHash hash;
    int delivered = 0;
    const int n = static_cast<int>(eps.size());
    for (int e = 0; e < n; ++e) {
        eps[e]->setMessageHandler(
            [&hash, &eq, &delivered, e](const ErMessagePtr &m) {
                hash.add(static_cast<std::uint64_t>(eq.now()));
                hash.add(static_cast<std::uint64_t>(e));
                hash.add(static_cast<std::uint64_t>(m->srcEndpoint));
                hash.add(static_cast<std::uint64_t>(m->vc));
                hash.add(static_cast<std::uint64_t>(
                    *std::static_pointer_cast<int>(m->payload)));
                ++delivered;
            });
    }
    sim::Rng rng(seed);
    for (int i = 0; i < messages; ++i) {
        const int src = static_cast<int>(rng.uniformInt(std::uint64_t(n)));
        const int dst = static_cast<int>(rng.uniformInt(std::uint64_t(n)));
        const int vc = static_cast<int>(rng.uniformInt(std::uint64_t(vcs)));
        const auto bytes =
            static_cast<std::uint32_t>(1 + rng.uniformInt(std::uint64_t{700}));
        const auto at = static_cast<sim::TimePs>(
            rng.uniformInt(std::uint64_t(sim::fromMicros(4))));
        eq.schedule(at, [&eps, src, dst, vc, bytes, i] {
            eps[src]->sendMessage(dst, vc, bytes, std::make_shared<int>(i));
        });
    }
    eq.runAll();
    EXPECT_EQ(delivered, messages);
    return hash;
}

TEST(ErGoldenTrace, SingleRouterDeliveryTracesMatchPinnedHashes)
{
    // Pinned digests of the exact delivery trace: any change to
    // arbitration order, credit timing or pipeline latency moves them.
    struct Case {
        int ports;
        int vcs;
        CreditPolicy policy;
        std::uint64_t hash;
    };
    const Case cases[] = {
        {2, 1, CreditPolicy::kElastic, 0x1e6492b14f797fa2ull},
        {2, 1, CreditPolicy::kStatic, 0x2c8225c234d2d5c9ull},
        {2, 2, CreditPolicy::kElastic, 0xae90cb6d77fef9a3ull},
        {2, 2, CreditPolicy::kStatic, 0xf7ea47f2ad581fcdull},
        {2, 4, CreditPolicy::kElastic, 0xb83814697c7530ddull},
        {2, 4, CreditPolicy::kStatic, 0x082e22c87a1bbca2ull},
        {4, 1, CreditPolicy::kElastic, 0x6efe92d2cf2bcb23ull},
        {4, 1, CreditPolicy::kStatic, 0x8ba037400dfac865ull},
        {4, 2, CreditPolicy::kElastic, 0x99dce0efa2402335ull},
        {4, 2, CreditPolicy::kStatic, 0xa403412dde682aa2ull},
        {4, 4, CreditPolicy::kElastic, 0x35162b42ea442867ull},
        {4, 4, CreditPolicy::kStatic, 0xa027fb39eb357bb9ull},
        {11, 1, CreditPolicy::kElastic, 0x4d79425e77d6ee2dull},
        {11, 1, CreditPolicy::kStatic, 0x1335f9ce724a0dd1ull},
        {11, 2, CreditPolicy::kElastic, 0x4f8ad921b3be8124ull},
        {11, 2, CreditPolicy::kStatic, 0x968a6c160643fcf9ull},
        {11, 4, CreditPolicy::kElastic, 0xbcab5c42d17d0b23ull},
        {11, 4, CreditPolicy::kStatic, 0x78c2dcd21ad40812ull},
    };
    for (const Case &c : cases) {
        sim::EventQueue eq;
        ErConfig cfg;
        cfg.numPorts = c.ports;
        cfg.numVcs = c.vcs;
        cfg.policy = c.policy;
        cfg.perVcReservedFlits = 2;
        cfg.sharedPoolFlits = 6;
        cfg.staticPerVcFlits = 4;
        ElasticRouter er(eq, cfg);
        er.setOutputCyclesPerFlit(c.ports - 1, 3);  // one slow output
        std::vector<std::unique_ptr<ErEndpoint>> owned;
        std::vector<ErEndpoint *> eps;
        for (int p = 0; p < c.ports; ++p) {
            owned.push_back(std::make_unique<ErEndpoint>(eq, er, p, p));
            er.setOutputSink(p, owned.back().get());
            eps.push_back(owned.back().get());
        }
        const std::uint64_t seed = 1000u * c.ports + 10u * c.vcs +
                                   (c.policy == CreditPolicy::kStatic);
        TraceHash hash = runGoldenTraffic(eq, eps, c.vcs, seed,
                                          60 * c.ports);
        hash.addRouter(er);
        EXPECT_EQ(hash.h, c.hash)
            << "ports=" << c.ports << " vcs=" << c.vcs << " static="
            << (c.policy == CreditPolicy::kStatic) << " got 0x" << std::hex
            << hash.h;
    }
}

TEST(ErGoldenTrace, OneVcMeshDeliveryTraceMatchesPinnedHash)
{
    sim::EventQueue eq;
    ErConfig base;
    base.numVcs = 1;
    base.perVcReservedFlits = 2;
    base.sharedPoolFlits = 6;  // tight: links back-pressure
    auto net = router::ErNetwork::mesh(eq, 3, 2, 2, base);
    std::vector<ErEndpoint *> eps;
    for (int e = 0; e < net->numEndpoints(); ++e)
        eps.push_back(&net->endpoint(e));
    TraceHash hash = runGoldenTraffic(eq, eps, 1, 0x3e5, 400);
    for (int r = 0; r < net->numRouters(); ++r)
        hash.addRouter(net->router(r));
    EXPECT_EQ(net->linkBacklog(), 0u);
    EXPECT_EQ(hash.h, 0x4d3ac88f2666e85bull) << "got 0x" << std::hex << hash.h;
}

/** What one run of the differential traffic produced. */
struct ErRunResult {
    /** (time, endpoint, message id) of every delivery, in arrival order. */
    std::vector<std::tuple<sim::TimePs, int, std::uint64_t>> deliveries;
    /** Per router: flitsRouted, messagesRouted, busyCycles, peak. */
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, int>>
        routers;
    /** Events executed, not counting the no-op clock events. */
    std::uint64_t events = 0;

    std::uint64_t digest() const
    {
        TraceHash hash;
        for (const auto &[at, endpoint, id] : deliveries) {
            hash.add(static_cast<std::uint64_t>(at));
            hash.add(static_cast<std::uint64_t>(endpoint));
            hash.add(id);
        }
        for (const auto &[flits, msgs, busy, peak] : routers) {
            hash.add(flits);
            hash.add(msgs);
            hash.add(busy);
            hash.add(static_cast<std::uint64_t>(peak));
        }
        hash.add(events);
        return hash.h;
    }
};

/**
 * A no-op event on every cycle boundary from now until done() holds, so
 * no router cycle is ever the queue's next event: every tick takes the
 * scheduled-event path instead of running ahead. Outlives the run.
 */
struct ClockEvents {
    std::uint64_t ran = 0;  ///< no-ops run so far
    std::function<void()> fn;

    ClockEvents(sim::EventQueue &eq, sim::TimePs cycle,
                std::function<bool()> done)
        : fn([this, &eq, cycle, done = std::move(done)] {
              ++ran;
              if (!done())
                  eq.schedule(eq.now() + cycle, fn);
          })
    {
        eq.schedule(eq.now(), fn);
    }
    ClockEvents(const ClockEvents &) = delete;
    ClockEvents &operator=(const ClockEvents &) = delete;
};

/** The traffic of one differential run and how the queue runs it. */
struct ErTraffic {
    int vcs = 1;
    std::uint64_t seed = 0;
    int messages = 0;
    /** Request sizes are uniform in [1, maxBytes]. */
    std::uint32_t maxBytes = 700;
    /** Requests are injected at uniform times in [0, span). */
    sim::TimePs span = sim::fromMicros(3);
    /** runUntil() steps of this length when positive, else runAll(). */
    sim::TimePs step = 0;
};

/**
 * Seeded multi-VC traffic through @p eps, injected at staggered times.
 * Every third request is answered from its delivery handler, so replies
 * enter a router in the same event that delivers a flit. With
 * @p clock_events, ClockEvents run until the last delivery.
 */
ErRunResult
runErDifferential(sim::EventQueue &eq, const std::vector<ErEndpoint *> &eps,
                  const std::vector<ElasticRouter *> &routers,
                  const ErTraffic &traffic, bool clock_events)
{
    ErRunResult res;
    std::size_t sent = static_cast<std::size_t>(traffic.messages);
    const int n = static_cast<int>(eps.size());
    for (int e = 0; e < n; ++e) {
        eps[e]->setMessageHandler(
            [&res, &eq, &eps, &sent, e](const ErMessagePtr &m) {
                res.deliveries.emplace_back(eq.now(), e, m->id);
                if (m->payload == nullptr && m->id % 3 == 0) {
                    ++sent;
                    eps[e]->sendMessage(m->srcEndpoint, m->vc,
                                        1 + m->sizeBytes % 97,
                                        std::make_shared<int>(0));
                }
            });
    }
    sim::Rng rng(traffic.seed);
    for (int i = 0; i < traffic.messages; ++i) {
        const int src = static_cast<int>(rng.uniformInt(std::uint64_t(n)));
        const int dst = static_cast<int>(rng.uniformInt(std::uint64_t(n)));
        const int vc =
            static_cast<int>(rng.uniformInt(std::uint64_t(traffic.vcs)));
        const auto bytes = static_cast<std::uint32_t>(
            1 + rng.uniformInt(std::uint64_t{traffic.maxBytes}));
        const auto at = static_cast<sim::TimePs>(
            rng.uniformInt(static_cast<std::uint64_t>(traffic.span)));
        eq.schedule(at, [&eps, src, dst, vc, bytes] {
            eps[src]->sendMessage(dst, vc, bytes);
        });
    }
    std::optional<ClockEvents> clock;
    if (clock_events) {
        clock.emplace(eq, sim::cyclePeriod(routers[0]->config().clockMhz),
                      [&] { return res.deliveries.size() >= sent; });
    }
    if (traffic.step > 0) {
        while (!eq.empty())
            eq.runUntil(eq.now() + traffic.step);
    } else {
        eq.runAll();
    }
    EXPECT_EQ(res.deliveries.size(), sent);
    // Some replies.
    EXPECT_GT(sent, static_cast<std::size_t>(traffic.messages));
    for (const ElasticRouter *er : routers)
        res.routers.emplace_back(er->flitsRouted(), er->messagesRouted(),
                                 er->busyCycles(), er->peakBufferedFlits());
    res.events = eq.eventsExecuted() - (clock ? clock->ran : 0);
    return res;
}

/**
 * One run of @p traffic through the routers @p build makes on a fresh
 * queue; see runErDifferential.
 */
template <typename Build>
ErRunResult
runBuilt(Build &build, const ErTraffic &traffic, bool clock_events)
{
    sim::EventQueue eq;
    std::vector<ErEndpoint *> eps;
    std::vector<ElasticRouter *> routers;
    auto owner = build(eq, eps, routers);
    return runErDifferential(eq, eps, routers, traffic, clock_events);
}

/**
 * Both runs of one configuration, plain (routers run ahead wherever the
 * queue allows) and with a no-op event on every cycle boundary, must
 * match each other and @p pinned: the digest of the plain run on the
 * kernel before run-ahead existed, when every cycle was a queue event.
 */
template <typename Build>
void
expectRunAheadMatchesScheduledTicks(Build build, int vcs,
                                    std::uint64_t seed, int messages,
                                    std::uint64_t pinned,
                                    const std::string &what)
{
    ErTraffic traffic;
    traffic.vcs = vcs;
    traffic.seed = seed;
    traffic.messages = messages;
    ErRunResult runs[2];
    for (int forced = 0; forced < 2; ++forced)
        runs[forced] = runBuilt(build, traffic, forced == 1);
    EXPECT_EQ(runs[0].deliveries, runs[1].deliveries) << what;
    EXPECT_EQ(runs[0].routers, runs[1].routers) << what;
    EXPECT_EQ(runs[0].events, runs[1].events) << what;
    EXPECT_EQ(runs[0].digest(), pinned)
        << what << " got 0x" << std::hex << runs[0].digest();
}

/**
 * A build for runBuilt(): one router of @p cfg with an ErEndpoint on
 * every port, its last output slowed to three cycles per flit.
 */
auto
singleRouter(const ErConfig &cfg)
{
    return [cfg](sim::EventQueue &eq, std::vector<ErEndpoint *> &eps,
                 std::vector<ElasticRouter *> &routers) {
        auto er = std::make_shared<ElasticRouter>(eq, cfg);
        er->setOutputCyclesPerFlit(cfg.numPorts - 1, 3);  // slow
        auto owned =
            std::make_shared<std::vector<std::unique_ptr<ErEndpoint>>>();
        for (int p = 0; p < cfg.numPorts; ++p) {
            owned->push_back(std::make_unique<ErEndpoint>(eq, *er, p, p));
            er->setOutputSink(p, owned->back().get());
            eps.push_back(owned->back().get());
        }
        routers.push_back(er.get());
        return std::make_pair(er, owned);
    };
}

TEST(ErRunAhead, SingleRouterMatchesScheduledTicks)
{
    struct Case {
        int pipeline;
        CreditPolicy policy;
        std::uint64_t pinned;
    };
    const Case cases[] = {
        {0, CreditPolicy::kElastic, 0x85ae42afee5ce8ffull},
        {0, CreditPolicy::kStatic, 0x4a198eca8b2f3ba6ull},
        {1, CreditPolicy::kElastic, 0x43a3dd23038c56e9ull},
        {1, CreditPolicy::kStatic, 0x23e2a7eba12979d8ull},
        {2, CreditPolicy::kElastic, 0xee7011ff60c5d038ull},
        {2, CreditPolicy::kStatic, 0x2ce5ac67a072a889ull},
        {3, CreditPolicy::kElastic, 0xceb60b49e5a13e07ull},
        {3, CreditPolicy::kStatic, 0x4eedb207cc771d5eull},
    };
    for (const Case &c : cases) {
        ErConfig cfg;
        cfg.numPorts = 5;
        cfg.numVcs = 3;
        cfg.pipelineCycles = c.pipeline;
        cfg.policy = c.policy;
        cfg.perVcReservedFlits = 2;
        cfg.sharedPoolFlits = 6;
        cfg.staticPerVcFlits = 3;
        expectRunAheadMatchesScheduledTicks(
            singleRouter(cfg), 3, 77u + c.pipeline, 300, c.pinned,
            "pipelineCycles=" + std::to_string(c.pipeline) + " static=" +
                std::to_string(c.policy == CreditPolicy::kStatic));
    }
}

TEST(ErRunAhead, MeshWithLinksMatchesScheduledTicks)
{
    // ErLink sinks take every flit, not just tails, and feed the next
    // router's credit loop from inside a delivery.
    const std::uint64_t pinned[] = {
        0xc20d9a229173906aull, 0x66a0361438e96a80ull, 0xe0c98b2a0dbc825full,
        0x85776dc9e9a3bc0eull};
    for (int pipeline : {0, 1, 2, 3}) {
        const auto build = [pipeline](sim::EventQueue &eq,
                                      std::vector<ErEndpoint *> &eps,
                                      std::vector<ElasticRouter *> &routers) {
            ErConfig base;
            base.numVcs = 2;
            base.pipelineCycles = pipeline;
            base.perVcReservedFlits = 2;
            base.sharedPoolFlits = 4;  // tight: links back-pressure
            auto net = router::ErNetwork::mesh(eq, 3, 2, 2, base);
            for (int e = 0; e < net->numEndpoints(); ++e)
                eps.push_back(&net->endpoint(e));
            for (int r = 0; r < net->numRouters(); ++r)
                routers.push_back(&net->router(r));
            return net;
        };
        expectRunAheadMatchesScheduledTicks(
            build, 2, 0x5eedu + pipeline, 400, pinned[pipeline],
            "mesh pipelineCycles=" + std::to_string(pipeline));
    }
}

TEST(ErRunAhead, LongTrainsMatchScheduledTicks)
{
    // Requests of up to 4 KB (128 flits) outgrow the free credits, so
    // their injectors wait and pump mid-message, and the router's
    // uncontended stretches cross whole trains in one step. The queue
    // runs to completion or in runUntil() steps of a few cycles, whose
    // limits cut trains short. Every variant must match the run with a
    // no-op event on every cycle boundary, where each flit takes a cycle.
    const sim::TimePs cycle = sim::cyclePeriod(ErConfig{}.clockMhz);
    for (CreditPolicy policy :
         {CreditPolicy::kElastic, CreditPolicy::kStatic}) {
        for (bool roomy : {true, false}) {
            ErConfig cfg;
            cfg.numPorts = 4;
            cfg.numVcs = 2;
            cfg.policy = policy;
            if (!roomy) {
                cfg.perVcReservedFlits = 2;
                cfg.sharedPoolFlits = 6;
                cfg.staticPerVcFlits = 3;
            }
            auto build = singleRouter(cfg);
            ErTraffic traffic;
            traffic.vcs = cfg.numVcs;
            traffic.seed = 0x7a11u + 2u * roomy +
                           (policy == CreditPolicy::kStatic);
            traffic.messages = 60;
            traffic.maxBytes = 4096;
            traffic.span = sim::fromMicros(40);
            const ErRunResult ref = runBuilt(build, traffic, true);
            for (sim::TimePs step :
                 {sim::TimePs{0}, 2 * cycle, 3 * cycle + cycle / 3}) {
                traffic.step = step;
                for (bool forced : {false, true}) {
                    const ErRunResult run = runBuilt(build, traffic, forced);
                    const std::string what =
                        "static=" +
                        std::to_string(policy == CreditPolicy::kStatic) +
                        " roomy=" + std::to_string(roomy) +
                        " step=" + std::to_string(step) +
                        " forced=" + std::to_string(forced);
                    EXPECT_EQ(run.deliveries, ref.deliveries) << what;
                    EXPECT_EQ(run.routers, ref.routers) << what;
                    EXPECT_EQ(run.events, ref.events) << what;
                }
            }
        }
    }
}

// --- runs and trains ---------------------------------------------------

/**
 * Run @p eq until it drains, failing rather than hanging when traffic is
 * still moving after 1 ms of simulated time.
 */
void
drain(sim::EventQueue &eq)
{
    eq.runUntil(eq.now() + sim::fromMicros(1000));
    EXPECT_TRUE(eq.empty()) << "traffic still moving at " << eq.now();
}

/** A sink that takes every flit and records when it arrived. */
struct FlitRecorder : router::FlitSink {
    sim::EventQueue *eq = nullptr;
    std::vector<std::pair<sim::TimePs, Flit>> flits;
    void acceptFlit(const Flit &f) override
    {
        flits.emplace_back(eq->now(), f);
    }
};

ErMessagePtr
makeMessage(int src, int dst, int vc, std::uint32_t bytes, std::uint64_t id)
{
    auto m = std::make_shared<ErMessage>();
    m->srcEndpoint = src;
    m->dstEndpoint = dst;
    m->vc = vc;
    m->sizeBytes = bytes;
    m->id = id;
    return m;
}

/**
 * The reference injector: segment a message into one Flit object per
 * flit, queue them, and inject one flit per credit.
 */
class FlitByFlitSource
{
  public:
    FlitByFlitSource(ElasticRouter &router, int port)
        : er(router), inPort(port), pending(router.config().numVcs)
    {
        er.setCreditReturnFn(inPort, [this](int vc) { pump(vc); });
    }

    void send(const ErMessagePtr &msg)
    {
        const std::uint32_t flit_bytes = er.config().flitBytes;
        const std::uint32_t size = std::max<std::uint32_t>(msg->sizeBytes, 1);
        const std::uint32_t n = router::flitCount(msg->sizeBytes, flit_bytes);
        for (std::uint32_t i = 0; i < n; ++i) {
            Flit f;
            f.vc = msg->vc;
            f.dstEndpoint = msg->dstEndpoint;
            f.bytes = std::min(flit_bytes, size - i * flit_bytes);
            const bool head = i == 0;
            const bool tail = i + 1 == n;
            f.kind = head ? (tail ? FlitKind::kHeadTail : FlitKind::kHead)
                          : (tail ? FlitKind::kTail : FlitKind::kBody);
            if (tail)
                f.msg = msg;
            pending[msg->vc].push_back(f);
        }
        pump(msg->vc);
    }

  private:
    ElasticRouter &er;
    int inPort;
    std::vector<std::deque<Flit>> pending;

    void pump(int vc)
    {
        auto &q = pending[vc];
        while (!q.empty() && er.canAccept(inPort, vc)) {
            er.injectFlit(inPort, q.front());
            q.pop_front();
        }
    }
};

/** Everything observable about one run of the train differential. */
struct TrainRun {
    std::vector<std::tuple<sim::TimePs, int, std::uint64_t>> deliveries;
    std::vector<std::tuple<sim::TimePs, int, int, std::uint32_t, bool>>
        linkFlits;
    std::uint64_t flits = 0, messages = 0, busy = 0, events = 0;
    int peak = 0;

    bool operator==(const TrainRun &) const = default;
};

/**
 * Seeded bursts of messages — sizes 0, exact multiples of the flit and
 * anything up to 40 flits, so most exceed the free credits — from every
 * port but the last, whose output is a slow every-flit sink. With
 * @p trains the sources are ErEndpoints; otherwise they inject flit by
 * flit.
 */
TrainRun
runTrainDifferential(CreditPolicy policy, int vcs, std::uint64_t seed,
                     bool trains)
{
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 4;
    cfg.numVcs = vcs;
    cfg.policy = policy;
    cfg.perVcReservedFlits = 2;
    cfg.sharedPoolFlits = 5;
    cfg.staticPerVcFlits = 3;
    ElasticRouter er(eq, cfg);
    const int last = cfg.numPorts - 1;
    FlitRecorder link;
    link.eq = &eq;
    er.setOutputSink(last, &link);
    er.setOutputCyclesPerFlit(last, 2);
    TrainRun run;
    std::vector<std::unique_ptr<ErEndpoint>> eps;
    std::vector<std::unique_ptr<FlitByFlitSource>> sources;
    for (int p = 0; p < last; ++p) {
        eps.push_back(std::make_unique<ErEndpoint>(eq, er, p, p));
        er.setOutputSink(p, eps.back().get());
        eps.back()->setMessageHandler([&run, &eq, p](const ErMessagePtr &m) {
            run.deliveries.emplace_back(eq.now(), p, m->id);
        });
        if (!trains)
            sources.push_back(std::make_unique<FlitByFlitSource>(er, p));
    }
    sim::Rng rng(seed);
    const std::uint32_t sizes[] = {0, 32, 64, 96, 1, 31, 33};
    for (std::uint64_t id = 1; id <= 240; ++id) {
        const int src = static_cast<int>(rng.uniformInt(std::uint64_t(last)));
        const int dst =
            static_cast<int>(rng.uniformInt(std::uint64_t(cfg.numPorts)));
        const int vc = static_cast<int>(rng.uniformInt(std::uint64_t(vcs)));
        const std::uint64_t pick = rng.uniformInt(14);
        const auto bytes = pick < 7 ? sizes[pick]
                                    : static_cast<std::uint32_t>(
                                          1 + rng.uniformInt(40 * 32));
        const auto at = static_cast<sim::TimePs>(
            rng.uniformInt(std::uint64_t(sim::fromMicros(2))));
        auto msg = makeMessage(src, dst, vc, bytes, id);
        eq.schedule(at, [&, src, msg] {
            if (trains)
                eps[src]->sendMessage(msg);
            else
                sources[src]->send(msg);
        });
    }
    drain(eq);
    for (const auto &[at, f] : link.flits)
        run.linkFlits.emplace_back(at, static_cast<int>(f.kind), f.vc,
                                   f.bytes, f.msg != nullptr);
    run.flits = er.flitsRouted();
    run.messages = er.messagesRouted();
    run.busy = er.busyCycles();
    run.peak = er.peakBufferedFlits();
    run.events = eq.eventsExecuted();
    EXPECT_EQ(run.messages, 240u);
    return run;
}

TEST(ErRuns, TrainsMatchFlitByFlitInjection)
{
    for (CreditPolicy policy :
         {CreditPolicy::kElastic, CreditPolicy::kStatic}) {
        for (int vcs : {1, 3}) {
            const std::uint64_t seed = 40 + vcs;
            const TrainRun trains =
                runTrainDifferential(policy, vcs, seed, true);
            const TrainRun flits =
                runTrainDifferential(policy, vcs, seed, false);
            EXPECT_EQ(trains.deliveries, flits.deliveries)
                << "vcs=" << vcs
                << " static=" << (policy == CreditPolicy::kStatic);
            EXPECT_EQ(trains.linkFlits, flits.linkFlits) << "vcs=" << vcs;
            EXPECT_TRUE(trains == flits) << "vcs=" << vcs;
            EXPECT_FALSE(trains.linkFlits.empty());
        }
    }
}

TEST(ErRuns, LongMessageCrossesOverSeveralCreditReturns)
{
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 2;
    cfg.perVcReservedFlits = 2;
    cfg.sharedPoolFlits = 6;
    ElasticRouter er(eq, cfg);
    ErEndpoint src(eq, er, 0, 0), dst(eq, er, 1, 1);
    er.setOutputSink(0, &src);
    er.setOutputSink(1, &dst);
    er.setOutputCyclesPerFlit(1, 4);  // credits come back one by one
    std::vector<sim::TimePs> arrived;
    dst.setMessageHandler(
        [&](const ErMessagePtr &) { arrived.push_back(eq.now()); });

    EXPECT_EQ(er.freeCredits(0, 0), 8);
    src.sendMessage(1, 0, 5 * 32);  // 5 flits: 2 reserved + 3 shared
    EXPECT_EQ(src.backlogFlits(), 0u);
    EXPECT_EQ(er.freeCredits(0, 0), 3);
    EXPECT_EQ(er.freeCredits(0, 1), 5);
    src.sendMessage(1, 1, 40 * 32);  // takes its 2 and the last 3 shared
    EXPECT_EQ(er.freeCredits(0, 0), 0);
    EXPECT_EQ(er.freeCredits(0, 1), 0);
    EXPECT_FALSE(er.canAccept(0, 1));
    EXPECT_EQ(src.backlogFlits(), 35u);
    // A message queued behind a stalled one waits, flits counted.
    src.sendMessage(1, 1, 0);
    EXPECT_EQ(src.backlogFlits(), 36u);

    drain(eq);
    ASSERT_EQ(arrived.size(), 3u);
    EXPECT_EQ(er.flitsRouted(), 46u);
    EXPECT_EQ(src.backlogFlits(), 0u);
    EXPECT_EQ(er.freeCredits(0, 0), 8);
    EXPECT_EQ(er.freeCredits(0, 1), 8);
    // The slow output sends one flit every 4 cycles: the last of 46
    // flits leaves 45 * 4 cycles after the first.
    const sim::TimePs cycle = sim::cyclePeriod(cfg.clockMhz);
    EXPECT_GE(arrived.back(), 45 * 4 * cycle);
}

TEST(ErRuns, StaticBacklogCountsFlitsNotMessages)
{
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 1;
    cfg.policy = CreditPolicy::kStatic;
    cfg.staticPerVcFlits = 4;
    ElasticRouter er(eq, cfg);
    ErEndpoint src(eq, er, 0, 0), dst(eq, er, 1, 1);
    er.setOutputSink(0, &src);
    er.setOutputSink(1, &dst);
    for (int i = 0; i < 3; ++i)
        src.sendMessage(1, 0, 10 * 32);
    EXPECT_EQ(src.backlogFlits(), 26u);
    EXPECT_EQ(er.freeCredits(0, 0), 0);
    drain(eq);
    EXPECT_EQ(src.backlogFlits(), 0u);
    EXPECT_EQ(er.flitsRouted(), 30u);
    EXPECT_EQ(er.messagesRouted(), 3u);
}

TEST(ErRuns, EmptyAndFlitMultipleSizesSegmentExactly)
{
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 1;
    ElasticRouter er(eq, cfg);
    ErEndpoint src(eq, er, 0, 0);
    er.setOutputSink(0, &src);
    FlitRecorder sink;
    sink.eq = &eq;
    er.setOutputSink(1, &sink);
    struct Case {
        std::uint32_t bytes;
        std::vector<std::uint32_t> flitBytes;
    };
    const Case cases[] = {
        {0, {1}},       {1, {1}},           {32, {32}},
        {33, {32, 1}},  {64, {32, 32}},     {96, {32, 32, 32}},
    };
    for (const Case &c : cases) {
        sink.flits.clear();
        auto msg = makeMessage(0, 1, 0, c.bytes, 0);
        src.sendMessage(msg);
        drain(eq);
        ASSERT_EQ(sink.flits.size(), c.flitBytes.size()) << c.bytes << " B";
        for (std::size_t i = 0; i < sink.flits.size(); ++i) {
            const Flit &f = sink.flits[i].second;
            const bool head = i == 0;
            const bool tail = i + 1 == sink.flits.size();
            EXPECT_EQ(f.isHead(), head) << c.bytes << " B flit " << i;
            EXPECT_EQ(f.isTail(), tail) << c.bytes << " B flit " << i;
            EXPECT_EQ(f.bytes, c.flitBytes[i]) << c.bytes << " B flit " << i;
            EXPECT_EQ(f.dstEndpoint, 1);
            // The message rides on the tail only.
            EXPECT_EQ(f.msg == msg, tail) << c.bytes << " B flit " << i;
            if (i > 0) {  // one flit per cycle
                EXPECT_EQ(sink.flits[i].first - sink.flits[i - 1].first,
                          sim::cyclePeriod(cfg.clockMhz));
            }
        }
    }
    EXPECT_EQ(er.messagesRouted(), 6u);
    EXPECT_EQ(er.flitsRouted(), 10u);
}

TEST(ErRuns, PerFlitInjectionExtendsTheBackRun)
{
    // How an ErLink feeds a router: one flit at a time, with the rest of
    // a message arriving after its head already left.
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 2;
    ElasticRouter er(eq, cfg);
    FlitRecorder sink;
    sink.eq = &eq;
    er.setOutputSink(1, &sink);
    auto flit = [](FlitKind kind, int vc, std::uint32_t bytes) {
        Flit f;
        f.kind = kind;
        f.vc = vc;
        f.dstEndpoint = 1;
        f.bytes = bytes;
        return f;
    };
    auto msg = makeMessage(0, 1, 0, 4 * 32 - 5, 7);
    er.injectFlit(0, flit(FlitKind::kHead, 0, 32));
    er.injectFlit(0, flit(FlitKind::kBody, 0, 32));
    drain(eq);  // the run drains; the wormhole stays open
    ASSERT_EQ(sink.flits.size(), 2u);
    Flit tail = flit(FlitKind::kTail, 0, 27);
    tail.msg = msg;
    er.injectFlit(0, flit(FlitKind::kBody, 0, 32));
    er.injectFlit(0, tail);
    // Behind the tail: a one-flit message, then a head whose body
    // follows while both wait (it extends the back run, not the front).
    auto single = makeMessage(0, 1, 0, 8, 8);
    Flit ht = flit(FlitKind::kHeadTail, 0, 8);
    ht.msg = single;
    er.injectFlit(0, ht);
    er.injectFlit(0, flit(FlitKind::kHead, 0, 32));
    Flit tail2 = flit(FlitKind::kTail, 0, 3);
    auto second = makeMessage(0, 1, 0, 35, 9);
    tail2.msg = second;
    er.injectFlit(0, tail2);
    drain(eq);

    const std::vector<std::pair<FlitKind, std::uint32_t>> want = {
        {FlitKind::kHead, 32}, {FlitKind::kBody, 32}, {FlitKind::kBody, 32},
        {FlitKind::kTail, 27}, {FlitKind::kHeadTail, 8},
        {FlitKind::kHead, 32}, {FlitKind::kTail, 3}};
    ASSERT_EQ(sink.flits.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(sink.flits[i].second.kind, want[i].first) << i;
        EXPECT_EQ(sink.flits[i].second.bytes, want[i].second) << i;
    }
    EXPECT_EQ(sink.flits[3].second.msg, msg);
    EXPECT_EQ(sink.flits[4].second.msg, single);
    EXPECT_EQ(sink.flits[6].second.msg, second);
    EXPECT_EQ(sink.flits[5].second.msg, nullptr);
    EXPECT_EQ(er.messagesRouted(), 3u);
    // All five flits injected together leave on consecutive cycles.
    const sim::TimePs cycle = sim::cyclePeriod(cfg.clockMhz);
    for (std::size_t i = 3; i < want.size(); ++i)
        EXPECT_EQ(sink.flits[i].first - sink.flits[i - 1].first, cycle) << i;
    EXPECT_EQ(er.freeCredits(0, 0),
              cfg.perVcReservedFlits + cfg.sharedPoolFlits);
}

TEST(ErRunAhead, WaitingInjectorHearsEveryCredit)
{
    // An injector waiting for credits hears each one as its flit leaves,
    // so its input never crosses a train in one step.
    const auto run = [](bool clock_events) {
        sim::EventQueue eq;
        ErConfig cfg;
        cfg.numPorts = 2;
        cfg.numVcs = 1;
        ElasticRouter er(eq, cfg);
        ErEndpoint sink(eq, er, 1, 1);
        er.setOutputSink(1, &sink);
        sim::TimePs delivered = -1;
        sink.setMessageHandler([&](const ErMessagePtr &) {
            delivered = eq.now();
        });
        constexpr int kFlits = 128;
        auto msg = makeMessage(0, 1, 0, kFlits * 32, 1);
        int sent = 0;
        const auto pump = [&] {
            const int n = std::min(er.freeCredits(0, 0), kFlits - sent);
            if (n > 0)
                er.injectTrain(0, msg, static_cast<std::uint32_t>(sent), n);
            sent += n;
        };
        std::vector<sim::TimePs> heard;
        er.setCreditReturnFn(0, [&](int) {
            heard.push_back(eq.now());
            pump();
        });
        eq.schedule(0, pump);
        std::optional<ClockEvents> clock;
        if (clock_events) {
            clock.emplace(eq, sim::cyclePeriod(cfg.clockMhz),
                          [&] { return delivered >= 0; });
        }
        eq.runAll();
        EXPECT_EQ(heard.size(), std::size_t{kFlits});
        return std::make_pair(heard, delivered);
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(ErRunAhead, HeadWaitsForTheOutputVcAsItsOnlyCandidate)
{
    // Input 0's message holds output 1's VC while its tail is still
    // upstream, as over an ErLink. Input 2's long message to the same
    // output is then the router's only candidate, but its head may not
    // take the VC, so it does not cross as a train until the tail went.
    const auto run = [](bool clock_events) {
        sim::EventQueue eq;
        ErConfig cfg;
        cfg.numPorts = 3;
        cfg.numVcs = 1;
        ElasticRouter er(eq, cfg);
        ErEndpoint out(eq, er, 1, 1);
        ErEndpoint src(eq, er, 2, 2);
        er.setOutputSink(1, &out);
        std::vector<std::pair<sim::TimePs, std::uint64_t>> got;
        out.setMessageHandler([&](const ErMessagePtr &m) {
            got.emplace_back(eq.now(), m->id);
        });
        auto held = makeMessage(0, 1, 0, 2 * 32, 1);
        Flit head;
        head.kind = FlitKind::kHead;
        head.dstEndpoint = 1;
        head.bytes = 32;
        er.injectFlit(0, head);
        eq.schedule(sim::fromNanos(20), [&] {
            src.sendMessage(makeMessage(2, 1, 0, 40 * 32, 2));
        });
        eq.schedule(sim::fromNanos(200), [&] {
            Flit tail = head;
            tail.kind = FlitKind::kTail;
            tail.msg = held;
            er.injectFlit(0, tail);
        });
        std::optional<ClockEvents> clock;
        if (clock_events) {
            clock.emplace(eq, sim::cyclePeriod(cfg.clockMhz),
                          [&] { return got.size() == 2; });
        }
        eq.runAll();
        EXPECT_EQ(got.size(), 2u);
        EXPECT_EQ(er.flitsRouted(), 42u);
        return std::make_tuple(got, er.busyCycles());
    };
    const auto plain = run(false);
    EXPECT_EQ(plain, run(true));
    EXPECT_EQ(std::get<0>(plain).front().second, 1u);  // the held message
}

// --- liveness: no accepted configuration strands a message -------------

/** One seeded draw of the liveness property: a configuration and traffic. */
struct LivenessCase {
    ErConfig cfg;
    /** 0: one router of cfg.numPorts ports; else a meshWidth x 2 mesh. */
    int meshWidth = 0;
    int endpointsPerRouter = 1;
    int messages = 0;
    /** runUntil() steps of this length when positive, else runAll(). */
    sim::TimePs step = 0;
    std::uint64_t seed = 0;
};

/** The configuration and traffic drawn from @p seed. */
LivenessCase
drawLivenessCase(std::uint64_t seed)
{
    sim::Rng rng(seed);
    LivenessCase c;
    c.seed = seed;
    ErConfig &cfg = c.cfg;
    cfg.name = "live" + std::to_string(seed);
    cfg.numPorts = static_cast<int>(rng.uniformInt(1, 8));
    cfg.numVcs = static_cast<int>(rng.uniformInt(1, 4));
    cfg.flitBytes = rng.bernoulli(0.5) ? 32 : 16;
    cfg.pipelineCycles = static_cast<int>(rng.uniformInt(0, 3));
    cfg.policy = rng.bernoulli(0.5) ? CreditPolicy::kElastic
                                    : CreditPolicy::kStatic;
    cfg.perVcReservedFlits = static_cast<int>(rng.uniformInt(0, 4));
    cfg.sharedPoolFlits =
        rng.bernoulli(0.25) ? 0 : static_cast<int>(rng.uniformInt(1, 16));
    cfg.staticPerVcFlits = static_cast<int>(rng.uniformInt(0, 6));
    if (rng.bernoulli(0.3)) {
        c.meshWidth = static_cast<int>(rng.uniformInt(2, 3));
        c.endpointsPerRouter = static_cast<int>(rng.uniformInt(1, 2));
    }
    c.messages = static_cast<int>(rng.uniformInt(10, 80));
    if (rng.bernoulli(0.5)) {
        c.step = static_cast<sim::TimePs>(
            rng.uniformInt(1, 4 * sim::cyclePeriod(cfg.clockMhz)));
    }
    return c;
}

/** The field construction rejects in @p cfg, or nullptr if it is accepted. */
const char *
rejectedField(const ErConfig &cfg)
{
    if (cfg.policy == CreditPolicy::kElastic && cfg.perVcReservedFlits < 1)
        return "perVcReservedFlits";
    if (cfg.policy == CreditPolicy::kStatic && cfg.staticPerVcFlits < 1)
        return "staticPerVcFlits";
    return nullptr;
}

constexpr std::uint64_t kLivenessDraws = 400;

/**
 * Build @p c, send its traffic and drain the queue. Every message must
 * arrive, and at drain no endpoint, link or input VC holds a flit: every
 * freeCredits(port, vc) is back to its empty value, which covers both
 * occupancy and the shared pool.
 */
void
runLivenessCase(const LivenessCase &c)
{
    sim::EventQueue eq;
    std::vector<ElasticRouter *> routers;
    std::vector<ErEndpoint *> eps;
    std::unique_ptr<router::ErNetwork> net;
    std::unique_ptr<ElasticRouter> single;
    std::vector<std::unique_ptr<ErEndpoint>> owned;
    if (c.meshWidth > 0) {
        net = router::ErNetwork::mesh(eq, c.meshWidth, 2,
                                      c.endpointsPerRouter, c.cfg);
        for (int r = 0; r < net->numRouters(); ++r)
            routers.push_back(&net->router(r));
        for (int e = 0; e < net->numEndpoints(); ++e)
            eps.push_back(&net->endpoint(e));
    } else {
        single = std::make_unique<ElasticRouter>(eq, c.cfg);
        routers.push_back(single.get());
        for (int p = 0; p < c.cfg.numPorts; ++p) {
            owned.push_back(std::make_unique<ErEndpoint>(eq, *single, p, p));
            single->setOutputSink(p, owned.back().get());
            eps.push_back(owned.back().get());
        }
    }
    sim::Rng rng(c.seed ^ 0x11feedu);
    for (ElasticRouter *er : routers) {
        for (int p = 0; p < er->config().numPorts; ++p) {
            if (rng.bernoulli(0.25))  // a slow output
                er->setOutputCyclesPerFlit(
                    p, static_cast<int>(rng.uniformInt(2, 4)));
        }
    }
    int delivered = 0;
    for (ErEndpoint *ep : eps)
        ep->setMessageHandler([&delivered](const ErMessagePtr &) {
            ++delivered;
        });
    const int n = static_cast<int>(eps.size());
    const sim::TimePs span = sim::fromMicros(rng.uniform(0.0, 4.0));
    for (int i = 0; i < c.messages; ++i) {
        const int src = static_cast<int>(rng.uniformInt(std::uint64_t(n)));
        const int dst = static_cast<int>(rng.uniformInt(std::uint64_t(n)));
        const int vc = static_cast<int>(
            rng.uniformInt(std::uint64_t(c.cfg.numVcs)));
        const auto bytes = static_cast<std::uint32_t>(
            rng.uniformInt(0, 24 * std::int64_t{c.cfg.flitBytes}));
        const auto at = static_cast<sim::TimePs>(
            rng.uniformInt(static_cast<std::uint64_t>(span) + 1));
        eq.schedule(at, [&eps, src, dst, vc, bytes] {
            eps[src]->sendMessage(dst, vc, bytes);
        });
    }
    if (c.step > 0) {
        while (!eq.empty())
            eq.runUntil(eq.now() + c.step);
    } else {
        eq.runAll();
    }

    const std::string what = "seed " + std::to_string(c.seed);
    EXPECT_EQ(delivered, c.messages) << what;
    for (const ErEndpoint *ep : eps)
        EXPECT_EQ(ep->backlogFlits(), 0u) << what;
    if (net) {
        EXPECT_EQ(net->linkBacklog(), 0u) << what;
    }
    const int empty = c.cfg.policy == CreditPolicy::kElastic
                          ? c.cfg.perVcReservedFlits + c.cfg.sharedPoolFlits
                          : c.cfg.staticPerVcFlits;
    for (const ElasticRouter *er : routers) {
        for (int p = 0; p < er->config().numPorts; ++p) {
            for (int vc = 0; vc < c.cfg.numVcs; ++vc) {
                EXPECT_EQ(er->freeCredits(p, vc), empty)
                    << what << " port " << p << " vc " << vc;
            }
        }
    }
}

TEST(ErLiveness, AcceptedConfigurationsDeliverAndDrainEmpty)
{
    int accepted = 0, meshes = 0, stepped = 0, zeroPool = 0;
    for (std::uint64_t seed = 1; seed <= kLivenessDraws; ++seed) {
        const LivenessCase c = drawLivenessCase(seed);
        if (rejectedField(c.cfg) != nullptr)
            continue;  // ErLivenessDeathTest checks these
        ++accepted;
        meshes += c.meshWidth > 0;
        stepped += c.step > 0;
        zeroPool += c.cfg.sharedPoolFlits == 0;
        runLivenessCase(c);
        if (::testing::Test::HasFailure())
            return;  // one case's report is enough
    }
    // The draws cover what the property claims to.
    EXPECT_GT(accepted, static_cast<int>(kLivenessDraws) / 2);
    EXPECT_GT(meshes, 20);
    EXPECT_GT(stepped, 50);
    EXPECT_GT(zeroPool, 20);
}

/** Every draw that construction rejects for @p field must die naming it. */
void
expectDrawsRejectedFor(const std::string &field)
{
    int rejected = 0;
    for (std::uint64_t seed = 1; seed <= kLivenessDraws; ++seed) {
        const LivenessCase c = drawLivenessCase(seed);
        const char *why = rejectedField(c.cfg);
        if (why == nullptr || why != field)
            continue;
        ++rejected;
        EXPECT_DEATH(runLivenessCase(c), field + " must be >= 1")
            << "seed " << seed;
    }
    EXPECT_GT(rejected, 10);
}

TEST(ErLivenessDeathTest, DrawsWithoutAReservationAreRejected)
{
    expectDrawsRejectedFor("perVcReservedFlits");
}

TEST(ErLivenessDeathTest, DrawsWithoutAStaticBufferAreRejected)
{
    expectDrawsRejectedFor("staticPerVcFlits");
}

}  // namespace
