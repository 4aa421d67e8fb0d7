/**
 * @file
 * Elastic Router tests: message delivery, VC separation, credit flow
 * control (elastic vs static), U-turns, wormhole integrity under
 * contention, multi-router composition (ring), and the configurations
 * rejected because they cannot make progress.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "router/elastic_router.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace ccsim;
using router::ElasticRouter;
using router::ErConfig;
using router::ErEndpoint;
using router::ErMessagePtr;
using sim::EventQueue;

struct Harness {
    EventQueue eq;
    std::unique_ptr<ElasticRouter> er;
    std::vector<std::unique_ptr<ErEndpoint>> eps;
    std::map<int, std::vector<ErMessagePtr>> received;

    explicit Harness(ErConfig cfg)
    {
        er = std::make_unique<ElasticRouter>(eq, cfg);
        for (int p = 0; p < cfg.numPorts; ++p) {
            eps.push_back(std::make_unique<ErEndpoint>(eq, *er, p, p));
            er->setOutputSink(p, eps.back().get());
            const int port = p;
            eps.back()->setMessageHandler(
                [this, port](const ErMessagePtr &m) {
                    received[port].push_back(m);
                });
        }
    }
};

TEST(ElasticRouter, DeliversSingleFlitMessage)
{
    Harness h(ErConfig{});
    h.eps[0]->sendMessage(2, 0, 16);
    h.eq.runAll();
    ASSERT_EQ(h.received[2].size(), 1u);
    EXPECT_EQ(h.received[2][0]->srcEndpoint, 0);
    EXPECT_EQ(h.received[2][0]->sizeBytes, 16u);
}

TEST(ElasticRouter, DeliversMultiFlitMessage)
{
    Harness h(ErConfig{});
    h.eps[1]->sendMessage(3, 1, 1500);  // ~47 flits at 32 B
    h.eq.runAll();
    ASSERT_EQ(h.received[3].size(), 1u);
    EXPECT_EQ(h.received[3][0]->sizeBytes, 1500u);
    EXPECT_EQ(h.er->messagesRouted(), 1u);
    EXPECT_EQ(h.er->flitsRouted(), (1500u + 31) / 32);
}

TEST(ElasticRouter, SupportsUturn)
{
    Harness h(ErConfig{});
    h.eps[2]->sendMessage(2, 0, 64);  // to itself
    h.eq.runAll();
    ASSERT_EQ(h.received[2].size(), 1u);
}

TEST(ElasticRouter, ManyMessagesAllPortsAllDelivered)
{
    ErConfig cfg;
    cfg.numPorts = 4;
    cfg.numVcs = 2;
    Harness h(cfg);
    const int kPerPair = 20;
    int expected[4] = {0, 0, 0, 0};
    for (int src = 0; src < 4; ++src) {
        for (int dst = 0; dst < 4; ++dst) {
            for (int i = 0; i < kPerPair; ++i) {
                h.eps[src]->sendMessage(dst, (src + i) % 2, 96);
                ++expected[dst];
            }
        }
    }
    h.eq.runAll();
    for (int dst = 0; dst < 4; ++dst)
        EXPECT_EQ(static_cast<int>(h.received[dst].size()), expected[dst]);
}

TEST(ElasticRouter, MessagesOnOneVcArriveInOrder)
{
    Harness h(ErConfig{});
    for (std::uint32_t i = 0; i < 50; ++i) {
        auto msg = std::make_shared<router::ErMessage>();
        msg->dstEndpoint = 1;
        msg->vc = 0;
        msg->sizeBytes = 64 + i;  // distinguishable
        h.eps[0]->sendMessage(msg);
    }
    h.eq.runAll();
    ASSERT_EQ(h.received[1].size(), 50u);
    for (std::uint32_t i = 0; i < 50; ++i)
        EXPECT_EQ(h.received[1][i]->sizeBytes, 64 + i);
}

TEST(ElasticRouter, WormholeNoInterleavingUnderContention)
{
    // Two inputs stream large messages to the same output on the same VC;
    // wormhole locking must keep each message contiguous (delivery order
    // of the two messages is arbitrary but both must arrive intact, which
    // the per-message reassembly asserts by construction: a corrupted
    // interleave would panic in the router).
    ErConfig cfg;
    cfg.numPorts = 3;
    cfg.numVcs = 1;
    Harness h(cfg);
    h.eps[0]->sendMessage(2, 0, 4096);
    h.eps[1]->sendMessage(2, 0, 4096);
    h.eq.runAll();
    EXPECT_EQ(h.received[2].size(), 2u);
}

TEST(ElasticRouter, CreditBackpressureQueuesInEndpoint)
{
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 1;
    cfg.perVcReservedFlits = 2;
    cfg.sharedPoolFlits = 2;
    Harness h(cfg);
    // Slow consumer: output drains one flit per 16 cycles.
    h.er->setOutputCyclesPerFlit(1, 16);
    h.eps[0]->sendMessage(1, 0, 4096);  // 128 flits >> 4 credits
    // Immediately after sending, most flits wait in the endpoint.
    EXPECT_GT(h.eps[0]->backlogFlits(), 100u);
    h.eq.runAll();
    ASSERT_EQ(h.received[1].size(), 1u);
    EXPECT_EQ(h.eps[0]->backlogFlits(), 0u);
}

TEST(ElasticRouter, InjectWithoutCreditPanics)
{
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 1;
    cfg.policy = router::CreditPolicy::kStatic;
    cfg.staticPerVcFlits = 1;
    EventQueue eq;
    ElasticRouter er(eq, cfg);
    router::Flit flit;
    flit.vc = 0;
    flit.dstEndpoint = 1;
    er.injectFlit(0, flit);
    EXPECT_DEATH(er.injectFlit(0, flit), "credit");
}

TEST(ElasticRouter, BadRoutePanics)
{
    EventQueue eq;
    ElasticRouter er(eq, ErConfig{});
    er.setRouteFn([](int) { return 99; });
    router::Flit flit;
    flit.dstEndpoint = 1;
    EXPECT_DEATH(
        {
            er.injectFlit(0, flit);
            eq.runAll();
        },
        "bad port 99");
}

TEST(ElasticRouter, BodyFlitWithoutHeadPanics)
{
    // A body flit at the front of an idle input VC has no wormhole to
    // follow: the sender interleaved or dropped a head.
    EventQueue eq;
    ElasticRouter er(eq, ErConfig{});
    router::Flit flit;
    flit.kind = router::FlitKind::kBody;
    flit.dstEndpoint = 1;
    EXPECT_DEATH(
        {
            er.injectFlit(0, flit);
            eq.runAll();
        },
        "wormhole corruption");
}

// --- forward progress: no accepted configuration strands a message ------

/** 2 ports, 2 VCs, elastic, a shared pool of 8 and @p reserved per VC. */
ErConfig
twoVcConfig(int reserved)
{
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 2;
    cfg.policy = router::CreditPolicy::kElastic;
    cfg.perVcReservedFlits = reserved;
    cfg.sharedPoolFlits = 8;
    return cfg;
}

TEST(ElasticRouterDeathTest, ZeroReservationIsRejected)
{
    // With no reservation, a message on VC 1 that waits for the shared
    // pool is never injected once VC 0's backlog is gone (the credit
    // return pumps only VC 0): the queue would drain with 2 flits left
    // in the endpoint.
    EXPECT_DEATH(
        {
            Harness h(twoVcConfig(0));
            h.eps[0]->sendMessage(1, 0, 16 * 32);
            h.eps[0]->sendMessage(1, 1, 2 * 32);
            h.eq.runUntil(sim::fromMillis(1.0));
        },
        "perVcReservedFlits must be >= 1");
}

TEST(ElasticRouterDeathTest, ZeroStaticBufferIsRejected)
{
    ErConfig cfg;
    cfg.policy = router::CreditPolicy::kStatic;
    cfg.staticPerVcFlits = 0;
    EventQueue eq;
    EXPECT_DEATH(ElasticRouter(eq, cfg), "staticPerVcFlits must be >= 1");
    // Each policy checks only its own field.
    cfg.perVcReservedFlits = 0;
    cfg.staticPerVcFlits = 1;
    ElasticRouter accepted(eq, cfg);
    EXPECT_EQ(accepted.freeCredits(0, 0), 1);
}

TEST(ElasticRouter, ReservationOfOneDeliversBothVcs)
{
    Harness h(twoVcConfig(1));
    h.eps[0]->sendMessage(1, 0, 16 * 32);
    h.eps[0]->sendMessage(1, 1, 2 * 32);
    h.eq.runUntil(sim::fromMillis(1.0));
    ASSERT_EQ(h.received[1].size(), 2u);
    EXPECT_EQ(h.received[1][0]->vc + h.received[1][1]->vc, 1);
    EXPECT_EQ(h.eps[0]->backlogFlits(), 0u);
    EXPECT_TRUE(h.eq.empty());
}

TEST(ElasticRouterDeathTest, RouteToOutputWithoutSinkPanics)
{
    // Output 1 has no sink: without the panic its flits would wait there
    // while the router ticks every cycle, forever.
    EXPECT_DEATH(
        {
            EventQueue eq;
            ElasticRouter er(eq, ErConfig{.name = "er7", .numPorts = 2});
            ErEndpoint src(eq, er, 0, 0);
            er.setOutputSink(0, &src);
            src.sendMessage(1, 0, 64);
            eq.runAll();
        },
        "er7: a head flit is routed to output 1, which has no sink");
}

TEST(ElasticRouter, ElasticPolicySharesPoolAcrossVcs)
{
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 4;
    cfg.policy = router::CreditPolicy::kElastic;
    cfg.perVcReservedFlits = 1;
    cfg.sharedPoolFlits = 8;
    EventQueue eq;
    ElasticRouter er(eq, cfg);
    // One VC can consume its reservation plus the whole shared pool.
    router::Flit flit;
    flit.vc = 0;
    flit.dstEndpoint = 1;
    int accepted = 0;
    while (er.canAccept(0, 0) && accepted < 100) {
        er.injectFlit(0, flit);
        ++accepted;
    }
    EXPECT_EQ(accepted, 1 + 8);
    // Other VCs still have their reservations.
    for (int vc = 1; vc < 4; ++vc)
        EXPECT_TRUE(er.canAccept(0, vc));
}

TEST(ElasticRouter, StaticPolicyIsolatesVcs)
{
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 2;
    cfg.policy = router::CreditPolicy::kStatic;
    cfg.staticPerVcFlits = 3;
    EventQueue eq;
    ElasticRouter er(eq, cfg);
    router::Flit flit;
    flit.vc = 0;
    flit.dstEndpoint = 1;
    for (int i = 0; i < 3; ++i)
        er.injectFlit(0, flit);
    EXPECT_FALSE(er.canAccept(0, 0));
    EXPECT_TRUE(er.canAccept(0, 1));
}

TEST(ElasticRouter, ElasticNeedsFewerBuffersForSameTraffic)
{
    // The paper's rationale: a shared pool reduces aggregate buffering.
    // Same offered traffic, same total buffer budget per input (12):
    // elastic = 4 VCs x 1 reserved + 8 shared; static = 4 VCs x 3.
    auto run = [](router::CreditPolicy policy) {
        ErConfig cfg;
        cfg.numPorts = 4;
        cfg.numVcs = 4;
        cfg.policy = policy;
        cfg.perVcReservedFlits = 1;
        cfg.sharedPoolFlits = 8;
        cfg.staticPerVcFlits = 3;
        Harness h(cfg);
        // Bursty: all traffic on one VC at a time.
        for (int src = 0; src < 4; ++src)
            h.eps[src]->sendMessage((src + 1) % 4, 0, 2048);
        h.eq.runAll();
        std::size_t delivered = 0;
        for (auto &[port, msgs] : h.received)
            delivered += msgs.size();
        return delivered;
    };
    EXPECT_EQ(run(router::CreditPolicy::kElastic), 4u);
    EXPECT_EQ(run(router::CreditPolicy::kStatic), 4u);
}

TEST(ElasticRouter, RingCompositionRoutesAcrossRouters)
{
    // Two ERs composed: endpoint 0/1 on router A (ports 0,1), endpoints
    // 2/3 on router B (ports 0,1); port 2 of each router connects to the
    // other (credit-respecting shim).
    EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 3;
    cfg.numVcs = 1;
    ElasticRouter a(eq, cfg), b(eq, cfg);
    a.setRouteFn([](int dst) { return dst <= 1 ? dst : 2; });
    b.setRouteFn([](int dst) { return dst >= 2 ? dst - 2 : 2; });

    /** Forwards flits from one router's output into the other's input. */
    class Bridge : public router::FlitSink
    {
      public:
        Bridge(ElasticRouter &target, int port) : er(target), inPort(port) {}
        void acceptFlit(const router::Flit &flit) override
        {
            // Inter-router links carry their own credit loop; for the
            // test, buffer-free forwarding suffices (credits checked).
            ASSERT_TRUE(er.canAccept(inPort, flit.vc));
            er.injectFlit(inPort, flit);
        }

      private:
        ElasticRouter &er;
        int inPort;
    };

    Bridge a_to_b(b, 2), b_to_a(a, 2);
    a.setOutputSink(2, &a_to_b);
    b.setOutputSink(2, &b_to_a);

    ErEndpoint e0(eq, a, 0, 0), e1(eq, a, 1, 1);
    ErEndpoint e2(eq, b, 0, 2), e3(eq, b, 1, 3);
    a.setOutputSink(0, &e0);
    a.setOutputSink(1, &e1);
    b.setOutputSink(0, &e2);
    b.setOutputSink(1, &e3);

    std::vector<int> arrived;
    e3.setMessageHandler(
        [&](const ErMessagePtr &m) { arrived.push_back(m->srcEndpoint); });
    e0.sendMessage(3, 0, 256);  // crosses both routers
    eq.runAll();
    ASSERT_EQ(arrived.size(), 1u);
    EXPECT_EQ(arrived[0], 0);
}

TEST(ElasticRouter, LatencyScalesWithPipelineAndClock)
{
    // One-flit message latency = (1 cycle arb + pipeline) at the ER clock.
    ErConfig cfg;
    cfg.clockMhz = 175.0;
    cfg.pipelineCycles = 2;
    Harness h(cfg);
    sim::TimePs arrival = -1;
    h.eps[1]->setMessageHandler(
        [&](const ErMessagePtr &) { arrival = h.eq.now(); });
    h.eps[0]->sendMessage(1, 0, 16);
    h.eq.runAll();
    const sim::TimePs cycle = sim::cyclePeriod(175.0);
    EXPECT_GE(arrival, 2 * cycle);
    EXPECT_LE(arrival, 4 * cycle);
}

}  // namespace
