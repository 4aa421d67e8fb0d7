/**
 * @file
 * Multi-router composition tests (ring and 2-D mesh), exercising the
 * credit-respecting inter-router links and the generated routing tables.
 */
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "router/er_network.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ccsim;
using router::ErMessagePtr;
using router::ErNetwork;
using sim::EventQueue;

TEST(ErRing, AllPairsDeliver)
{
    EventQueue eq;
    auto net = ErNetwork::ring(eq, 4, 2);
    ASSERT_EQ(net->numEndpoints(), 8);

    std::map<int, int> received;
    for (int e = 0; e < net->numEndpoints(); ++e) {
        net->endpoint(e).setMessageHandler(
            [&received, e](const ErMessagePtr &) { ++received[e]; });
    }
    for (int src = 0; src < 8; ++src) {
        for (int dst = 0; dst < 8; ++dst) {
            if (src != dst)
                net->endpoint(src).sendMessage(dst, 0, 128);
        }
    }
    eq.runAll();
    for (int e = 0; e < 8; ++e)
        EXPECT_EQ(received[e], 7) << "endpoint " << e;
    EXPECT_EQ(net->linkBacklog(), 0u);
}

TEST(ErRing, ShortestDirectionLatency)
{
    EventQueue eq;
    auto net = ErNetwork::ring(eq, 8, 1);
    // Neighbor hop (0 -> 1) must be much faster than the diameter hop
    // (0 -> 4, four routers away either direction).
    sim::TimePs t_near = 0, t_far = 0;
    net->endpoint(1).setMessageHandler(
        [&](const ErMessagePtr &) { t_near = eq.now(); });
    net->endpoint(4).setMessageHandler(
        [&](const ErMessagePtr &) { t_far = eq.now(); });
    net->endpoint(0).sendMessage(1, 0, 32);
    eq.runAll();
    const sim::TimePs start_far = eq.now();
    net->endpoint(0).sendMessage(4, 0, 32);
    eq.runAll();
    EXPECT_GT(t_far - start_far, t_near);
    EXPECT_LT(t_far - start_far, 4 * t_near + sim::fromMicros(1));
}

TEST(ErRing, OrderPreservedPerVcUnderLoad)
{
    EventQueue eq;
    auto net = ErNetwork::ring(eq, 3, 1);
    std::vector<int> got;
    net->endpoint(2).setMessageHandler([&](const ErMessagePtr &m) {
        got.push_back(*std::static_pointer_cast<int>(m->payload));
    });
    for (int i = 0; i < 40; ++i)
        net->endpoint(0).sendMessage(2, 0, 256, std::make_shared<int>(i));
    eq.runAll();
    ASSERT_EQ(got.size(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(got[i], i);
}

class MeshShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MeshShapes, RandomTrafficAllDelivered)
{
    auto [w, h, epr] = GetParam();
    EventQueue eq;
    auto net = ErNetwork::mesh(eq, w, h, epr);
    ASSERT_EQ(net->numEndpoints(), w * h * epr);

    std::map<int, int> received, expected;
    for (int e = 0; e < net->numEndpoints(); ++e) {
        net->endpoint(e).setMessageHandler(
            [&received, e](const ErMessagePtr &) { ++received[e]; });
    }
    sim::Rng rng(321);
    for (int i = 0; i < 150; ++i) {
        const int src = static_cast<int>(
            rng.uniformInt(std::uint64_t(net->numEndpoints())));
        const int dst = static_cast<int>(
            rng.uniformInt(std::uint64_t(net->numEndpoints())));
        if (src == dst)
            continue;
        const int vc = static_cast<int>(rng.uniformInt(std::uint64_t{2}));
        net->endpoint(src).sendMessage(
            dst, vc,
            static_cast<std::uint32_t>(32 + rng.uniformInt(
                                                std::uint64_t{480})));
        ++expected[dst];
    }
    eq.runAll();
    for (const auto &[dst, count] : expected)
        EXPECT_EQ(received[dst], count) << "endpoint " << dst;
    EXPECT_EQ(net->linkBacklog(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshShapes,
                         ::testing::Values(std::tuple{2, 2, 1},
                                           std::tuple{3, 3, 2},
                                           std::tuple{4, 2, 2},
                                           std::tuple{1, 4, 1}));

TEST(ErMesh, DimensionOrderPathLatencyScalesWithDistance)
{
    EventQueue eq;
    auto net = ErNetwork::mesh(eq, 4, 4, 1);
    auto time_to = [&](int dst) {
        sim::TimePs t = -1;
        net->endpoint(dst).setMessageHandler(
            [&t, &eq](const ErMessagePtr &) { t = eq.now(); });
        const sim::TimePs start = eq.now();
        net->endpoint(0).sendMessage(dst, 0, 32);
        eq.runAll();
        return t - start;
    };
    const auto one_hop = time_to(1);    // (1,0)
    const auto far = time_to(15);       // (3,3): 6 hops
    EXPECT_GT(far, 3 * one_hop);
}

TEST(ErMesh, HotspotBackpressuresWithoutLoss)
{
    EventQueue eq;
    router::ErConfig base;
    base.perVcReservedFlits = 2;
    base.sharedPoolFlits = 6;  // tight buffers: links must back-pressure
    auto net = ErNetwork::mesh(eq, 3, 1, 1, base);
    int received = 0;
    net->endpoint(2).setMessageHandler(
        [&](const ErMessagePtr &) { ++received; });
    // Both other routers blast the rightmost endpoint.
    for (int i = 0; i < 30; ++i) {
        net->endpoint(0).sendMessage(2, 0, 1024);
        net->endpoint(1).sendMessage(2, 0, 1024);
    }
    eq.runAll();
    EXPECT_EQ(received, 60);
    EXPECT_EQ(net->linkBacklog(), 0u);
}

TEST(ErMesh, BlockedVcDoesNotStallOtherVcInLinks)
{
    // Two-VC hotspot traffic over tight buffers. A link that queued both
    // VCs in one FIFO let a blocked VC-0 flit hold back VC-1 flits behind
    // it (head-of-line blocking) and deadlocked this mesh; per-VC link
    // queues deliver everything. Bounded with runUntil because a
    // deadlocked mesh never drains its event queue.
    EventQueue eq;
    router::ErConfig base;
    base.perVcReservedFlits = 2;
    base.sharedPoolFlits = 6;
    auto net = ErNetwork::mesh(eq, 3, 2, 2, base);
    const int n = net->numEndpoints();
    int received = 0;
    for (int e = 0; e < n; ++e) {
        net->endpoint(e).setMessageHandler(
            [&received](const ErMessagePtr &) { ++received; });
    }
    sim::Rng rng(613);
    int expected = 0;
    for (int i = 0; i < 600; ++i) {
        const int src = static_cast<int>(rng.uniformInt(std::uint64_t(n)));
        const int dst =
            rng.uniformInt(std::uint64_t{3}) == 0
                ? 0
                : static_cast<int>(rng.uniformInt(std::uint64_t(n)));
        const int vc = static_cast<int>(rng.uniformInt(std::uint64_t{2}));
        const auto bytes = static_cast<std::uint32_t>(
            32 + rng.uniformInt(std::uint64_t{480}));
        if (src == dst)
            continue;
        net->endpoint(src).sendMessage(dst, vc, bytes);
        ++expected;
    }
    eq.runUntil(sim::fromMicros(2000));
    EXPECT_EQ(received, expected);
    EXPECT_EQ(net->linkBacklog(), 0u);
    EXPECT_TRUE(eq.empty());
}

}  // namespace
