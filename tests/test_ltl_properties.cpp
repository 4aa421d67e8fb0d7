/**
 * @file
 * Property-based LTL suites: the protocol's core guarantee — exactly-
 * once, in-order delivery per connection — must hold across a matrix of
 * fault conditions (loss rate x NACK enablement x message size), window
 * sizes, bidirectional traffic, and connection churn.
 */
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <tuple>
#include <vector>

#include "ltl/ltl_engine.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ccsim;
using ltl::LtlConfig;
using ltl::LtlEngine;
using ltl::LtlMessage;
using sim::EventQueue;

/** Two engines over a lossy/reordering pipe (A->B data faults only). */
struct FaultyPair {
    EventQueue eq;
    std::unique_ptr<LtlEngine> a, b;
    sim::TimePs oneWay = sim::fromNanos(900);
    double lossProb = 0.0;
    double dupProb = 0.0;
    double reorderProb = 0.0;
    sim::Rng rng{4242};
    net::PacketPtr held;  ///< one-deep reorder buffer
    std::vector<LtlMessage> delivered;

    explicit FaultyPair(LtlConfig base = LtlConfig{})
    {
        LtlConfig ca = base;
        ca.localIp = {1};
        LtlConfig cb = base;
        cb.localIp = {2};
        a = std::make_unique<LtlEngine>(
            eq, ca, [this](const net::PacketPtr &p) { fault(p); });
        b = std::make_unique<LtlEngine>(
            eq, cb, [this](const net::PacketPtr &p) {
                eq.scheduleAfter(oneWay,
                                 [this, p] { a->onNetworkPacket(p); });
            });
        b->setDeliveryHandler(
            [this](const LtlMessage &m) { delivered.push_back(m); });
    }

    void deliver(const net::PacketPtr &p)
    {
        eq.scheduleAfter(oneWay, [this, p] { b->onNetworkPacket(p); });
    }

    void fault(const net::PacketPtr &p)
    {
        auto hdr = std::static_pointer_cast<ltl::LtlHeader>(p->meta);
        const bool data = hdr && (hdr->flags & ltl::kFlagData);
        if (!data) {
            deliver(p);
            return;
        }
        if (rng.bernoulli(lossProb))
            return;
        if (rng.bernoulli(reorderProb)) {
            if (held) {
                // Swap: release the held one after this one.
                deliver(p);
                deliver(held);
                held = nullptr;
            } else {
                held = p;
            }
            return;
        }
        deliver(p);
        if (held) {
            deliver(held);
            held = nullptr;
        }
        if (rng.bernoulli(dupProb))
            eq.scheduleAfter(oneWay + 50, [this, p] {
                b->onNetworkPacket(p);
            });
    }

    std::uint16_t connect()
    {
        return a->openSend({2}, b->openReceive(0));
    }
};

// ---------------------------------------------------------------------
// Matrix: loss x NACK x message size.
// ---------------------------------------------------------------------

class LtlFaultMatrix
    : public ::testing::TestWithParam<std::tuple<double, bool, int>>
{
};

TEST_P(LtlFaultMatrix, ExactlyOnceInOrder)
{
    auto [loss, nack, msg_bytes] = GetParam();
    LtlConfig cfg;
    cfg.enableNack = nack;
    FaultyPair pair(cfg);
    pair.lossProb = loss;
    pair.dupProb = loss / 2;
    pair.reorderProb = loss / 2;
    const auto conn = pair.connect();

    const int kMessages = 150;
    for (int i = 0; i < kMessages; ++i) {
        pair.eq.scheduleAfter(i * 3 * sim::kMicrosecond,
                              [&pair, conn, i, msg_bytes] {
                                  pair.a->sendMessage(
                                      conn,
                                      static_cast<std::uint32_t>(msg_bytes),
                                      std::make_shared<int>(i));
                              });
    }
    pair.eq.runUntil(sim::fromSeconds(2.0));
    ASSERT_EQ(pair.delivered.size(), static_cast<std::size_t>(kMessages))
        << "loss=" << loss << " nack=" << nack << " size=" << msg_bytes;
    for (int i = 0; i < kMessages; ++i) {
        EXPECT_EQ(
            *std::static_pointer_cast<int>(pair.delivered[i].payload), i);
        EXPECT_EQ(pair.delivered[i].bytes,
                  static_cast<std::uint32_t>(msg_bytes));
    }
}

INSTANTIATE_TEST_SUITE_P(
    FaultSweep, LtlFaultMatrix,
    ::testing::Combine(::testing::Values(0.0, 0.01, 0.05, 0.15),
                       ::testing::Bool(),
                       ::testing::Values(64, 1408, 5000)));

// ---------------------------------------------------------------------
// Window sweep: tiny windows still deliver everything, just slower.
// ---------------------------------------------------------------------

class LtlWindowSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(LtlWindowSweep, DeliversAllWithAnyWindow)
{
    LtlConfig cfg;
    cfg.sendWindowFrames = static_cast<std::uint32_t>(GetParam());
    FaultyPair pair(cfg);
    const auto conn = pair.connect();
    for (int i = 0; i < 60; ++i)
        pair.a->sendMessage(conn, 1408, std::make_shared<int>(i));
    pair.eq.runUntil(sim::fromSeconds(1.0));
    ASSERT_EQ(pair.delivered.size(), 60u);
    for (int i = 0; i < 60; ++i)
        EXPECT_EQ(
            *std::static_pointer_cast<int>(pair.delivered[i].payload), i);
}

INSTANTIATE_TEST_SUITE_P(Windows, LtlWindowSweep,
                         ::testing::Values(1, 2, 4, 16, 128));

// ---------------------------------------------------------------------
// Bidirectional traffic on one engine pair.
// ---------------------------------------------------------------------

TEST(LtlBidirectional, IndependentDirectionsDontInterfere)
{
    FaultyPair pair;
    pair.lossProb = 0.02;
    const auto a_to_b = pair.connect();
    // Reverse direction: B sends to A.
    std::vector<LtlMessage> to_a;
    pair.a->setDeliveryHandler(
        [&to_a](const LtlMessage &m) { to_a.push_back(m); });
    const auto b_to_a = pair.b->openSend({1}, pair.a->openReceive(0));

    for (int i = 0; i < 100; ++i) {
        pair.eq.scheduleAfter(i * 2 * sim::kMicrosecond, [&, i] {
            pair.a->sendMessage(a_to_b, 256, std::make_shared<int>(i));
            pair.b->sendMessage(b_to_a, 512, std::make_shared<int>(1000 + i));
        });
    }
    pair.eq.runUntil(sim::fromSeconds(1.0));
    ASSERT_EQ(pair.delivered.size(), 100u);
    ASSERT_EQ(to_a.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(
            *std::static_pointer_cast<int>(pair.delivered[i].payload), i);
        EXPECT_EQ(*std::static_pointer_cast<int>(to_a[i].payload),
                  1000 + i);
    }
}

// ---------------------------------------------------------------------
// Connection table lifecycle.
// ---------------------------------------------------------------------

TEST(LtlConnections, TableSlotsAreReusedAfterClose)
{
    LtlConfig cfg;
    cfg.maxConnections = 4;
    FaultyPair pair(cfg);
    std::vector<std::uint16_t> conns;
    for (int i = 0; i < 4; ++i)
        conns.push_back(pair.a->openSend({2}, 0));
    // Table full now; close one and reopen.
    pair.a->closeSend(conns[2]);
    const auto reused = pair.a->openSend({2}, 0);
    EXPECT_EQ(reused, conns[2]);
}

TEST(LtlConnections, MultipleStreamsToOneReceiverStayIsolated)
{
    FaultyPair pair;
    pair.lossProb = 0.03;
    // Two independent connections A->B, distinct receive targets.
    const auto rx1 = pair.b->openReceive(0);
    const auto rx2 = pair.b->openReceive(1);
    const auto tx1 = pair.a->openSend({2}, rx1);
    const auto tx2 = pair.a->openSend({2}, rx2);

    for (int i = 0; i < 80; ++i) {
        pair.eq.scheduleAfter(i * 2 * sim::kMicrosecond, [&, i] {
            pair.a->sendMessage(tx1, 128, std::make_shared<int>(i));
            pair.a->sendMessage(tx2, 128, std::make_shared<int>(10000 + i));
        });
    }
    pair.eq.runUntil(sim::fromSeconds(1.0));
    ASSERT_EQ(pair.delivered.size(), 160u);
    // Per-connection order: filter by conn and check monotone payloads.
    int expect1 = 0, expect2 = 10000;
    for (const auto &m : pair.delivered) {
        const int v = *std::static_pointer_cast<int>(m.payload);
        if (m.conn == rx1)
            EXPECT_EQ(v, expect1++);
        else
            EXPECT_EQ(v, expect2++);
    }
    EXPECT_EQ(expect1, 80);
    EXPECT_EQ(expect2, 10080);
}

// ---------------------------------------------------------------------
// Frame accounting: every frame ever sent is eventually acked,
// abandoned, or still in flight — at any instant, under any fault mix.
// The books are read through the observability registry, the same way
// an external monitor would.
// ---------------------------------------------------------------------

class LtlAccountingSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(LtlAccountingSweep, FrameAccountingBalancesUnderLoss)
{
    const double loss = GetParam();
    obs::Observability hub;
    FaultyPair pair;
    pair.lossProb = loss;
    pair.dupProb = loss / 2;
    pair.reorderProb = loss / 2;
    pair.a->attachObservability(&hub, "A");
    const auto conn = pair.connect();

    auto balance = [&hub, loss](const char *when) {
        const double sent = hub.registry.probeValue("ltl.A.frames_sent");
        const double acked = hub.registry.probeValue("ltl.A.frames_acked");
        const double abandoned =
            hub.registry.probeValue("ltl.A.frames_abandoned");
        const double in_flight =
            hub.registry.probeValue("ltl.A.frames_in_flight");
        EXPECT_EQ(sent, acked + abandoned + in_flight)
            << when << " (loss=" << loss << "): sent=" << sent
            << " acked=" << acked << " abandoned=" << abandoned
            << " in_flight=" << in_flight;
    };

    const int kMessages = 120;
    for (int i = 0; i < kMessages; ++i) {
        pair.eq.scheduleAfter(i * 3 * sim::kMicrosecond,
                              [&pair, conn] {
                                  pair.a->sendMessage(conn, 1408);
                              });
    }
    // The invariant holds at arbitrary instants mid-run, with frames
    // genuinely in flight — not only at quiescence.
    for (const int us : {40, 100, 250, 500})
        pair.eq.scheduleAfter(us * sim::kMicrosecond,
                              [&balance] { balance("mid-run"); });
    pair.eq.runUntil(sim::fromSeconds(2.0));

    balance("after drain");
    EXPECT_EQ(hub.registry.probeValue("ltl.A.frames_in_flight"), 0.0);
    EXPECT_EQ(hub.registry.probeValue("ltl.A.frames_sent"),
              double(pair.a->framesSent()));

    // Closing the connection writes off anything unacked; the books
    // must still balance afterwards.
    pair.a->closeSend(conn);
    balance("after close");
}

INSTANTIATE_TEST_SUITE_P(LossSweep, LtlAccountingSweep,
                         ::testing::Values(0.0, 0.02, 0.08, 0.2));

TEST(LtlAccounting, InFlightCountMatchesAWalkOfTheSendTable)
{
    // framesInFlight() is a running count; a walk over every send
    // connection must agree with it after random sends, acks, losses,
    // timeouts, retry-exhaustion failures, closes, resyncs and quiesce
    // drains that abandon frames.
    for (std::uint64_t seed : {5ull, 61ull, 2024ull}) {
        LtlConfig cfg;
        cfg.maxRetries = 3;
        FaultyPair pair(cfg);
        pair.rng = sim::Rng(seed);
        sim::Rng rng(seed * 7919);
        struct Conn {
            std::uint16_t tx, rx;
        };
        std::vector<Conn> conns;
        const auto open = [&] {
            const std::uint16_t rx = pair.b->openReceive(0);
            conns.push_back({pair.a->openSend({2}, rx), rx});
        };
        for (int i = 0; i < 4; ++i)
            open();
        for (int op = 0; op < 3000; ++op) {
            Conn &c = conns[rng.next() % conns.size()];
            const auto roll = rng.next() % 100;
            if (roll < 35) {
                if (pair.a->quiesceState() == LtlEngine::QuiesceState::kActive &&
                    !pair.a->sendConnectionFailed(c.tx)) {
                    static constexpr std::uint32_t kSizes[] = {64, 1408,
                                                               5000};
                    pair.a->sendMessage(c.tx, kSizes[rng.next() % 3]);
                }
            } else if (roll < 62) {
                pair.eq.runFor(
                    static_cast<sim::TimePs>(rng.next() % 30'000'000));
            } else if (roll < 70) {
                static constexpr double kLoss[] = {0.0, 0.05, 1.0};
                pair.lossProb = kLoss[rng.next() % 3];
            } else if (roll < 75) {
                pair.eq.runFor(sim::fromMicros(
                    static_cast<double>(rng.next() % 1000)));
            } else if (roll < 81) {
                pair.a->closeSend(c.tx);
                pair.b->closeReceive(c.rx);
                c = conns.back();
                conns.pop_back();
                open();
            } else if (roll < 86) {
                pair.a->resyncSend(c.tx);
                pair.b->resyncReceive(c.rx);
            } else if (roll < 89) {
                if (pair.a->quiesceState() == LtlEngine::QuiesceState::kActive)
                    pair.a->beginQuiesce(sim::fromMicros(20));
            } else if (roll < 93) {
                if (pair.a->quiesceState() ==
                    LtlEngine::QuiesceState::kQuiesced)
                    pair.a->endQuiesce();
            }
            std::uint64_t walk = 0;
            for (std::uint16_t tx = 0; tx < cfg.maxConnections; ++tx)
                walk += pair.a->unackedFrames(tx);
            ASSERT_EQ(pair.a->framesInFlight(), walk)
                << "seed " << seed << ", op " << op;
            ASSERT_EQ(pair.a->framesSent(),
                      pair.a->framesAcked() + pair.a->framesAbandoned() +
                          pair.a->framesInFlight())
                << "seed " << seed << ", op " << op;
        }
        // The trace reached the paths that shrink the count.
        EXPECT_GT(pair.a->connectionFailures(), 0u) << "seed " << seed;
        EXPECT_GT(pair.a->framesAbandoned(), 0u) << "seed " << seed;
        EXPECT_GT(pair.a->framesAcked(), 0u) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Pacing accuracy of the bandwidth limiter.
// ---------------------------------------------------------------------

class LtlRateSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(LtlRateSweep, AchievedRateTracksLimit)
{
    const double limit_gbps = GetParam();
    LtlConfig cfg;
    cfg.bandwidthLimitGbps = limit_gbps;
    cfg.enableDcqcn = false;
    cfg.sendWindowFrames = 4096;
    cfg.unackedStoreBytes = 64 * 1024 * 1024;
    FaultyPair pair(cfg);
    const auto conn = pair.connect();
    const int kMessages = 300;
    for (int i = 0; i < kMessages; ++i)
        pair.a->sendMessage(conn, 1408);
    pair.eq.runAll();
    const double total_bits = kMessages * (1408.0 + 32 + 46) * 8;
    const double seconds = sim::toSeconds(pair.eq.now());
    const double achieved = total_bits / seconds / 1e9;
    // Completion time includes the final RTT; allow generous bounds.
    EXPECT_GT(achieved, limit_gbps * 0.6);
    EXPECT_LT(achieved, limit_gbps * 1.15);
}

INSTANTIATE_TEST_SUITE_P(Rates, LtlRateSweep,
                         ::testing::Values(0.5, 2.0, 10.0, 40.0));

}  // namespace
