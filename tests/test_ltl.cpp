/**
 * @file
 * LTL protocol tests over a controllable fake network: reliable in-order
 * exactly-once delivery under loss, duplication, and reordering; NACK
 * fast retransmit vs timeout; DC-QCN rate reaction; failure detection;
 * bandwidth limiting; the RED policer.
 */
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ltl/dcqcn.hpp"
#include "ltl/ltl_engine.hpp"
#include "ltl/red_policer.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace {

using namespace ccsim;
using ltl::LtlConfig;
using ltl::LtlEngine;
using ltl::LtlMessage;
using sim::EventQueue;

/**
 * Two LTL engines joined by a fault-injectable pipe with a fixed one-way
 * delay. Faults apply to data frames from A to B only (control traffic
 * and the reverse direction are clean), so the test can reason precisely.
 */
struct Pair {
    EventQueue eq;
    std::unique_ptr<LtlEngine> a;
    std::unique_ptr<LtlEngine> b;
    sim::TimePs oneWay = sim::fromNanos(800);

    // Fault injection knobs for A->B data frames.
    std::function<bool(const net::PacketPtr &)> dropIf;
    bool duplicateNext = false;
    int reorderDepth = 0;  ///< hold back this many frames, then release
    std::deque<net::PacketPtr> held;

    std::vector<LtlMessage> delivered;

    explicit Pair(LtlConfig base = LtlConfig{})
    {
        LtlConfig ca = base;
        ca.localIp = {1};
        LtlConfig cb = base;
        cb.localIp = {2};
        a = std::make_unique<LtlEngine>(eq, ca,
                                        [this](const net::PacketPtr &p) {
                                            forwardAtoB(p);
                                        });
        b = std::make_unique<LtlEngine>(eq, cb,
                                        [this](const net::PacketPtr &p) {
                                            // B->A is clean.
                                            eq.scheduleAfter(oneWay, [this, p] {
                                                a->onNetworkPacket(p);
                                            });
                                        });
        b->setDeliveryHandler(
            [this](const LtlMessage &m) { delivered.push_back(m); });
    }

    void forwardAtoB(const net::PacketPtr &p)
    {
        auto hdr = std::static_pointer_cast<ltl::LtlHeader>(p->meta);
        const bool is_data = hdr && (hdr->flags & ltl::kFlagData);
        if (is_data && dropIf && dropIf(p))
            return;
        if (is_data && reorderDepth > 0) {
            held.push_back(p);
            if (static_cast<int>(held.size()) > reorderDepth) {
                // Release in reverse order.
                while (!held.empty()) {
                    auto q = held.back();
                    held.pop_back();
                    eq.scheduleAfter(oneWay, [this, q] {
                        b->onNetworkPacket(q);
                    });
                }
            }
            return;
        }
        eq.scheduleAfter(oneWay, [this, p] { b->onNetworkPacket(p); });
        if (is_data && duplicateNext) {
            duplicateNext = false;
            eq.scheduleAfter(oneWay + 100, [this, p] {
                b->onNetworkPacket(p);
            });
        }
    }

    std::uint16_t connect()
    {
        const std::uint16_t rx = b->openReceive(0);
        return a->openSend({2}, rx);
    }
};

TEST(Ltl, DeliversSingleMessage)
{
    Pair pair;
    const auto conn = pair.connect();
    pair.a->sendMessage(conn, 128, std::make_shared<int>(42));
    pair.eq.runUntil(sim::fromMicros(100));
    ASSERT_EQ(pair.delivered.size(), 1u);
    EXPECT_EQ(pair.delivered[0].bytes, 128u);
    EXPECT_EQ(*std::static_pointer_cast<int>(pair.delivered[0].payload), 42);
    EXPECT_EQ(pair.a->framesRetransmitted(), 0u);
}

TEST(Ltl, SegmentsLargeMessages)
{
    Pair pair;
    const auto conn = pair.connect();
    pair.a->sendMessage(conn, 10000);  // > 7 frames at 1408 B payload
    pair.eq.runUntil(sim::fromMicros(500));
    ASSERT_EQ(pair.delivered.size(), 1u);
    EXPECT_EQ(pair.delivered[0].bytes, 10000u);
    EXPECT_EQ(pair.a->framesSent(), (10000u + 1407) / 1408);
}

TEST(Ltl, ManyMessagesInOrderExactlyOnce)
{
    Pair pair;
    const auto conn = pair.connect();
    for (int i = 0; i < 200; ++i)
        pair.a->sendMessage(conn, 64, std::make_shared<int>(i));
    pair.eq.runUntil(sim::fromMicros(5000));
    ASSERT_EQ(pair.delivered.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(*std::static_pointer_cast<int>(
                      pair.delivered[i].payload),
                  i);
}

TEST(Ltl, RecoversFromSingleLossViaNack)
{
    Pair pair;
    const auto conn = pair.connect();
    int dropped = 0;
    pair.dropIf = [&](const net::PacketPtr &) {
        return ++dropped == 3;  // drop exactly the 3rd data frame
    };
    for (int i = 0; i < 10; ++i)
        pair.a->sendMessage(conn, 64, std::make_shared<int>(i));
    pair.eq.runUntil(sim::fromMicros(2000));
    ASSERT_EQ(pair.delivered.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(*std::static_pointer_cast<int>(
                      pair.delivered[i].payload),
                  i);
    EXPECT_GT(pair.a->framesRetransmitted(), 0u);
    EXPECT_GT(pair.b->nacksSent(), 0u);
    // NACK recovery is fast: well under the 50 us retransmit timeout.
    EXPECT_EQ(pair.a->timeouts(), 0u);
}

TEST(Ltl, RecoversFromLossViaTimeoutWhenNackDisabled)
{
    LtlConfig cfg;
    cfg.enableNack = false;
    Pair pair(cfg);
    const auto conn = pair.connect();
    int dropped = 0;
    pair.dropIf = [&](const net::PacketPtr &) { return ++dropped == 1; };
    pair.a->sendMessage(conn, 64, std::make_shared<int>(7));
    pair.eq.runUntil(sim::fromMicros(30));
    EXPECT_TRUE(pair.delivered.empty());  // still waiting for the timeout
    pair.eq.runUntil(sim::fromMicros(300));
    ASSERT_EQ(pair.delivered.size(), 1u);
    EXPECT_GE(pair.a->timeouts(), 1u);
}

TEST(Ltl, RecoversFromBurstLoss)
{
    Pair pair;
    const auto conn = pair.connect();
    int count = 0;
    pair.dropIf = [&](const net::PacketPtr &) {
        ++count;
        return count >= 5 && count <= 12;  // drop a burst of 8 frames
    };
    for (int i = 0; i < 30; ++i)
        pair.a->sendMessage(conn, 1408, std::make_shared<int>(i));
    pair.eq.runUntil(sim::fromMicros(5000));
    ASSERT_EQ(pair.delivered.size(), 30u);
    for (int i = 0; i < 30; ++i)
        EXPECT_EQ(*std::static_pointer_cast<int>(
                      pair.delivered[i].payload),
                  i);
}

TEST(Ltl, SurvivesRandomLossUnderLoad)
{
    Pair pair;
    const auto conn = pair.connect();
    sim::Rng rng(77);
    pair.dropIf = [&](const net::PacketPtr &) {
        return rng.bernoulli(0.05);
    };
    const int kMessages = 500;
    for (int i = 0; i < kMessages; ++i)
        pair.a->sendMessage(conn, 256, std::make_shared<int>(i));
    pair.eq.runUntil(sim::fromMicros(200000));
    ASSERT_EQ(pair.delivered.size(),
              static_cast<std::size_t>(kMessages));
    for (int i = 0; i < kMessages; ++i)
        EXPECT_EQ(*std::static_pointer_cast<int>(
                      pair.delivered[i].payload),
                  i);
}

TEST(Ltl, DuplicateFramesAreReackedNotRedelivered)
{
    Pair pair;
    const auto conn = pair.connect();
    pair.duplicateNext = true;
    pair.a->sendMessage(conn, 64, std::make_shared<int>(1));
    pair.a->sendMessage(conn, 64, std::make_shared<int>(2));
    pair.eq.runUntil(sim::fromMicros(500));
    EXPECT_EQ(pair.delivered.size(), 2u);
    EXPECT_GE(pair.b->duplicateFrames(), 1u);
}

TEST(Ltl, ReorderedFramesDeliveredInOrder)
{
    Pair pair;
    const auto conn = pair.connect();
    pair.reorderDepth = 3;
    for (int i = 0; i < 4; ++i)
        pair.a->sendMessage(conn, 64, std::make_shared<int>(i));
    pair.eq.runUntil(sim::fromMicros(2000));
    ASSERT_EQ(pair.delivered.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(*std::static_pointer_cast<int>(
                      pair.delivered[i].payload),
                  i);
    EXPECT_GT(pair.b->outOfOrderFrames(), 0u);
}

TEST(Ltl, RttMeasuredOnCleanPath)
{
    Pair pair;
    const auto conn = pair.connect();
    for (int i = 0; i < 20; ++i)
        pair.a->sendMessage(conn, 64);
    pair.eq.runUntil(sim::fromMicros(1000));
    ASSERT_GT(pair.a->rttUs().count(), 0u);
    // RTT ~ tx + oneWay + rx + ackGen + tx + oneWay + rx.
    const LtlConfig defaults;
    const double expect_us = sim::toMicros(
        2 * pair.oneWay + 2 * (defaults.txPathDelay + defaults.rxPathDelay) +
        defaults.ackGenDelay);
    EXPECT_NEAR(pair.a->rttUs().mean(), expect_us, 0.5);
}

TEST(Ltl, FailureDetectedAfterMaxRetries)
{
    LtlConfig cfg;
    cfg.maxRetries = 3;
    Pair pair(cfg);
    const auto conn = pair.connect();
    pair.dropIf = [](const net::PacketPtr &) { return true; };  // dead path
    int failed_conn = -1;
    pair.a->setFailureHandler(
        [&](std::uint16_t c) { failed_conn = c; });
    pair.a->sendMessage(conn, 64);
    pair.eq.runUntil(sim::fromMicros(5000));
    EXPECT_EQ(failed_conn, conn);
    EXPECT_TRUE(pair.delivered.empty());
}

TEST(Ltl, FailureLogNamesBothEnds)
{
    // Two engines lose their connection 0 to different peers: each log
    // line must say which host lost which peer.
    const sim::LogLevel saved = sim::Logger::level();
    sim::Logger::setLevel(sim::LogLevel::kWarn);
    EventQueue eq;
    LtlConfig cfg;
    cfg.maxRetries = 1;
    const auto black_hole = [](const net::PacketPtr &) {};
    cfg.localIp = {1};
    LtlEngine a(eq, cfg, black_hole);
    cfg.localIp = {2};
    LtlEngine b(eq, cfg, black_hole);
    ASSERT_EQ(a.openSend({3}, 5), 0);
    ASSERT_EQ(b.openSend({4}, 6), 0);
    a.sendMessage(0, 64);
    b.sendMessage(0, 64);
    testing::internal::CaptureStderr();
    eq.runUntil(sim::fromMicros(5000));
    const std::string err = testing::internal::GetCapturedStderr();
    sim::Logger::setLevel(saved);

    std::vector<std::string> failures;
    std::istringstream lines(err);
    for (std::string line; std::getline(lines, line);)
        if (line.find(" failed: ") != std::string::npos)
            failures.push_back(line);
    ASSERT_EQ(failures.size(), 2u) << err;
    EXPECT_NE(failures[0], failures[1]);
    EXPECT_NE(failures[0].find("0.0.0.1 connection 0 to 0.0.0.3 connection 5"),
              std::string::npos)
        << failures[0];
    EXPECT_NE(failures[1].find("0.0.0.2 connection 0 to 0.0.0.4 connection 6"),
              std::string::npos)
        << failures[1];
}

TEST(Ltl, WindowLimitsInFlightFrames)
{
    LtlConfig cfg;
    cfg.sendWindowFrames = 4;
    Pair pair(cfg);
    const auto conn = pair.connect();
    // Block all data so nothing is ever ACKed.
    pair.dropIf = [](const net::PacketPtr &) { return true; };
    for (int i = 0; i < 100; ++i)
        pair.a->sendMessage(conn, 1408);
    pair.eq.runUntil(sim::fromMicros(20));
    EXPECT_EQ(pair.a->framesSent(), 4u);  // window-bound
}

TEST(Ltl, BandwidthLimitPacesTransmission)
{
    LtlConfig fast;
    fast.bandwidthLimitGbps = 40.0;
    fast.enableDcqcn = false;
    LtlConfig slow = fast;
    slow.bandwidthLimitGbps = 1.0;

    auto measure = [](LtlConfig cfg) {
        Pair pair(cfg);
        const auto conn = pair.connect();
        for (int i = 0; i < 50; ++i)
            pair.a->sendMessage(conn, 1408);
        pair.eq.runUntil(sim::fromMicros(2000000));
        EXPECT_EQ(pair.delivered.size(), 50u);
        return pair.delivered.empty()
                   ? sim::TimePs{0}
                   : pair.eq.now();  // bounded by runUntil anyway
    };
    // Completion under the slow limiter takes much longer: check frames
    // finish by comparing how long the last delivery took.
    Pair fast_pair(fast);
    auto fc = fast_pair.connect();
    for (int i = 0; i < 50; ++i)
        fast_pair.a->sendMessage(fc, 1408);
    fast_pair.eq.runAll();
    const auto fast_done = fast_pair.eq.now();

    Pair slow_pair(slow);
    auto sc = slow_pair.connect();
    for (int i = 0; i < 50; ++i)
        slow_pair.a->sendMessage(sc, 1408);
    slow_pair.eq.runAll();
    const auto slow_done = slow_pair.eq.now();

    EXPECT_GT(slow_done, 10 * fast_done);
    (void)measure;
}

TEST(Ltl, CnpSlowsSenderRate)
{
    Pair pair;
    const auto conn = pair.connect();
    EXPECT_DOUBLE_EQ(pair.a->currentRateGbps(conn), 40.0);
    // Mark every data frame with ECN before it reaches B.
    pair.dropIf = [](const net::PacketPtr &p) {
        p->ecnMarked = true;
        return false;
    };
    for (int i = 0; i < 20; ++i)
        pair.a->sendMessage(conn, 1408);
    pair.eq.runUntil(sim::fromMicros(200));
    EXPECT_GT(pair.b->cnpsSent(), 0u);
    EXPECT_GT(pair.a->cnpsReceived(), 0u);
    EXPECT_LT(pair.a->currentRateGbps(conn), 40.0);
}

TEST(Ltl, RateRecoversAfterCongestionClears)
{
    Pair pair;
    const auto conn = pair.connect();
    bool congested = true;
    pair.dropIf = [&](const net::PacketPtr &p) {
        p->ecnMarked = congested;
        return false;
    };
    for (int i = 0; i < 10; ++i)
        pair.a->sendMessage(conn, 1408);
    pair.eq.runUntil(sim::fromMicros(300));
    const double reduced = pair.a->currentRateGbps(conn);
    ASSERT_LT(reduced, 40.0);
    congested = false;
    // Keep a trickle going and let DC-QCN recovery timers run.
    for (int i = 0; i < 10; ++i)
        pair.a->sendMessage(conn, 256);
    pair.eq.runUntil(sim::fromMicros(3000));
    EXPECT_GT(pair.a->currentRateGbps(conn), reduced);
}

TEST(Dcqcn, CutsRateMultiplicativelyAndRecovers)
{
    EventQueue eq;
    ltl::DcqcnConfig cfg;
    ltl::DcqcnController rp(eq, cfg);
    EXPECT_DOUBLE_EQ(rp.currentRateGbps(), 40.0);
    rp.onCongestionNotification();
    const double after_one = rp.currentRateGbps();
    EXPECT_LT(after_one, 40.0);
    rp.onCongestionNotification();
    rp.onCongestionNotification();
    EXPECT_LT(rp.currentRateGbps(), after_one);
    eq.runUntil(sim::fromMicros(5000));
    EXPECT_NEAR(rp.currentRateGbps(), 40.0, 0.5);
}

TEST(Dcqcn, RateNeverBelowMinimum)
{
    EventQueue eq;
    ltl::DcqcnConfig cfg;
    cfg.minRateGbps = 0.5;
    ltl::DcqcnController rp(eq, cfg);
    for (int i = 0; i < 200; ++i)
        rp.onCongestionNotification();
    EXPECT_GE(rp.currentRateGbps(), 0.5);
}

TEST(RedPolicer, PassesUnderLimitDropsOverLimit)
{
    ltl::RedPolicer red(1.0 /*Gb/s*/, 64 * 1024);
    // Under the limit: everything passes.
    sim::TimePs t = 0;
    int pass = 0;
    for (int i = 0; i < 100; ++i) {
        t += sim::fromMicros(100);  // 1500 B / 100 us = 0.12 Gb/s
        pass += red.allow(t, 1500) ? 1 : 0;
    }
    EXPECT_EQ(pass, 100);

    // 10x over the limit: a large fraction must be dropped.
    int pass2 = 0;
    for (int i = 0; i < 2000; ++i) {
        t += sim::fromMicros(1);  // 12 Gb/s offered
        pass2 += red.allow(t, 1500) ? 1 : 0;
    }
    EXPECT_LT(pass2, 1200);
    EXPECT_GT(red.drops(), 0u);
}

}  // namespace
