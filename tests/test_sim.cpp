/**
 * @file
 * Unit tests for the discrete-event kernel: event ordering, cancellation,
 * run-ahead, the head list, RNG determinism and distribution sanity,
 * statistics correctness.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace {

using namespace ccsim;
using sim::EventQueue;
using sim::LognormalParams;
using sim::Rng;
using sim::SampleStats;
using sim::TimePs;

TEST(Time, Conversions)
{
    EXPECT_EQ(sim::kMicrosecond, 1'000'000);
    EXPECT_DOUBLE_EQ(sim::toMicros(2'500'000), 2.5);
    EXPECT_EQ(sim::fromMicros(2.5), 2'500'000);
    EXPECT_EQ(sim::fromNanos(1.0), 1000);
    EXPECT_EQ(sim::fromSeconds(1e-12), 1);
}

TEST(Time, SerializationDelay)
{
    // 1500 B at 40 Gb/s = 300 ns.
    EXPECT_EQ(sim::serializationDelay(1500, 40.0), 300 * sim::kNanosecond);
    // 64 B at 10 Gb/s = 51.2 ns.
    EXPECT_EQ(sim::serializationDelay(64, 10.0), 51200);
}

TEST(Time, PropagationAndClocks)
{
    EXPECT_EQ(sim::propagationDelay(100.0), 500 * sim::kNanosecond);
    EXPECT_EQ(sim::cyclePeriod(200.0), 5000);  // 200 MHz = 5 ns
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, FifoAmongEqualTimes)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    auto id = eq.schedule(10, [&] { ran = true; });
    eq.cancel(id);
    eq.runAll();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelAfterFireIsNoOp)
{
    EventQueue eq;
    int count = 0;
    auto id = eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.runUntil(15);
    eq.cancel(id);  // already fired
    EXPECT_EQ(eq.size(), 1u);
    eq.runAll();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunUntilAdvancesClockToLimit)
{
    EventQueue eq;
    eq.runUntil(1000);
    EXPECT_EQ(eq.now(), 1000);
    bool ran = false;
    eq.schedule(5000, [&] { ran = true; });
    eq.runUntil(4000);
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.now(), 4000);
    eq.runUntil(5000);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, EventsScheduledDuringExecutionRun)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleAfter(10, recurse);
    };
    eq.schedule(0, recurse);
    eq.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runAll();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

// --- run-ahead: advanceIfIdle() ----------------------------------------

TEST(EventQueueRunAhead, RefusesWhenAnEventIsAtOrBeforeTheTarget)
{
    EventQueue eq;
    std::vector<bool> got;
    // One probe per event, each against the next event, so a wrong
    // answer cannot move time under a later probe.
    eq.schedule(100, [&] { got.push_back(eq.advanceIfIdle(200, 1)); });  // at
    eq.schedule(200, [&] {
        got.push_back(eq.advanceIfIdle(400, 1));  // before
    });
    eq.schedule(300, [&] {
        got.push_back(eq.advanceIfIdle(499, 1));  // nothing due by 499
        EXPECT_EQ(eq.now(), 499);
    });
    eq.schedule(500, [] {});
    eq.runUntil(10'000);
    EXPECT_EQ(got, (std::vector<bool>{false, false, true}));
}

TEST(EventQueueRunAhead, RefusesPastTheRunUntilLimit)
{
    EventQueue eq;
    std::vector<bool> got;
    eq.schedule(100, [&] {
        got.push_back(eq.advanceIfIdle(1000, 1));  // the limit runs
        got.push_back(eq.advanceIfIdle(1001, 1));
    });
    eq.runUntil(1000);
    EXPECT_EQ(got, (std::vector<bool>{true, false}));
    EXPECT_EQ(eq.now(), 1000);
}

TEST(EventQueueRunAhead, RefusesInsideStepAndOutsideARun)
{
    EventQueue eq;
    EXPECT_FALSE(eq.advanceIfIdle(10, 1));
    bool got = true;
    eq.schedule(100, [&] { got = eq.advanceIfIdle(200, 1); });
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(got);
    EXPECT_EQ(eq.now(), 100);
    // The run that just ended no longer lends its limit either.
    eq.runUntil(5000);
    EXPECT_FALSE(eq.advanceIfIdle(5000, 1));
}

TEST(EventQueueRunAhead, SucceedsInsideRunAllAndCountsOneEvent)
{
    EventQueue eq;
    std::vector<TimePs> ran;
    eq.schedule(2'000'000, [&] { ran.push_back(eq.now()); });
    eq.schedule(100, [&] {
        const std::uint64_t executed = eq.eventsExecuted();
        const std::size_t live = eq.size();
        ASSERT_TRUE(eq.advanceIfIdle(1'000'000, 1));
        EXPECT_EQ(eq.now(), 1'000'000);
        EXPECT_EQ(eq.eventsExecuted(), executed + 1);
        EXPECT_EQ(eq.size(), live);
        // Later schedules order against the new time.
        eq.scheduleAfter(5, [&] { ran.push_back(eq.now()); });
    });
    eq.runAll();
    EXPECT_EQ(ran, (std::vector<TimePs>{1'000'005, 2'000'000}));
    EXPECT_EQ(eq.eventsExecuted(), 4u);  // three events and one run-ahead
    EXPECT_EQ(eq.now(), 2'000'000);
}

TEST(EventQueueRunAhead, CycleCountFormCountsEveryCycle)
{
    EventQueue eq;
    eq.schedule(100, [&] {
        const std::uint64_t executed = eq.eventsExecuted();
        EXPECT_EQ(eq.runAheadHorizon(), 999);  // just before 1000
        ASSERT_TRUE(eq.advanceIfIdle(900, 8));
        EXPECT_EQ(eq.now(), 900);
        EXPECT_EQ(eq.eventsExecuted(), executed + 8);
    });
    eq.schedule(1000, [] {});
    eq.runAll();
    EXPECT_EQ(eq.eventsExecuted(), 10u);  // two events and eight cycles
}

TEST(EventQueueRunAhead, CycleCountFormRefusesWhereOneCycleWould)
{
    EventQueue eq;
    std::vector<bool> got;
    eq.schedule(100, [&] {
        EXPECT_EQ(eq.runAheadHorizon(), 299);
        got.push_back(eq.advanceIfIdle(300, 4));  // an event at 300
        got.push_back(eq.advanceIfIdle(400, 4));  // one before 400
    });
    eq.schedule(300, [&] {
        EXPECT_EQ(eq.runAheadHorizon(), 1000);  // the runUntil limit
        got.push_back(eq.advanceIfIdle(1001, 4));
        got.push_back(eq.advanceIfIdle(1000, 4));
    });
    eq.schedule(5000, [&] {
        EXPECT_LT(eq.runAheadHorizon(), eq.now());
        got.push_back(eq.advanceIfIdle(6000, 4));  // inside step()
    });
    eq.runUntil(1000);
    EXPECT_EQ(eq.eventsExecuted(), 6u);  // two events and four cycles
    EXPECT_LT(eq.runAheadHorizon(), eq.now());  // outside a run
    EXPECT_FALSE(eq.advanceIfIdle(2000, 4));
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(got, (std::vector<bool>{false, false, false, true, false}));
    EXPECT_EQ(eq.now(), 5000);
    EXPECT_EQ(eq.eventsExecuted(), 7u);
}

TEST(EventQueueRunAhead, SelfClockedLoopMatchesScheduledTicks)
{
    // A component ticking every 5 ps for 50 cycles, against a background
    // event every 100 ps that some ticks land on: running ahead must
    // reproduce the scheduled-tick trace and event count exactly.
    const auto run = [](bool inline_ticks) {
        EventQueue eq;
        std::vector<std::pair<TimePs, int>> trace;
        for (TimePs t = 50; t < 400; t += 100)
            eq.schedule(t, [&] { trace.emplace_back(eq.now(), -1); });
        int cycle = 0;
        std::function<void()> tick = [&] {
            while (true) {
                trace.emplace_back(eq.now(), cycle);
                if (++cycle == 50)
                    return;
                if (!inline_ticks ||
                    !eq.advanceIfIdle(eq.now() + 5, 1)) {
                    eq.scheduleAfter(5, tick);
                    return;
                }
            }
        };
        eq.schedule(0, tick);
        eq.runAll();
        return std::make_pair(trace, eq.eventsExecuted());
    };
    EXPECT_EQ(run(true), run(false));
}

// --- the head list ------------------------------------------------------

/** Schedule the events at @p times, each logging now() into @p ran. */
void
scheduleLogged(EventQueue &eq, std::vector<TimePs> &ran,
               const std::vector<TimePs> &times)
{
    for (const TimePs t : times)
        eq.schedule(t, [&eq, &ran] { ran.push_back(eq.now()); });
}

/** 100, 200, ..., 1600: sixteen events, which fill the head list. */
std::vector<TimePs>
sixteenTimes()
{
    std::vector<TimePs> times;
    for (TimePs t = 100; t <= 1600; t += 100)
        times.push_back(t);
    return times;
}

TEST(EventQueueHeadRegister, ChainOverParkedTimersNeverParks)
{
    // 16 timers and a 10,000-link chain, each link scheduling the next
    // 1 ns out: every link is the earliest event from the moment it is
    // scheduled, so every one runs from the head list. The first link
    // finds the list full of timers and parks the latest of them.
    EventQueue eq;
    int timers = 0;
    for (int t = 0; t < 16; ++t)
        eq.schedule(sim::fromMillis(1.0 + t), [&timers] { ++timers; });
    int links = 0;
    std::function<void()> link = [&] {
        if (++links < 10'000)
            eq.scheduleAfter(1000, link);
    };
    eq.scheduleAfter(1000, link);
    eq.runUntil(sim::fromMillis(0.5));
    EXPECT_EQ(links, 10'000);
    EXPECT_EQ(eq.eventsBypassed(), 10'000u);
    EXPECT_EQ(eq.eventsExecuted(), 10'000u);
    eq.runAll();
    EXPECT_EQ(timers, 16);
    EXPECT_EQ(eq.eventsExecuted(), 10'016u);
    EXPECT_EQ(eq.eventsBypassed(), 10'015u);  // all but the evicted timer
}

TEST(EventQueueHeadRegister, EarlierArrivalParksTheOccupant)
{
    // A full list: each earlier arrival evicts the latest entry to the
    // wheel, and an arrival after the latest entry is parked at once.
    EventQueue eq;
    std::vector<TimePs> ran;
    scheduleLogged(eq, ran, sixteenTimes());
    scheduleLogged(eq, ran, {50, 50, 1700});  // evict 1600, 1500; park 1700
    EXPECT_EQ(eq.nextEventTime(), 50);
    eq.runAll();
    std::vector<TimePs> want = {50, 50};
    for (const TimePs t : sixteenTimes())
        want.push_back(t);
    want.push_back(1700);
    EXPECT_EQ(ran, want);
    EXPECT_EQ(eq.eventsExecuted(), 19u);
    EXPECT_EQ(eq.eventsBypassed(), 16u);  // 1500, 1600 and 1700 were parked
}

TEST(EventQueueHeadRegister, RunUntilLimitBetweenRegisterAndParkedHead)
{
    EventQueue eq;
    std::vector<TimePs> ran;
    // The list holds 100..1600, so 5000 is parked.
    scheduleLogged(eq, ran, sixteenTimes());
    scheduleLogged(eq, ran, {5000});
    // A limit between two listed events.
    eq.runUntil(250);
    EXPECT_EQ(ran, (std::vector<TimePs>{100, 200}));
    EXPECT_EQ(eq.now(), 250);
    EXPECT_EQ(eq.nextEventTime(), 300);
    // A limit between the list's last event and the parked head.
    eq.runUntil(1650);
    EXPECT_EQ(ran.size(), 16u);
    EXPECT_EQ(eq.now(), 1650);
    EXPECT_EQ(eq.nextEventTime(), 5000);
    // An arrival below the parked head is listed and runs first.
    scheduleLogged(eq, ran, {3000});
    EXPECT_EQ(eq.nextEventTime(), 3000);
    eq.runUntil(4000);
    EXPECT_EQ(ran.back(), 3000);
    EXPECT_EQ(eq.now(), 4000);
    EXPECT_EQ(eq.nextEventTime(), 5000);
    eq.runAll();
    EXPECT_EQ(ran.back(), 5000);
    EXPECT_EQ(eq.eventsExecuted(), 18u);
    EXPECT_EQ(eq.eventsBypassed(), 17u);
}

TEST(EventQueueHeadRegister, RunAheadSeesTheRegister)
{
    EventQueue eq;
    std::vector<bool> got;
    std::vector<TimePs> ran;
    eq.schedule(sim::fromMillis(1.0), [] {});  // listed far ahead
    eq.schedule(100, [&] {
        // A foreign event in the list holds the head at 150.
        eq.scheduleAfter(50, [&] { ran.push_back(eq.now()); });
        EXPECT_EQ(eq.nextEventTime(), 150);
        EXPECT_EQ(eq.runAheadHorizon(), 149);
        got.push_back(eq.advanceIfIdle(150, 1));
        got.push_back(eq.advanceIfIdle(149, 1));
        EXPECT_EQ(eq.now(), 149);
    });
    eq.runAll();
    EXPECT_EQ(got, (std::vector<bool>{false, true}));
    EXPECT_EQ(ran, (std::vector<TimePs>{150}));
    EXPECT_EQ(eq.now(), sim::fromMillis(1.0));
}

TEST(EventQueueHeadList, SparseQueueNeverParks)
{
    // Sixteen timers that re-arm themselves 0.1-1.6 ms out: the live
    // count never passes the list's capacity, so nothing is parked.
    EventQueue eq;
    int fired = 0;
    std::function<void(TimePs)> arm = [&](TimePs delay) {
        eq.scheduleAfter(delay, [&, delay] {
            if (++fired < 5000)
                arm(delay);
        });
    };
    for (int t = 1; t <= 16; ++t)
        arm(sim::fromMicros(100.0 * t));
    eq.runAll();
    EXPECT_EQ(eq.eventsExecuted(), eq.eventsBypassed());
    EXPECT_EQ(eq.peakLiveEvents(), 16u);
}

TEST(EventQueueHeadList, FullListEvictsItsLatestEntry)
{
    EventQueue eq;
    std::vector<TimePs> ran;
    scheduleLogged(eq, ran, sixteenTimes());
    scheduleLogged(eq, ran, {1550});  // evicts 1600, the latest entry
    EXPECT_EQ(eq.nextEventTime(), 100);
    EXPECT_EQ(eq.size(), 17u);
    eq.runAll();
    std::vector<TimePs> want = sixteenTimes();
    want.insert(want.end() - 1, 1550);
    EXPECT_EQ(ran, want);
    EXPECT_EQ(eq.eventsBypassed(), 16u);  // all but 1600
}

TEST(EventQueueHeadList, LaterArrivalToAFullListIsParked)
{
    EventQueue eq;
    std::vector<TimePs> ran;
    scheduleLogged(eq, ran, sixteenTimes());
    scheduleLogged(eq, ran, {1600, 1700});  // not before the latest entry
    eq.runAll();
    std::vector<TimePs> want = sixteenTimes();
    want.push_back(1600);
    want.push_back(1700);
    EXPECT_EQ(ran, want);
    EXPECT_EQ(eq.eventsBypassed(), 16u);
    EXPECT_EQ(eq.eventsExecuted(), 18u);
}

TEST(EventQueueHeadList, CancelFromTheMiddleAndOfTheEarliestEntry)
{
    EventQueue eq;
    std::vector<TimePs> ran;
    std::vector<sim::EventId> ids;
    std::vector<std::weak_ptr<int>> watch;
    for (const TimePs t : sixteenTimes()) {
        auto res = std::make_shared<int>(static_cast<int>(t));
        watch.push_back(res);
        ids.push_back(eq.schedule(t, [&eq, &ran, res] {
            ran.push_back(eq.now());
        }));
    }
    // The middle: the next event time stays, the captures go at once.
    eq.cancel(ids[7]);  // 800
    EXPECT_TRUE(watch[7].expired());
    EXPECT_EQ(eq.size(), 15u);
    EXPECT_EQ(eq.nextEventTime(), 100);
    // The earliest entry: the next event time moves to the one after.
    eq.cancel(ids[0]);  // 100
    EXPECT_TRUE(watch[0].expired());
    EXPECT_EQ(eq.nextEventTime(), 200);
    eq.cancel(ids[0]);  // stale: a no-op
    EXPECT_EQ(eq.eventsCancelled(), 2u);
    // The freed places take two new events without evicting anything.
    scheduleLogged(eq, ran, {150, 1700});
    eq.runAll();
    EXPECT_EQ(ran, (std::vector<TimePs>{150, 200, 300, 400, 500, 600, 700,
                                        900, 1000, 1100, 1200, 1300, 1400,
                                        1500, 1600, 1700}));
    EXPECT_EQ(eq.eventsBypassed(), 16u);
    EXPECT_EQ(eq.eventsExecuted(), 16u);
}

TEST(EventQueueHeadList, SameTimeTiesBetweenListedAndParkedEvents)
{
    // Seventeen events at one time: sixteen listed, the last parked
    // behind them. An earlier arrival evicts the latest listed one, which
    // joins the parked one at the same time. Schedule order holds
    // throughout.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 17; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.schedule(50, [&order] { order.push_back(-1); });
    EXPECT_EQ(eq.nextEventTime(), 50);
    eq.runAll();
    std::vector<int> want = {-1};
    for (int i = 0; i < 17; ++i)
        want.push_back(i);
    EXPECT_EQ(order, want);
    EXPECT_EQ(eq.eventsBypassed(), 16u);  // -1 and 0..14
}

TEST(PoolAllocator, BlockFreedOnAnotherThreadIsReusedThere)
{
    // Each thread (a sharded kernel's worker) has its own freelists: a
    // record one thread allocates and another frees parks with the one
    // that freed it, which reuses it. No block is shared or leaked.
    struct Record {
        std::uint64_t words[7];
    };
    std::shared_ptr<Record> rec;
    sim::PoolStats allocated;
    std::thread([&] {
        rec = sim::makePooled<Record>();
        allocated = sim::poolStats();
    }).join();
    EXPECT_EQ(allocated.freshAllocs, 1u);
    EXPECT_EQ(allocated.freeBlocks, 0u);

    const void *block = rec.get();
    sim::PoolStats freed, reused;
    const void *again = nullptr;
    std::thread([&] {
        rec.reset();
        freed = sim::poolStats();
        auto next = sim::makePooled<Record>();
        reused = sim::poolStats();
        again = next.get();
    }).join();
    EXPECT_EQ(freed.freshAllocs, 0u);
    EXPECT_EQ(freed.freeBlocks, 1u);
    EXPECT_EQ(reused.freshAllocs, 0u);
    EXPECT_EQ(reused.reusedAllocs, 1u);
    EXPECT_EQ(reused.freeBlocks, 0u);
    EXPECT_EQ(again, block);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(7);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i)
        ++seen[rng.uniformInt(std::uint64_t{10})];
    for (int count : seen)
        EXPECT_GT(count, 800);  // each bucket near 1000
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, LognormalMeanCv)
{
    Rng rng(17);
    double sum = 0, sq = 0;
    const int n = 300000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.lognormalMeanCv(10.0, 0.5);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.15);
    EXPECT_NEAR(std::sqrt(var) / mean, 0.5, 0.03);
}

TEST(Rng, LognormalParamsMatchMeanCv)
{
    // Callers that precompute (mu, sigma) must draw exactly what
    // lognormalMeanCv draws, so switching between the two never moves
    // a simulated result.
    Rng pick(23);
    Rng viaMeanCv(5), viaParams(5);
    for (int i = 0; i < 20000; ++i) {
        const double mean = std::exp(pick.uniform(-8.0, 30.0));
        const double cv = i % 16 == 0 ? 0.0 : pick.uniform(0.0, 2.5);
        const LognormalParams p = Rng::lognormalParams(mean, cv);
        const double a = viaMeanCv.lognormalMeanCv(mean, cv);
        const double b = viaParams.lognormal(p.mu, p.sigma);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                  std::bit_cast<std::uint64_t>(b))
            << "mean " << mean << " cv " << cv << " draw " << i;
    }
}

TEST(Rng, PoissonMean)
{
    Rng rng(19);
    double small_sum = 0, large_sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        small_sum += static_cast<double>(rng.poisson(3.0));
        large_sum += static_cast<double>(rng.poisson(100.0));
    }
    EXPECT_NEAR(small_sum / n, 3.0, 0.05);
    EXPECT_NEAR(large_sum / n, 100.0, 0.5);
}

TEST(Rng, SplitStreamsIndependent)
{
    Rng parent(23);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (parent.next() == child.next());
    EXPECT_LT(same, 3);
}

TEST(SampleStats, BasicMoments)
{
    SampleStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.add(x);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(SampleStats, Percentiles)
{
    SampleStats s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 0.011);
}

TEST(SampleStats, PercentileSingleSampleEdges)
{
    // Regression: a single-sample set returns that sample for EVERY p,
    // including the p=0 and p=100 edges (nearest-rank used to index
    // out of range / pick a default here).
    SampleStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 42.0);
    EXPECT_DOUBLE_EQ(s.median(), 42.0);
}

TEST(SampleStats, PercentileOfEmptyIsZero)
{
    SampleStats s;
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(99.9), 0.0);
}

TEST(SampleStats, NanInputsAreCountedNotRecorded)
{
    // Regression: a NaN sample used to poison the sort order and with
    // it every later percentile query.
    SampleStats s;
    s.add(1.0);
    s.add(std::nan(""));
    s.add(3.0);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_EQ(s.nanCount(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 3.0);
    s.clear();
    EXPECT_EQ(s.nanCount(), 0u);
}

TEST(SampleStatsDeathTest, PercentileRejectsBadP)
{
    SampleStats s;
    s.add(1.0);
    EXPECT_DEATH(s.percentile(std::nan("")), "p is NaN");
    EXPECT_DEATH(s.percentile(-0.5), "out of \\[0,100\\]");
    EXPECT_DEATH(s.percentile(100.5), "out of \\[0,100\\]");
}

TEST(SampleStats, AddAfterPercentileQuery)
{
    SampleStats s;
    s.add(10.0);
    s.add(20.0);
    EXPECT_DOUBLE_EQ(s.median(), 15.0);
    s.add(30.0);  // must re-sort lazily
    EXPECT_DOUBLE_EQ(s.median(), 20.0);
}

TEST(LogHistogram, PercentileAccuracy)
{
    sim::LogHistogram h(1.0, 48);
    sim::SampleStats exact;
    Rng rng(29);
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.lognormalMeanCv(100.0, 1.0);
        h.add(x);
        exact.add(x);
    }
    for (double p : {50.0, 90.0, 99.0, 99.9}) {
        const double approx = h.percentile(p);
        const double truth = exact.percentile(p);
        EXPECT_NEAR(approx / truth, 1.0, 0.05) << "p=" << p;
    }
    EXPECT_DOUBLE_EQ(h.max(), exact.max());
    EXPECT_NEAR(h.mean(), exact.mean(), 1e-9);
}

TEST(LogHistogram, NanInputsAreCountedNotBinned)
{
    sim::LogHistogram h;
    h.add(2.0);
    h.addN(std::nan(""), 3);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.nanCount(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    h.clear();
    EXPECT_EQ(h.nanCount(), 0u);
}

TEST(LogHistogram, MergeCombinesDistributions)
{
    sim::LogHistogram a(1.0, 48), b(1.0, 48);
    for (int i = 1; i <= 50; ++i)
        a.add(i);
    for (int i = 51; i <= 100; ++i)
        b.add(i);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 100.0);
    EXPECT_DOUBLE_EQ(a.mean(), 50.5);
    EXPECT_NEAR(a.percentile(50.0) / 50.0, 1.0, 0.05);

    // Merging an empty histogram is a no-op on the moments.
    sim::LogHistogram empty(1.0, 48);
    a.merge(empty);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_DOUBLE_EQ(a.max(), 100.0);
}

TEST(LogHistogramDeathTest, MergeRejectsMismatchedBinning)
{
    sim::LogHistogram a(1.0, 48), b(0.5, 48), c(1.0, 96);
    EXPECT_DEATH(a.merge(b), "binning parameters differ");
    EXPECT_DEATH(a.merge(c), "binning parameters differ");
}

TEST(TimeWeighted, PiecewiseConstantAverage)
{
    sim::TimeWeighted tw;
    tw.update(0, 1.0);
    tw.update(10, 3.0);   // value 1 held for 10
    tw.update(20, 0.0);   // value 3 held for 10
    EXPECT_DOUBLE_EQ(tw.average(), 2.0);
    EXPECT_DOUBLE_EQ(tw.peak(), 3.0);
}

}  // namespace
