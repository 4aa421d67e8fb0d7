/**
 * @file
 * Unit and property tests for the parallel DES kernel
 * (sim::ShardedEventQueue) and its supporting primitives.
 *
 * The central claim under test is *structural determinism*: partitions
 * (logical processes) are fixed by the workload, worker threads are an
 * execution detail, and the same workload must produce byte-identical
 * results at every thread count. The randomized-workload test replays
 * the same multi-partition trace at T = 1, 2, 4, 8 and compares the
 * full per-partition execution logs, kernel counters, and final RNG
 * states.
 *
 * Also covered: conservative-sync causality enforcement (cross events
 * at or below the window floor panic), barrier-hook deadline scheduling,
 * the nextEventTime() peek both backends grew for the coordinator, and
 * the counter-based Rng::forStream per-shard stream derivation.
 *
 * The ShardedBarrier suite guards the cheap barrier (dirty-outbox flush,
 * cached next-event times, idle partitions left unrun, inline
 * single-partition windows): sparse traffic still merges in total order,
 * edits made outside a window invalidate the cached times, every
 * partition reads the window end after each barrier and counts from it,
 * the window-end sequence matches one captured with the original
 * full-scan barrier, and a barrier visits only the busy partitions. The ShardedHandoff suite stresses
 * the claimed handoff: seeded windows with 0 to P busy partitions, a
 * handler that holds its partition for ~100 us of wall time, more
 * workers than cores, and kernels destroyed while their workers spin or
 * sleep, all compared with the one-thread run.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "binary_heap_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"
#include "sim/time.hpp"

using namespace ccsim;

namespace {

// --- nextEventTime: the coordinator's peek -----------------------------

template <typename Queue>
void
peekSuite()
{
    Queue eq;
    EXPECT_EQ(eq.nextEventTime(), sim::kTimeNever);

    int fired = 0;
    eq.scheduleAfter(500, [&fired] { ++fired; });
    EXPECT_EQ(eq.nextEventTime(), 500);
    EXPECT_EQ(fired, 0) << "peek must not execute";

    // An earlier event scheduled *after* a peek must win the next peek
    // (regression guard: the wheel must not hold a committed due slot
    // across schedule calls).
    eq.scheduleAfter(100, [&fired] { ++fired; });
    EXPECT_EQ(eq.nextEventTime(), 100);

    const auto id = eq.scheduleAfter(50, [&fired] { ++fired; });
    eq.cancel(id);
    EXPECT_EQ(eq.nextEventTime(), 100) << "cancelled events are invisible";

    eq.runAll();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.nextEventTime(), sim::kTimeNever);
}

TEST(NextEventTime, TimerWheelBackend) { peekSuite<sim::TimerWheelQueue>(); }
TEST(NextEventTime, BinaryHeapBackend) { peekSuite<sim::BinaryHeapQueue>(); }

TEST(NextEventTime, WheelSeesFarFutureOverflowEvents)
{
    sim::TimerWheelQueue eq;
    const sim::TimePs far = sim::fromSeconds(20.0 * 86400.0);  // top level
    eq.schedule(far, [] {});
    EXPECT_EQ(eq.nextEventTime(), far);
}

// --- basic sharded execution -------------------------------------------

TEST(ShardedEventQueue, SinglePartitionBehavesLikeSequential)
{
    sim::ShardedEventQueue::Config qc;
    qc.partitions = 1;
    sim::ShardedEventQueue sq(qc);
    std::vector<int> order;
    sq.partition(0).schedule(200, [&order] { order.push_back(2); });
    sq.partition(0).schedule(100, [&order] { order.push_back(1); });
    sq.runUntil(150);
    EXPECT_EQ(sq.now(), 150);
    EXPECT_EQ(order, (std::vector<int>{1}));
    sq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(sq.eventsExecuted(), 2u);
}

TEST(ShardedEventQueue, ThreadsClampToPartitions)
{
    sim::ShardedEventQueue::Config qc;
    qc.partitions = 2;
    qc.threads = 16;
    sim::ShardedEventQueue sq(qc);
    EXPECT_EQ(sq.threadCount(), 2);
}

TEST(ShardedEventQueue, CrossMessagesDeliverInTotalOrder)
{
    // Three sources post to one destination at the same instant; the
    // merge must order them by (when, src, per-src seq) regardless of
    // outbox fill order.
    sim::ShardedEventQueue::Config qc;
    qc.partitions = 4;
    sim::ShardedEventQueue sq(qc);
    for (int src = 1; src < 4; ++src)
        sq.registerCrossEdge(src, 0, 100);

    std::vector<std::pair<int, int>> arrivals;  // (src, k)
    for (int src : {3, 1, 2}) {  // deliberately not in partition order
        sq.partition(src).schedule(10, [&sq, &arrivals, src] {
            for (int k = 0; k < 2; ++k)
                sq.postCross(src, 0, 200, [&arrivals, src, k] {
                    arrivals.emplace_back(src, k);
                });
        });
    }
    sq.runAll();
    EXPECT_EQ(sq.crossMessages(), 6u);
    EXPECT_EQ(arrivals, (std::vector<std::pair<int, int>>{
                            {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 0}, {3, 1}}));
}

TEST(ShardedEventQueue, WindowDerivedFromMinimumEdgeLatency)
{
    sim::ShardedEventQueue::Config qc;
    qc.partitions = 3;
    sim::ShardedEventQueue sq(qc);
    sq.registerCrossEdge(0, 1, 5000);
    sq.registerCrossEdge(1, 2, 700);
    sq.registerCrossEdge(2, 0, 9000);
    sq.partition(0).schedule(1, [] {});
    sq.runUntil(1);
    EXPECT_EQ(sq.window(), 700);
}

// --- causality enforcement (satellite: debug assertions + validator) ---

using ShardedQueueDeath = ::testing::Test;

TEST(ShardedQueueDeath, CrossEventBelowWindowFloorPanics)
{
    EXPECT_DEATH(
        {
            sim::ShardedEventQueue::Config qc;
            qc.partitions = 2;
            sim::ShardedEventQueue sq(qc);
            sq.registerCrossEdge(0, 1, 100);
            sq.partition(0).schedule(1, [] {});
            sq.runUntil(1000);
            // now() == 1000: posting into the executed past must die.
            sq.postCross(0, 1, 500, [] {});
        },
        "causality violation");
}

TEST(ShardedQueueDeath, InWindowCrossEventCaughtAtBarrier)
{
    EXPECT_DEATH(
        {
            sim::ShardedEventQueue::Config qc;
            qc.partitions = 2;
            sim::ShardedEventQueue sq(qc);
            sq.registerCrossEdge(0, 1, 100);  // the window: 100 ps
            // The handler lies about its latency: it posts a message
            // *inside* the window being executed. The barrier flush
            // must catch it even though the post-time floor check
            // cannot (the floor only advances at the barrier).
            sq.partition(0).schedule(50, [&sq] {
                sq.postCross(0, 1, 60, [] {});
            });
            sq.runAll();
        },
        "causality violation at barrier");
}

TEST(ShardedQueueDeath, UnregisteredEdgeRejected)
{
    EXPECT_DEATH(
        {
            sim::ShardedEventQueue::Config qc;
            qc.partitions = 2;
            sim::ShardedEventQueue sq(qc);
            sq.postCross(0, 1, 100, [] {});
        },
        "no registered cross edge");
}

TEST(ShardedQueueDeath, ClaimWordPartitionLimit)
{
    // A claim word holds 16-bit busy counts. The check comes before any
    // per-partition allocation.
    sim::ShardedEventQueue::Config qc;
    qc.partitions = 65536;
    qc.threads = 2;
    EXPECT_DEATH(sim::ShardedEventQueue{qc}, "at most 65535 partitions");
}

// --- barrier hooks ------------------------------------------------------

TEST(ShardedEventQueue, BarrierHookFiresExactlyAtItsDeadlines)
{
    sim::ShardedEventQueue::Config qc;
    qc.partitions = 2;
    sim::ShardedEventQueue sq(qc);
    sq.registerCrossEdge(0, 1, 50);

    // Busy workload so windows would naturally end elsewhere.
    std::function<void(int)> tick = [&sq, &tick](int p) {
        if (sq.partition(p).now() < 5000)
            sq.partition(p).scheduleAfter(7, [&tick, p] { tick(p); });
    };
    for (int p = 0; p < 2; ++p)
        sq.partition(p).schedule(1, [&tick, p] { tick(p); });

    std::vector<sim::TimePs> sampled;
    sq.atBarrier(
        [&sampled](sim::TimePs e) -> sim::TimePs {
            sim::TimePs due = ((e / 1000) + 1) * 1000;
            if (e % 1000 == 0) {
                sampled.push_back(e);
                due = e + 1000;
            }
            return due;
        },
        1000);
    sq.runUntil(4500);
    EXPECT_EQ(sampled, (std::vector<sim::TimePs>{1000, 2000, 3000, 4000}));
}

TEST(ShardedEventQueue, RunAllHonorsOneShotDeadlines)
{
    // runAll() must stop at a requested barrier rather than drain past
    // it, exactly as runUntil() does; otherwise every barrier-pinned
    // action (fault recoveries, chaos phases) fires late under runAll.
    sim::ShardedEventQueue sq;
    std::vector<sim::TimePs> ran;
    sq.partition(0).schedule(500, [&] { ran.push_back(500); });
    sq.partition(0).schedule(2000, [&] { ran.push_back(2000); });
    std::vector<sim::TimePs> seen;
    sq.atBarrier([&](sim::TimePs e) {
        seen.push_back(e);
        return sim::kTimeNever;
    });
    sq.requestBarrier(1000);
    sq.runAll();
    EXPECT_EQ(seen, (std::vector<sim::TimePs>{1000, 2000}));
    EXPECT_EQ(ran, (std::vector<sim::TimePs>{500, 2000}));

    // A deadline past the last event is still reached, and a periodic
    // hook deadline does not keep runAll() going forever.
    sq.atBarrier([](sim::TimePs e) { return e + 100; }, sq.now() + 100);
    sq.requestBarrier(5000);
    sq.runAll();
    EXPECT_EQ(seen.back(), 5000);
    EXPECT_EQ(sq.now(), 5000);
}

TEST(ShardedEventQueue, RunUntilAdvancesNowWithoutEvents)
{
    sim::ShardedEventQueue::Config qc;
    qc.partitions = 2;
    sim::ShardedEventQueue sq(qc);
    sq.runUntil(12345);
    EXPECT_EQ(sq.now(), 12345);
    for (int p = 0; p < 2; ++p)
        EXPECT_EQ(sq.partition(p).now(), 12345);
}

TEST(ShardedEventQueue, PartitionsRunAheadWithinTheirWindow)
{
    // With a 1000 ps lookahead the window from t0 = 100 ends at 1099:
    // each partition may run ahead to it on its own wheel, never past.
    for (int threads : {1, 2}) {
        sim::ShardedEventQueue::Config qc;
        qc.partitions = 2;
        qc.threads = threads;
        sim::ShardedEventQueue sq(qc);
        sq.registerCrossEdge(0, 1, 1000);
        sq.registerCrossEdge(1, 0, 1000);
        std::vector<std::vector<bool>> got(2);
        std::vector<sim::TimePs> at(2, -1);
        for (int p = 0; p < 2; ++p) {
            sim::EventQueue &eq = sq.partition(p);
            eq.schedule(100 + p, [&eq, &got, &at, p] {
                got[p].push_back(eq.advanceIfIdle(1099, 1));
                got[p].push_back(eq.advanceIfIdle(1100, 1));
                at[p] = eq.now();
            });
        }
        sq.runUntil(5000);
        for (int p = 0; p < 2; ++p) {
            EXPECT_EQ(got[p], (std::vector<bool>{true, false}))
                << "partition " << p << ", " << threads << " threads";
            EXPECT_EQ(at[p], 1099);
            EXPECT_EQ(sq.partition(p).eventsExecuted(), 2u);
        }
        EXPECT_EQ(sq.eventsExecuted(), 4u);
        EXPECT_EQ(sq.now(), 5000);
    }
}

TEST(ShardedEventQueue, PartitionsRunAheadCyclesWithinTheirWindow)
{
    // The cycle-count run-ahead sees the same window end, 1099, as its
    // horizon and counts every cycle on the partition that took them.
    for (int threads : {1, 2}) {
        sim::ShardedEventQueue::Config qc;
        qc.partitions = 2;
        qc.threads = threads;
        sim::ShardedEventQueue sq(qc);
        sq.registerCrossEdge(0, 1, 1000);
        sq.registerCrossEdge(1, 0, 1000);
        std::vector<std::vector<bool>> got(2);
        std::vector<sim::TimePs> horizon(2, -1);
        for (int p = 0; p < 2; ++p) {
            sim::EventQueue &eq = sq.partition(p);
            eq.schedule(100 + p, [&eq, &got, &horizon, p] {
                horizon[p] = eq.runAheadHorizon();
                got[p].push_back(eq.advanceIfIdle(1100, 5));
                got[p].push_back(eq.advanceIfIdle(1099, 5));
            });
        }
        sq.runUntil(5000);
        for (int p = 0; p < 2; ++p) {
            EXPECT_EQ(horizon[p], 1099)
                << "partition " << p << ", " << threads << " threads";
            EXPECT_EQ(got[p], (std::vector<bool>{false, true}));
            EXPECT_EQ(sq.partition(p).eventsExecuted(), 6u);
        }
        EXPECT_EQ(sq.eventsExecuted(), 12u);
    }
}

// --- structural determinism across thread counts ------------------------

/** Per-partition execution log entry: (label, simulated time). */
using LogEntry = std::pair<int, sim::TimePs>;

struct ShardTrace {
    std::vector<std::vector<LogEntry>> logs;  ///< indexed by partition
    std::vector<std::uint64_t> rngFinal;      ///< next draw per stream
    std::uint64_t events = 0;
    std::uint64_t cross = 0;
    std::uint64_t windows = 0;
    sim::TimePs finalNow = 0;

    bool operator==(const ShardTrace &o) const
    {
        return logs == o.logs && rngFinal == o.rngFinal &&
               events == o.events && cross == o.cross &&
               windows == o.windows && finalNow == o.finalNow;
    }
};

/**
 * A randomized multi-partition workload on a ring of cross edges. All
 * state a worker touches (its partition's log, RNG stream, label
 * counter) is owned by that partition, so recording is race-free by
 * construction — exactly the discipline the sharded simulator uses.
 */
ShardTrace
runRingWorkload(std::uint64_t seed, int threads)
{
    constexpr int kParts = 4;
    constexpr sim::TimePs kRingLatency = 1000;
    constexpr sim::TimePs kLimit = 400000;

    sim::ShardedEventQueue::Config qc;
    qc.partitions = kParts;
    qc.threads = threads;
    sim::ShardedEventQueue sq(qc);
    for (int p = 0; p < kParts; ++p)
        sq.registerCrossEdge(p, (p + 1) % kParts, kRingLatency);

    ShardTrace res;
    res.logs.resize(kParts);
    std::vector<sim::Rng> rngs;
    std::vector<int> nextLabel(kParts, 0);
    for (int p = 0; p < kParts; ++p)
        rngs.push_back(sim::Rng::forStream(seed, static_cast<unsigned>(p)));

    // fire(p, label) runs on partition p's worker and touches only
    // partition-p state.
    std::function<void(int, int)> fire = [&](int p, int label) {
        auto &eq = sq.partition(p);
        res.logs[p].emplace_back(label, eq.now());
        auto &rng = rngs[static_cast<std::size_t>(p)];
        const auto roll = rng.next() % 100;
        if (roll < 45) {  // local follow-up
            const int child = p * 1000000 + nextLabel[p]++;
            eq.scheduleAfter(
                1 + static_cast<sim::TimePs>(rng.next() % 20000),
                [&fire, p, child] { fire(p, child); });
        }
        if (roll >= 30 && roll < 70) {  // cross message around the ring
            const int dst = (p + 1) % kParts;
            const int child = p * 1000000 + nextLabel[p]++;
            const sim::TimePs when =
                eq.now() + kRingLatency +
                static_cast<sim::TimePs>(rng.next() % 30000);
            sq.postCross(p, dst, when,
                         [&fire, dst, child] { fire(dst, child); });
        }
    };

    for (int p = 0; p < kParts; ++p) {
        for (int i = 0; i < 12; ++i) {
            const int label = p * 1000000 + nextLabel[p]++;
            sq.partition(p).schedule(
                1 + static_cast<sim::TimePs>((seed + 31u * i) % 5000),
                [&fire, p, label] { fire(p, label); });
        }
    }

    sq.runUntil(kLimit);
    for (auto &rng : rngs)
        res.rngFinal.push_back(rng.next());
    res.events = sq.eventsExecuted();
    res.cross = sq.crossMessages();
    res.windows = sq.windowsRun();
    res.finalNow = sq.now();
    return res;
}

TEST(ShardedDeterminism, RingWorkloadIsByteIdenticalAcrossThreadCounts)
{
    for (std::uint64_t seed : {3ull, 17ull, 404ull, 90210ull, 777777ull}) {
        const ShardTrace ref = runRingWorkload(seed, 1);
        ASSERT_GT(ref.events, 100u) << "workload too small to be meaningful";
        ASSERT_GT(ref.cross, 10u) << "workload never crossed partitions";
        for (int threads : {2, 4, 8}) {
            const ShardTrace got = runRingWorkload(seed, threads);
            EXPECT_TRUE(got == ref)
                << "seed " << seed << ": " << threads
                << "-thread run diverged from the single-thread run "
                << "(events " << got.events << " vs " << ref.events
                << ", cross " << got.cross << " vs " << ref.cross << ")";
        }
    }
}

// --- barrier cost: sparse activity must not change what runs ------------

std::unique_ptr<sim::ShardedEventQueue>
makeMesh(int parts, int threads, sim::TimePs latency)
{
    sim::ShardedEventQueue::Config qc;
    qc.partitions = parts;
    qc.threads = threads;
    auto sq = std::make_unique<sim::ShardedEventQueue>(qc);
    for (int s = 0; s < parts; ++s)
        for (int d = 0; d < parts; ++d)
            if (s != d)
                sq->registerCrossEdge(s, d, latency);
    return sq;
}

TEST(ShardedBarrier, SparseCrossPostsDeliverInTotalOrder)
{
    // 33 partitions, three of them active: only the touched outboxes are
    // flushed, and they must still merge in (when, src, seq) order.
    for (int threads : {1, 2, 4, 8}) {
        auto sq = makeMesh(33, threads, 1000);
        std::vector<std::tuple<sim::TimePs, int, int>> arrivals;
        for (int src : {32, 19}) {
            sq->partition(src).schedule(10, [&sq, &arrivals, src] {
                for (int k = 0; k < 3; ++k)
                    sq->postCross(src, 4, 5000, [&sq, &arrivals, src, k] {
                        arrivals.emplace_back(sq->partition(4).now(), src, k);
                    });
                sq->postCross(src, 4, 4000, [&sq, &arrivals, src] {
                    arrivals.emplace_back(sq->partition(4).now(), src, 9);
                });
            });
        }
        sq->runAll();
        EXPECT_EQ(sq->crossMessages(), 8u) << threads << " workers";
        const std::vector<std::tuple<sim::TimePs, int, int>> want = {
            {4000, 19, 9}, {4000, 32, 9}, {5000, 19, 0}, {5000, 19, 1},
            {5000, 19, 2}, {5000, 32, 0}, {5000, 32, 1}, {5000, 32, 2}};
        EXPECT_EQ(arrivals, want) << threads << " workers";
    }
}

/** Window ends recorded by a no-deadline hook, plus partition 3's log. */
struct CacheRun {
    std::vector<sim::TimePs> windowEnds;
    std::vector<sim::TimePs> idleRuns;  ///< partition 3 execution times
    bool allAtWindowEnd = true;
};

CacheRun
runCacheInvalidation(int threads)
{
    sim::ShardedEventQueue::Config qc;
    qc.partitions = 4;
    qc.threads = threads;
    sim::ShardedEventQueue sq(qc);
    sq.registerCrossEdge(0, 1, 1000);
    sq.registerCrossEdge(1, 0, 1000);

    CacheRun res;
    sq.atBarrier([&](sim::TimePs e) {
        res.windowEnds.push_back(e);
        for (int p = 0; p < sq.partitionCount(); ++p)
            res.allAtWindowEnd &= sq.partition(p).now() == e;
        return sim::kTimeNever;
    });
    // At its deadline this hook schedules onto partition 3, idle until
    // then: the next window must start at that event.
    sq.atBarrier(
        [&](sim::TimePs e) {
            if (e < 3000)
                return sim::TimePs{3000};
            if (e == 3000)
                sq.partition(3).schedule(e + 500, [&] {
                    res.idleRuns.push_back(sq.partition(3).now());
                });
            return sim::kTimeNever;
        },
        3000);
    sq.partition(0).schedule(100, [] {});
    const sim::EventId head = sq.partition(2).schedule(50000, [] {});
    sq.partition(1).schedule(80000, [] {});
    sq.runUntil(10000);

    // Cancel partition 2's head between runs: no window may end at its
    // old time + W - 1.
    sq.partition(2).cancel(head);
    sq.runUntil(60000);
    // Schedule below partition 1's cached head between runs.
    sq.partition(1).schedule(65000, [] {});
    sq.runUntil(100000);
    return res;
}

TEST(ShardedBarrier, CacheInvalidatedFromOutsideAWindow)
{
    const std::vector<sim::TimePs> want = {1099,  3000,  4499,  10000, 60000,
                                           65999, 80999, 100000};
    for (int threads : {1, 2, 4}) {
        const CacheRun got = runCacheInvalidation(threads);
        EXPECT_EQ(got.windowEnds, want) << threads << " workers";
        EXPECT_EQ(got.idleRuns, (std::vector<sim::TimePs>{3500}))
            << threads << " workers";
        EXPECT_TRUE(got.allAtWindowEnd) << threads << " workers";
    }
}

/**
 * A sparse 33-partition workload with every kind of window bound: three
 * active partitions exchanging randomized cross traffic, a sampling hook
 * with periodic deadlines that also wakes idle partitions, a one-shot
 * requestBarrier, and an edit between two runs. Returns the window-end
 * sequence seen by a no-deadline hook, which also checks that every
 * partition's now() equals each window end.
 */
std::vector<sim::TimePs>
sparseWindowEnds(int threads, bool &allAtWindowEnd)
{
    constexpr int kParts = 33;
    constexpr sim::TimePs kLatency = 1000;
    const std::vector<int> active = {2, 17, 30};
    auto sqp = makeMesh(kParts, threads, kLatency);
    sim::ShardedEventQueue &sq = *sqp;

    std::vector<sim::TimePs> ends;
    allAtWindowEnd = true;
    sq.atBarrier([&](sim::TimePs e) {
        ends.push_back(e);
        for (int p = 0; p < kParts; ++p)
            allAtWindowEnd &= sq.partition(p).now() == e;
        return sim::kTimeNever;
    });

    std::vector<sim::Rng> rngs;
    for (int p = 0; p < kParts; ++p)
        rngs.push_back(sim::Rng::forStream(2016, static_cast<unsigned>(p)));
    std::function<void(int, int)> fire = [&](int p, int hops) {
        if (hops == 0)
            return;
        sim::Rng &rng = rngs[static_cast<std::size_t>(p)];
        const sim::TimePs now = sq.partition(p).now();
        if (rng.next() % 3 == 0)
            sq.partition(p).schedule(
                now + static_cast<sim::TimePs>(rng.next() % 700),
                [&fire, p, hops] { fire(p, hops - 1); });
        const int dst = active[rng.next() % active.size()];
        if (dst != p)
            sq.postCross(p, dst,
                         now + kLatency +
                             static_cast<sim::TimePs>(rng.next() % 4000),
                         [&fire, dst, hops] { fire(dst, hops - 1); });
    };
    for (int p : active)
        sq.partition(p).schedule(10 + p, [&fire, p] { fire(p, 40); });

    // Every 7 ns sample; at each sample wake an idle partition that posts
    // into an active one.
    sq.atBarrier(
        [&](sim::TimePs e) {
            if (e % 7000 != 0)
                return (e / 7000 + 1) * 7000;
            const int idle = 5 + static_cast<int>((e / 7000) % 9);
            sq.partition(idle).schedule(e + 300, [&sq, &fire, idle] {
                sq.postCross(idle, 17, sq.partition(idle).now() + 1500,
                             [&fire] { fire(17, 3); });
            });
            return e + 7000;
        },
        7000);
    sq.requestBarrier(12345);
    const sim::EventId late = sq.partition(25).schedule(45000, [] {});
    sq.runUntil(30000);
    sq.partition(25).cancel(late);
    sq.partition(11).schedule(31000, [&sq, &fire] {
        sq.postCross(11, 30, sq.partition(11).now() + 2000,
                     [&fire] { fire(30, 5); });
    });
    sq.runUntil(60000);
    return ends;
}

TEST(ShardedBarrier, WindowEndsPinnedAcrossWorkerCounts)
{
    // Captured with the O(P^2) barrier that scanned every partition and
    // every (src, dst) outbox each window; the sequence must not move.
    const std::vector<sim::TimePs> golden = {
        1011,  2366,  3422,  6138,  7000,  8282,  9799,  12345, 14000, 15299,
        16799, 18180, 21000, 22299, 23799, 24851, 26848, 28000, 29299, 30000,
        31999, 33100, 35000, 36299, 37799, 41505, 42000, 43113, 44799, 46543,
        48013, 49000, 50299, 51799, 53516, 56000, 57207, 58799, 60000};
    for (int threads : {1, 2, 4, 8}) {
        bool allAtWindowEnd = false;
        const auto ends = sparseWindowEnds(threads, allAtWindowEnd);
        EXPECT_EQ(ends, golden) << threads << " workers";
        EXPECT_TRUE(allAtWindowEnd) << threads << " workers";
    }
}

// --- sparse barrier: a window visits only the partitions with work ---

TEST(ShardedBarrier, IdlePartitionReadsWindowEndAndCountsFromIt)
{
    // Partition 3 runs nothing before the hook's deadline, yet it reads
    // now() == E there, and an event the hook schedules 40 ps after it
    // lands at E + 40.
    for (int threads : {1, 2, 4}) {
        auto sq = makeMesh(4, threads, 1000);
        std::vector<sim::TimePs> idleNow;
        std::vector<sim::TimePs> ran;
        sq->partition(0).schedule(100, [] {});
        sq->atBarrier(
            [&](sim::TimePs e) {
                if (e < 2500)
                    return sim::TimePs{2500};
                if (e == 2500) {
                    idleNow.push_back(sq->partition(3).now());
                    sq->partition(3).scheduleAfter(40, [&] {
                        ran.push_back(sq->partition(3).now());
                    });
                }
                return sim::kTimeNever;
            },
            2500);
        sq->runUntil(10000);
        EXPECT_EQ(idleNow, std::vector<sim::TimePs>{2500})
            << threads << " workers";
        EXPECT_EQ(ran, std::vector<sim::TimePs>{2540}) << threads << " workers";
    }
}

TEST(ShardedBarrier, EveryPartitionReadsTheRunLimit)
{
    // Partitions 0 and 1 trade a message; partition 2 never runs and
    // partition 3 runs once, early. All of them read the limit after.
    for (int threads : {1, 2, 4}) {
        auto sq = makeMesh(4, threads, 1000);
        sq->partition(0).schedule(100, [&sq] {
            sq->postCross(0, 1, 1600, [] {});
        });
        sq->partition(3).schedule(50, [] {});
        sq->runUntil(7777);
        for (int q = 0; q < 4; ++q)
            EXPECT_EQ(sq->partition(q).now(), 7777)
                << "partition " << q << ", " << threads << " workers";
        EXPECT_EQ(sq->eventsExecuted(), 3u);
    }
}

TEST(ShardedQueueDeath, ScheduleBelowWindowEndOnIdlePartitionPanics)
{
    EXPECT_DEATH(
        {
            auto sq = makeMesh(3, 1, 1000);
            sq->partition(0).schedule(100, [] {});
            sq->runUntil(5000);
            // Partition 2 never ran, but its clock reads the window end.
            sq->partition(2).schedule(4999, [] {});
        },
        "is in the past");
}

/** Window ends when a hook cancels idle partition 2's earliest event. */
std::vector<sim::TimePs>
cancelFromHookWindowEnds(int threads)
{
    auto sq = makeMesh(4, threads, 1000);
    std::vector<sim::TimePs> ends;
    sq->partition(0).schedule(100, [] {});
    const sim::EventId early = sq->partition(2).schedule(3000, [] {});
    sq->partition(2).schedule(7000, [] {});
    sq->atBarrier([&](sim::TimePs e) {
        ends.push_back(e);
        if (e == 1099)
            sq->partition(2).cancel(early);
        return sim::kTimeNever;
    });
    sq->runUntil(10000);
    return ends;
}

TEST(ShardedBarrier, HookCancelOfIdleHeadMovesNextWindowStart)
{
    // The cached head of partition 2 (3000) must not outlive the cancel:
    // the next window starts at 7000.
    const std::vector<sim::TimePs> want = {1099, 7999, 10000};
    for (int threads : {1, 2, 4})
        EXPECT_EQ(cancelFromHookWindowEnds(threads), want)
            << threads << " workers";
}

/** What a hook does to idle partition 2's head list at the first barrier. */
enum class ListEdit { kNone, kCancelMiddle, kCancelEarliest, kAddLater };

struct ListEditRun {
    std::vector<sim::TimePs> ends;
    std::uint64_t visits = 0;
};

/**
 * Window ends and partition visits when a hook edits the head list of
 * idle partition 2, which holds events at 3000, 3500 and 7000.
 */
ListEditRun
listEditRun(int threads, ListEdit edit)
{
    auto sq = makeMesh(4, threads, 1000);
    ListEditRun run;
    sq->partition(0).schedule(100, [] {});
    std::vector<sim::EventId> ids;
    for (const sim::TimePs t : {3000, 3500, 7000})
        ids.push_back(sq->partition(2).schedule(t, [] {}));
    sq->atBarrier([&](sim::TimePs e) {
        run.ends.push_back(e);
        if (e != 1099)
            return sim::kTimeNever;
        switch (edit) {
        case ListEdit::kNone:
            break;
        case ListEdit::kCancelMiddle:
            sq->partition(2).cancel(ids[1]);
            break;
        case ListEdit::kCancelEarliest:
            sq->partition(2).cancel(ids[0]);
            break;
        case ListEdit::kAddLater:
            sq->partition(2).schedule(3700, [] {});
            break;
        }
        return sim::kTimeNever;
    });
    sq->runUntil(10000);
    run.visits = sq->partitionVisits();
    return run;
}

TEST(ShardedBarrier, HeadListReportsOnlyEditsOfItsEarliestEntry)
{
    // Only a cancel of the earliest entry can move partition 2's next
    // event time, so only that edit puts it on the touch list, and the
    // next window starts at 3500. Cancelling the middle entry, or listing
    // an event behind the earliest one (all inside the 3000 window),
    // visits exactly as often as no edit at all.
    const std::vector<sim::TimePs> plain = {1099, 3999, 7999, 10000};
    for (int threads : {1, 2, 4}) {
        const ListEditRun none = listEditRun(threads, ListEdit::kNone);
        EXPECT_EQ(none.ends, plain) << threads << " workers";
        for (const ListEdit edit :
             {ListEdit::kCancelMiddle, ListEdit::kAddLater}) {
            const ListEditRun run = listEditRun(threads, edit);
            EXPECT_EQ(run.ends, plain) << threads << " workers";
            EXPECT_EQ(run.visits, none.visits) << threads << " workers";
        }
        const ListEditRun earliest =
            listEditRun(threads, ListEdit::kCancelEarliest);
        EXPECT_EQ(earliest.ends, (std::vector<sim::TimePs>{1099, 4499, 7999,
                                                           10000}))
            << threads << " workers";
        // One more visit: the report's refresh of partition 2.
        EXPECT_EQ(earliest.visits, none.visits + 1) << threads << " workers";
    }
}

TEST(ShardedBarrier, PartitionVisitsCountOnlyTheBusyPair)
{
    // 261 partitions, one ball bounced between partitions 0 and 1 every
    // 1500 ps. A window runs the holder, and the next barrier refreshes
    // it and the partner its message woke, plus partition 0's build-time
    // event once: 3 visits a window instead of >= 3 x 261.
    constexpr int kParts = 261;
    constexpr sim::TimePs kLatency = 1500;
    constexpr int kWindows = 100;
    for (int threads : {1, 2, 4}) {
        sim::ShardedEventQueue::Config qc;
        qc.partitions = kParts;
        qc.threads = threads;
        sim::ShardedEventQueue sq(qc);
        sq.registerCrossEdge(0, 1, kLatency);
        sq.registerCrossEdge(1, 0, kLatency);
        std::function<void(int)> bounce = [&](int p) {
            sq.postCross(p, p ^ 1, sq.partition(p).now() + kLatency,
                         [&bounce, p] { bounce(p ^ 1); });
        };
        sq.partition(0).schedule(1, [&bounce] { bounce(0); });
        sq.runUntil(kWindows * kLatency);
        EXPECT_EQ(sq.windowsRun(), static_cast<std::uint64_t>(kWindows));
        EXPECT_EQ(sq.partitionVisits(),
                  static_cast<std::uint64_t>(3 * kWindows - 1))
            << threads << " workers";
    }
}

// --- claimed handoff: busy partitions go to whichever thread is awake ---

/** What one run of the handoff workload observed. */
struct HandoffRun {
    std::vector<std::vector<LogEntry>> logs;  ///< indexed by partition
    std::vector<sim::TimePs> windowEnds;
    std::uint64_t cross = 0;
    std::uint64_t events = 0;
    std::vector<int> busyWindows;  ///< windows by partitions executing
    int stalls = 0;  ///< handlers that held their partition
    /** Events run on a worker thread rather than the coordinator. */
    int workerEvents = 0;

    bool operator==(const HandoffRun &o) const
    {
        return logs == o.logs && windowEnds == o.windowEnds &&
               cross == o.cross && events == o.events;
    }
};

/**
 * Nine partitions on a full mesh. At every 1 ns barrier a seeded driver
 * hook wakes 0 to 9 of them for the next window with one handler event
 * and 40 events that only log; a handler uses its partition's own RNG
 * stream to schedule local follow-ups, post cross messages, and now and
 * then busy-wait ~100 us of wall time, so the coordinator must wait on a
 * partition another thread claimed. With
 * @p sleepBeforeShutdown the kernel is destroyed after its workers have
 * gone to sleep, otherwise while they still spin.
 */
HandoffRun
runHandoffWorkload(std::uint64_t seed, int threads, bool sleepBeforeShutdown)
{
    constexpr int kParts = 9;
    constexpr sim::TimePs kLatency = 1000;
    constexpr int kRounds = 120;
    constexpr int kTicks = 40;  ///< per woken partition and window
    auto sqp = makeMesh(kParts, threads, kLatency);
    sim::ShardedEventQueue &sq = *sqp;

    HandoffRun res;
    res.logs.resize(kParts);
    res.busyWindows.resize(kParts + 1);
    std::vector<sim::Rng> rngs;
    for (int p = 0; p < kParts; ++p)
        rngs.push_back(
            sim::Rng::forStream(seed, static_cast<unsigned>(p + 1)));
    std::vector<int> nextLabel(kParts, 0);
    std::vector<int> stalls(kParts, 0);
    std::vector<int> workerEvents(kParts, 0);
    const std::thread::id coordinator = std::this_thread::get_id();

    std::function<void(int)> fire = [&](int p) {
        sim::EventQueue &eq = sq.partition(p);
        sim::Rng &rng = rngs[static_cast<std::size_t>(p)];
        workerEvents[static_cast<std::size_t>(p)] +=
            std::this_thread::get_id() != coordinator;
        res.logs[static_cast<std::size_t>(p)].emplace_back(nextLabel[p]++,
                                                           eq.now());
        const auto roll = rng.next() % 100;
        if (roll < 3) {
            ++stalls[static_cast<std::size_t>(p)];
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::microseconds(100);
            while (std::chrono::steady_clock::now() < until) {
            }
        }
        if (roll < 25)
            eq.scheduleAfter(1 + static_cast<sim::TimePs>(rng.next() % 500),
                             [&fire, p] { fire(p); });
        if (roll >= 85) {
            const int dst = static_cast<int>(rng.next() % kParts);
            if (dst != p)
                sq.postCross(p, dst,
                             eq.now() + kLatency +
                                 static_cast<sim::TimePs>(rng.next() % 2000),
                             [&fire, dst] { fire(dst); });
        }
    };

    // Cheap events that only log, so a window with two busy partitions
    // has enough work for the kernel to hand it off.
    const auto tick = [&](int p) {
        res.logs[static_cast<std::size_t>(p)].emplace_back(
            nextLabel[p]++, sq.partition(p).now());
    };

    std::vector<std::uint64_t> executed(kParts, 0);
    sq.atBarrier([&](sim::TimePs e) {
        res.windowEnds.push_back(e);
        int busy = 0;
        for (int p = 0; p < kParts; ++p) {
            const std::uint64_t n = sq.partition(p).eventsExecuted();
            busy += n != executed[static_cast<std::size_t>(p)];
            executed[static_cast<std::size_t>(p)] = n;
        }
        ++res.busyWindows[static_cast<std::size_t>(busy)];
        return sim::kTimeNever;
    });
    sim::Rng driver = sim::Rng::forStream(seed, 0);
    sq.atBarrier(
        [&](sim::TimePs e) {
            if (e % kLatency != 0)
                return (e / kLatency + 1) * kLatency;
            std::vector<int> order(kParts);
            for (int p = 0; p < kParts; ++p)
                order[static_cast<std::size_t>(p)] = p;
            for (int i = kParts - 1; i > 0; --i)
                std::swap(order[static_cast<std::size_t>(i)],
                          order[driver.next() %
                                static_cast<std::uint64_t>(i + 1)]);
            const auto woken = driver.next() % (kParts + 1);
            for (std::uint64_t i = 0; i < woken; ++i) {
                const int p = order[i];
                const auto at = [&] {
                    return e + 1 +
                           static_cast<sim::TimePs>(driver.next() %
                                                    (kLatency - 1));
                };
                sq.partition(p).schedule(at(), [&fire, p] { fire(p); });
                for (int k = 0; k < kTicks; ++k)
                    sq.partition(p).schedule(at(), [&tick, p] { tick(p); });
            }
            return e / kLatency < kRounds ? e + kLatency : sim::kTimeNever;
        },
        kLatency);

    sq.runUntil((kRounds + 4) * kLatency);
    res.cross = sq.crossMessages();
    res.events = sq.eventsExecuted();
    for (int p = 0; p < kParts; ++p) {
        res.stalls += stalls[static_cast<std::size_t>(p)];
        res.workerEvents += workerEvents[static_cast<std::size_t>(p)];
    }
    if (sleepBeforeShutdown)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return res;
}

TEST(ShardedHandoff, ClaimedWindowsMatchTheOneThreadRun)
{
    int workerEvents = 0;
    for (std::uint64_t seed : {5ull, 61ull, 2024ull}) {
        const HandoffRun ref = runHandoffWorkload(seed, 1, false);
        // Every busy count from 0 to P occurs, and handlers stall.
        for (std::size_t busy = 0; busy < ref.busyWindows.size(); ++busy)
            ASSERT_GT(ref.busyWindows[busy], 0)
                << "seed " << seed << ": no window with " << busy
                << " busy partitions";
        ASSERT_GT(ref.stalls, 10) << "seed " << seed;
        ASSERT_GT(ref.cross, 100u) << "seed " << seed;
        // 8 workers outnumber the cores of a small host on purpose.
        for (int threads : {2, 3, 4, 8}) {
            for (bool sleepBeforeShutdown : {false, true}) {
                const HandoffRun got =
                    runHandoffWorkload(seed, threads, sleepBeforeShutdown);
                EXPECT_TRUE(got == ref)
                    << "seed " << seed << ", " << threads
                    << " threads: events " << got.events << " vs "
                    << ref.events << ", cross " << got.cross << " vs "
                    << ref.cross << ", windows " << got.windowEnds.size()
                    << " vs " << ref.windowEnds.size();
                workerEvents += got.workerEvents;
            }
        }
    }
    // Workers must take part: a claim word they cannot see or take
    // leaves every window to the coordinator.
    EXPECT_GT(workerEvents, 0);
}

TEST(ShardedHandoff, KernelsTornDownRightAfterAHandoff)
{
    // Each kernel runs one window with every partition busy, then is
    // destroyed at once, while its workers are still spinning for the
    // next phase or just claiming; alternate ones are left idle first.
    for (int round = 0; round < 40; ++round) {
        const int threads = 2 + round % 7;
        auto sq = makeMesh(8, threads, 1000);
        std::vector<int> ran(8, 0);
        for (int p = 0; p < 8; ++p)
            sq->partition(p).schedule(10 + p, [&ran, p] { ++ran[p]; });
        sq->runUntil(500);
        EXPECT_EQ(ran, std::vector<int>(8, 1)) << threads << " threads";
        EXPECT_EQ(sq->windowsRun(), 1u);
        if (round % 2 == 1)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

// --- Rng::forStream: per-shard stream derivation ------------------------

TEST(RngForStream, SameMasterAndStreamReproduceExactly)
{
    for (std::uint64_t master : {0ull, 42ull, 0xDEADBEEFull}) {
        for (std::uint64_t stream : {0ull, 1ull, 7ull, 1000ull}) {
            sim::Rng a = sim::Rng::forStream(master, stream);
            sim::Rng b = sim::Rng::forStream(master, stream);
            for (int i = 0; i < 64; ++i)
                ASSERT_EQ(a.next(), b.next())
                    << "master " << master << " stream " << stream;
        }
    }
}

TEST(RngForStream, StreamsAreStableRegardlessOfShardCount)
{
    // The pod-p stream depends only on (master, p) — resharding the same
    // cloud over a different worker count, or instantiating streams in a
    // different order, cannot change any pod's sequence.
    const std::uint64_t master = 20260808;
    std::vector<std::uint64_t> firstOf8;
    for (int p = 0; p < 8; ++p)
        firstOf8.push_back(sim::Rng::forStream(master, static_cast<unsigned>(p)).next());
    // "2-shard" instantiation order: evens then odds.
    for (int p = 6; p >= 0; p -= 2)
        EXPECT_EQ(sim::Rng::forStream(master, static_cast<unsigned>(p)).next(),
                  firstOf8[static_cast<std::size_t>(p)]);
}

TEST(RngForStream, DistinctStreamsAndMastersDiverge)
{
    // Counter-based derivation: neighbouring streams and masters must
    // not collide or overlap in their opening draws.
    const std::uint64_t master = 99;
    std::set<std::uint64_t> seen;
    constexpr int kStreams = 64;
    constexpr int kDraws = 32;
    for (int s = 0; s < kStreams; ++s) {
        sim::Rng rng = sim::Rng::forStream(master, static_cast<unsigned>(s));
        for (int i = 0; i < kDraws; ++i)
            seen.insert(rng.next());
    }
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(kStreams) * kDraws)
        << "overlapping per-stream sequences";
    EXPECT_NE(sim::Rng::forStream(1, 0).next(),
              sim::Rng::forStream(2, 0).next());
}

}  // namespace
