/**
 * @file
 * Cluster serving layer tests: balancer policies (round-robin parity,
 * least-outstanding determinism, bounded-load consistent hashing),
 * token-bucket admission (deterministic shedding, tenant isolation),
 * outlier ejection (consecutive errors, latency percentile, the
 * max-ejected-fraction guard), the ClusterClient facade end-to-end with
 * a RankingServer, config validation, and same-seed snapshot identity
 * per balancer policy.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "host/feature_accelerator.hpp"
#include "host/ranking_server.hpp"
#include "obs/flow_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "serving/admission.hpp"
#include "serving/balancer.hpp"
#include "serving/cluster_client.hpp"
#include "serving/outlier.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "reference_outlier.hpp"

namespace {

using namespace ccsim;
using serving::AdmissionConfig;
using serving::AdmissionController;
using serving::BalancerPolicy;
using serving::ClusterClient;
using serving::EjectionConfig;
using serving::OutlierDetector;
using serving::ServingConfig;
using sim::EventQueue;

// One way to configure: fields or designated initializers, no setters.
static_assert(std::is_aggregate_v<serving::RequestPolicy>);
static_assert(std::is_aggregate_v<EjectionConfig>);
static_assert(std::is_aggregate_v<ServingConfig>);
static_assert(std::is_aggregate_v<obs::SloObjective>);

/** Fixed-latency accelerator endpoint standing in for a remote FPGA. */
class StubAccelerator : public host::FeatureAccelerator
{
  public:
    StubAccelerator(EventQueue &eq, sim::TimePs latency)
        : queue(eq), serviceTime(latency)
    {
    }

    void compute(std::uint32_t, std::function<void()> done) override
    {
        ++requests;
        if (dead)
            return;  // swallow: the request never completes
        queue.scheduleAfter(serviceTime, [d = std::move(done)] {
            if (d)
                d();
        });
    }

    void setLatency(sim::TimePs latency) { serviceTime = latency; }
    void setDead(bool d) { dead = d; }

    EventQueue &queue;
    sim::TimePs serviceTime;
    bool dead = false;
    int requests = 0;
};

// ---------------------------------------------------------------------
// Balancers
// ---------------------------------------------------------------------

TEST(Balancer, RoundRobinCyclesAndSurvivesMembershipChanges)
{
    auto lb = serving::makeBalancer(BalancerPolicy::kRoundRobin);
    lb->setHosts({4, 7, 9});
    // Legacy semantics: free-running counter, index = counter % size.
    EXPECT_EQ(lb->pick(0, {}), 4);
    EXPECT_EQ(lb->pick(0, {}), 7);
    EXPECT_EQ(lb->pick(0, {}), 9);
    EXPECT_EQ(lb->pick(0, {}), 4);
    // Counter is at 4; with 2 hosts the next pick is index 4 % 2 = 0.
    lb->setHosts({4, 7});
    EXPECT_EQ(lb->pick(0, {}), 4);
    EXPECT_EQ(lb->pick(0, {}), 7);
    lb->setHosts({});
    EXPECT_EQ(lb->pick(0, {}), -1);
}

TEST(Balancer, LeastOutstandingPicksFewestWithFirstSeenTieBreak)
{
    auto lb = serving::makeBalancer(BalancerPolicy::kLeastOutstanding);
    lb->setHosts({3, 1, 5});
    std::map<int, int> load{{3, 2}, {1, 1}, {5, 1}};
    auto out = [&](int h) { return load[h]; };
    // 1 and 5 tie at one outstanding; the first seen in set order wins.
    EXPECT_EQ(lb->pick(0, out), 1);
    load[1] = 3;
    EXPECT_EQ(lb->pick(0, out), 5);
    load[5] = 4;
    EXPECT_EQ(lb->pick(0, out), 3);
    // No outstanding function at all: first host wins (all count 0).
    EXPECT_EQ(lb->pick(0, {}), 3);
}

TEST(Balancer, ConsistentHashGivesStableAffinity)
{
    auto lb = serving::makeBalancer(
        BalancerPolicy::kBoundedLoadConsistentHash, 64, 8.0);
    lb->setHosts({0, 1, 2, 3});
    // With a generous load bound and no outstanding load, a key's pick
    // is its ring home — identical on every call.
    for (std::uint64_t key = 1; key <= 200; ++key) {
        const int first = lb->pick(key, {});
        EXPECT_EQ(lb->pick(key, {}), first) << "key " << key;
        EXPECT_GE(first, 0);
    }
}

TEST(Balancer, ConsistentHashMovesFewKeysOnMembershipChange)
{
    auto lb = serving::makeBalancer(
        BalancerPolicy::kBoundedLoadConsistentHash, 64, 8.0);
    lb->setHosts({0, 1, 2, 3});
    std::map<std::uint64_t, int> before;
    for (std::uint64_t key = 1; key <= 500; ++key)
        before[key] = lb->pick(key, {});
    lb->setHosts({0, 1, 2, 3, 4});
    int moved = 0, movedElsewhere = 0;
    for (std::uint64_t key = 1; key <= 500; ++key) {
        const int now = lb->pick(key, {});
        if (now != before[key]) {
            ++moved;
            if (now != 4)
                ++movedElsewhere;  // should only move TO the new host
        }
    }
    // Consistent hashing moves ~1/n of the keys, all toward the new
    // host; a modulo hash would reshuffle ~4/5 of them.
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, 250);  // well under half; expectation ~100
    EXPECT_EQ(movedElsewhere, 0);
}

TEST(Balancer, ConsistentHashRespectsBoundedLoad)
{
    auto lb = serving::makeBalancer(
        BalancerPolicy::kBoundedLoadConsistentHash, 64, 1.25);
    lb->setHosts({0, 1, 2});
    // Find a key homed on some host, then saturate that host: the same
    // key must spill to a different host instead of queueing behind it.
    const std::uint64_t key = 42;
    const int home = lb->pick(key, {});
    std::map<int, int> load;
    // cap = ceil(1.25 * (total + 1) / 3); total = 9 -> cap = ceil(4.16)
    // = 5. Put 6 on the home host, 2 and 1 on the others.
    int other = -1;
    for (int h : {0, 1, 2})
        if (h != home && other < 0)
            other = h;
    load[home] = 6;
    load[other] = 2;
    load[3 - home - other] = 1;
    auto out = [&](int h) { return load[h]; };
    const int spilled = lb->pick(key, out);
    EXPECT_NE(spilled, home);
    EXPECT_GE(spilled, 0);
}

TEST(Balancer, FactoryNames)
{
    EXPECT_STREQ(serving::makeBalancer(BalancerPolicy::kRoundRobin)->name(),
                 "round_robin");
    EXPECT_STREQ(
        serving::makeBalancer(BalancerPolicy::kLeastOutstanding)->name(),
        "least_outstanding");
    EXPECT_STREQ(
        serving::makeBalancer(BalancerPolicy::kBoundedLoadConsistentHash)
            ->name(),
        "bounded_load_ch");
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(Admission, UnlimitedByDefault)
{
    EventQueue eq;
    AdmissionController ac(eq, {});
    EXPECT_TRUE(ac.unlimited());
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(ac.tryAdmit());
    EXPECT_EQ(ac.shed(), 0u);
}

TEST(Admission, ShedsDeterministicallyUnderFixedArrivalTrace)
{
    // 1000 req/s = one token per millisecond; burst of 2. Submit 3
    // back-to-back, then one every 0.7 ms: the admit/shed pattern is a
    // pure function of the arrival timeline. (0.7 ms keeps every
    // token-count comparison at least 0.1 tokens away from the
    // admission threshold, far outside float rounding.)
    auto run = [&] {
        EventQueue eq;
        AdmissionController ac(
            eq, AdmissionConfig{}.withRate(1000.0, 2.0));
        std::vector<int> decisions;
        auto submit = [&] { decisions.push_back(ac.tryAdmit() ? 1 : 0); };
        submit();  // t=0: burst token 1
        submit();  // t=0: burst token 2
        submit();  // t=0: empty -> shed
        for (int i = 1; i <= 9; ++i) {
            eq.scheduleAfter(i * 700 * sim::kMicrosecond, submit);
        }
        eq.runAll();
        return decisions;
    };
    const std::vector<int> first = run();
    // Token level at each arrival (refill 0.7/arrival, take on admit):
    // 0.7 shed, 1.4 admit, 1.1 admit, 0.8 shed, 1.5 admit, 1.2 admit,
    // 0.9 shed, 1.6 admit, 1.3 admit.
    const std::vector<int> expected = {1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1};
    EXPECT_EQ(first, expected);
    EXPECT_EQ(run(), first);  // same trace, same decisions, every run
}

TEST(Admission, TenantBucketsIsolateAndChargeTheBindingConstraint)
{
    EventQueue eq;
    AdmissionController ac(
        eq, AdmissionConfig{}
                .withRate(1'000'000.0, 100.0)  // global: effectively open
                .withTenant("noisy", 1000.0, 1.0)
                .withTenant("quiet", 1000.0, 5.0));
    // The noisy tenant exhausts its own bucket; the quiet tenant and
    // untagged traffic are untouched.
    EXPECT_TRUE(ac.tryAdmit("noisy"));
    EXPECT_FALSE(ac.tryAdmit("noisy"));
    EXPECT_FALSE(ac.tryAdmit("noisy"));
    EXPECT_TRUE(ac.tryAdmit("quiet"));
    EXPECT_TRUE(ac.tryAdmit());
    EXPECT_TRUE(ac.tryAdmit("unknown-tenant"));  // only the global gate
    EXPECT_EQ(ac.shedFor("noisy"), 2u);
    EXPECT_EQ(ac.shedFor("quiet"), 0u);
    EXPECT_EQ(ac.shed(), 2u);
    EXPECT_EQ(ac.admitted(), 4u);
}

TEST(Admission, ShedDoesNotConsumeTokens)
{
    EventQueue eq;
    AdmissionController ac(eq, AdmissionConfig{}
                                   .withRate(1000.0, 10.0)
                                   .withTenant("t", 1000.0, 1.0));
    // Tenant bucket refuses; the global bucket must not be debited.
    EXPECT_TRUE(ac.tryAdmit("t"));
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(ac.tryAdmit("t"));
    // 9 global tokens must remain for untagged traffic.
    for (int i = 0; i < 9; ++i)
        EXPECT_TRUE(ac.tryAdmit()) << "global token " << i << " missing";
    EXPECT_FALSE(ac.tryAdmit());
}

TEST(AdmissionDeathTest, InvalidConfigsAreFatal)
{
    EventQueue eq;
    EXPECT_DEATH(AdmissionController(
                     eq, AdmissionConfig{}.withRate(-1.0, 1.0)),
                 "ratePerSec");
    EXPECT_DEATH(AdmissionController(
                     eq, AdmissionConfig{}.withRate(10.0, 0.5)),
                 "burst");
    EXPECT_DEATH(AdmissionController(eq, AdmissionConfig{}
                                             .withTenant("a", 10.0, 1.0)
                                             .withTenant("a", 5.0, 1.0)),
                 "duplicate");
}

// ---------------------------------------------------------------------
// Outlier detection
// ---------------------------------------------------------------------

TEST(Outlier, ConsecutiveErrorsEjectTemporarily)
{
    EventQueue eq;
    EjectionConfig cfg;
    cfg.consecutiveErrors = 3;
    cfg.baseEjectionTime = 10 * sim::kMillisecond;
    OutlierDetector det(eq, cfg);
    det.trackHosts({0, 1});

    det.recordError(0);
    det.recordError(0);
    EXPECT_FALSE(det.ejected(0));
    det.recordSuccess(0, sim::kMillisecond);  // success resets the run
    det.recordError(0);
    det.recordError(0);
    EXPECT_FALSE(det.ejected(0));
    det.recordError(0);
    EXPECT_TRUE(det.ejected(0));
    EXPECT_FALSE(det.ejected(1));
    EXPECT_EQ(det.ejectionsByErrors(), 1u);

    // Ejection expires lazily at base ejection time.
    eq.scheduleAfter(cfg.baseEjectionTime + 1, [] {});
    eq.runAll();
    EXPECT_FALSE(det.ejected(0));
}

TEST(Outlier, RepeatEjectionDurationDoubles)
{
    EventQueue eq;
    EjectionConfig cfg;
    cfg.consecutiveErrors = 1;
    cfg.baseEjectionTime = 10 * sim::kMillisecond;
    cfg.maxEjectedFraction = 1.0;
    OutlierDetector det(eq, cfg);
    det.trackHosts({0, 1});

    det.recordError(0);
    EXPECT_TRUE(det.ejected(0));
    // After the first ejection expires, a second one lasts 2x.
    eq.scheduleAfter(10 * sim::kMillisecond + 1, [&] {
        EXPECT_FALSE(det.ejected(0));
        det.recordError(0);
        EXPECT_TRUE(det.ejected(0));
    });
    eq.scheduleAfter(25 * sim::kMillisecond, [&] {
        EXPECT_TRUE(det.ejected(0)) << "second ejection must last 20 ms";
    });
    eq.scheduleAfter(31 * sim::kMillisecond, [&] {
        EXPECT_FALSE(det.ejected(0));
    });
    eq.runAll();
    EXPECT_EQ(det.ejections(), 2u);
}

TEST(Outlier, LatencyPercentileEjectsGreyHost)
{
    EventQueue eq;
    EjectionConfig cfg;
    cfg.consecutiveErrors = 0;  // isolate the latency signal
    cfg.latencyFactor = 3.0;
    cfg.latencyPercentile = 50.0;
    cfg.minLatencySamples = 32;
    cfg.latencyWindow = 64;
    OutlierDetector det(eq, cfg);
    det.trackHosts({0, 1, 2});

    // Hosts 1 and 2 answer in 1 ms; host 0 answers but 20x slower — the
    // classic grey failure heartbeats cannot see.
    for (int i = 0; i < 64; ++i) {
        det.recordSuccess(1, sim::kMillisecond);
        det.recordSuccess(2, sim::kMillisecond);
        det.recordSuccess(0, 20 * sim::kMillisecond);
    }
    EXPECT_TRUE(det.ejected(0));
    EXPECT_FALSE(det.ejected(1));
    EXPECT_FALSE(det.ejected(2));
    EXPECT_EQ(det.ejectionsByLatency(), 1u);
    EXPECT_EQ(det.ejectionsByErrors(), 0u);
}

TEST(Outlier, MaxEjectedFractionNeverEmptiesThePool)
{
    EventQueue eq;
    EjectionConfig cfg;
    cfg.consecutiveErrors = 1;
    cfg.maxEjectedFraction = 0.5;
    OutlierDetector det(eq, cfg);
    det.trackHosts({0, 1, 2, 3});

    det.recordError(0);
    det.recordError(1);
    EXPECT_TRUE(det.ejected(0));
    EXPECT_TRUE(det.ejected(1));
    // Limit is floor(0.5 * 4) = 2: further ejections are suppressed.
    det.recordError(2);
    det.recordError(3);
    EXPECT_FALSE(det.ejected(2));
    EXPECT_FALSE(det.ejected(3));
    EXPECT_EQ(det.ejectionsSuppressed(), 2u);
    EXPECT_EQ(det.ejectedCount(), 2);
}

TEST(Outlier, EvidenceSinkFiresPerEjection)
{
    EventQueue eq;
    EjectionConfig cfg;
    cfg.consecutiveErrors = 1;
    cfg.evidenceWeight = 2.5;
    OutlierDetector det(eq, cfg);
    det.trackHosts({0, 1});
    std::vector<std::pair<int, double>> reports;
    det.setEvidenceSink([&](int host, double w) {
        reports.emplace_back(host, w);
    });
    det.recordError(1);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].first, 1);
    EXPECT_DOUBLE_EQ(reports[0].second, 2.5);
}

TEST(OutlierDeathTest, InvalidConfigsAreFatal)
{
    EventQueue eq;
    EjectionConfig bad_fraction;
    bad_fraction.maxEjectedFraction = 1.5;
    EXPECT_DEATH(OutlierDetector(eq, bad_fraction), "maxEjectedFraction");
    EjectionConfig bad_window;
    bad_window.latencyWindow = 4;
    bad_window.minLatencySamples = 8;
    EXPECT_DEATH(OutlierDetector(eq, bad_window), "latencyWindow");
}

/** Asserts the two detectors agree on everything observable. */
void
expectSameDetectorState(const OutlierDetector &det,
                        const serving::ReferenceOutlierDetector &ref,
                        int universe, const std::string &where)
{
    for (int h = 0; h < universe; ++h) {
        ASSERT_EQ(det.ejected(h), ref.ejected(h)) << where << " host " << h;
        ASSERT_EQ(det.lastEjectedAt(h), ref.lastEjectedAt(h))
            << where << " host " << h;
    }
    ASSERT_EQ(det.ejectedCount(), ref.ejectedCount()) << where;
    ASSERT_EQ(det.ejections(), ref.ejections()) << where;
    ASSERT_EQ(det.ejectionsByErrors(), ref.ejectionsByErrors()) << where;
    ASSERT_EQ(det.ejectionsByLatency(), ref.ejectionsByLatency()) << where;
    ASSERT_EQ(det.ejectionsSuppressed(), ref.ejectionsSuppressed()) << where;
    ASSERT_EQ(det.errorsRecorded(), ref.errorsRecorded()) << where;
}

TEST(Outlier, MatchesSortOracleOnRandomOps)
{
    using serving::ReferenceOutlierDetector;
    const sim::TimePs ms = sim::kMillisecond;

    // The rank rule both detectors share: of n sorted samples the pXX is
    // element floor(max(0, p*n/100 - 1)), clamped to n - 1. Whenever
    // p*n/100 is not an integer that is one rank below nearest-rank:
    // p99 of 32 samples reads the 31st smallest, not the largest.
    std::vector<sim::TimePs> ramp;
    for (int i = 1; i <= 32; ++i)
        ramp.push_back(i);
    EXPECT_EQ(ReferenceOutlierDetector::windowPercentile(ramp, 99.0), 31);
    EXPECT_EQ(ReferenceOutlierDetector::windowPercentile(ramp, 100.0), 32);
    EXPECT_EQ(ReferenceOutlierDetector::windowPercentile(ramp, 50.0), 16);
    EXPECT_EQ(ReferenceOutlierDetector::windowPercentile(ramp, 1.0), 1);
    {
        // One 100x sample in a 32-sample window: nearest-rank p99 would
        // read it and eject; this rule reads the 31st sample and keeps
        // the host.
        EventQueue eq;
        EjectionConfig cfg;
        cfg.consecutiveErrors = 0;
        cfg.latencyPercentile = 99.0;
        cfg.latencyWindow = 32;
        cfg.minLatencySamples = 32;
        OutlierDetector det(eq, cfg);
        ReferenceOutlierDetector ref(eq, cfg);
        det.trackHosts({0, 1, 2});
        ref.trackHosts({0, 1, 2});
        for (int i = 0; i < 32; ++i) {
            for (int h = 0; h < 3; ++h) {
                const sim::TimePs lat = h == 0 && i == 31 ? 100 * ms : ms;
                det.recordSuccess(h, lat);
                ref.recordSuccess(h, lat);
            }
        }
        EXPECT_FALSE(det.ejected(0));
        EXPECT_FALSE(ref.ejected(0));
    }

    // Windows of different sizes: hosts fill to 32, 28, 24 and 20
    // samples, then host 0 is ejected by errors (its window cleared) and
    // refills with slow samples, so the cluster rank is read across
    // windows of unequal length, one of them refilling.
    for (double pct : {1.0, 50.0, 90.0}) {
        EventQueue eq;
        EjectionConfig cfg;
        cfg.consecutiveErrors = 2;
        cfg.baseEjectionTime = ms;
        cfg.latencyFactor = 1.5;
        cfg.latencyPercentile = pct;
        cfg.latencyWindow = 32;
        cfg.minLatencySamples = 16;
        OutlierDetector det(eq, cfg);
        ReferenceOutlierDetector ref(eq, cfg);
        det.trackHosts({0, 1, 2, 3});
        ref.trackHosts({0, 1, 2, 3});
        const std::string where = "uneven windows p" + std::to_string(pct);
        auto success = [&](int h, sim::TimePs lat) {
            det.recordSuccess(h, lat);
            ref.recordSuccess(h, lat);
            expectSameDetectorState(det, ref, 4, where);
        };
        for (int h = 0; h < 4; ++h) {
            for (int i = 0; i < 32 - 4 * h; ++i)
                success(h, (i == 0 ? 1 : 1 + (i * 7 + h * 3) % 29) *
                               sim::kMicrosecond);
        }
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_EQ(det.ejections(), 0u) << where;
        det.recordError(0);
        ref.recordError(0);
        det.recordError(0);
        ref.recordError(0);
        ASSERT_TRUE(det.ejected(0)) << where;
        eq.runFor(2 * ms);
        ASSERT_FALSE(det.ejected(0)) << where;
        for (int i = 0; i < 16; ++i)
            success(0, (100 + i) * sim::kMicrosecond);
        ASSERT_FALSE(HasFatalFailure());
        // At p90 host 0's 16 slow samples are the top 16 of the 88 in
        // the cluster, so the cluster p90 is one of them: no ejection.
        EXPECT_EQ(det.ejectionsByLatency(), pct < 90.0 ? 1u : 0u) << where;
        EXPECT_EQ(det.ejected(0), pct < 90.0) << where;
    }

    // Random op sequences: tied and zero latencies, slow hosts, errors,
    // membership churn (including untracked hosts), and time advancing
    // past ejection expiry, for every percentile x window combination.
    constexpr int kUniverse = 8;
    // Thousands of ejections: keep their warnings out of the test log.
    struct QuietLog {
        sim::LogLevel saved = sim::Logger::level();
        QuietLog() { sim::Logger::setLevel(sim::LogLevel::kError); }
        ~QuietLog() { sim::Logger::setLevel(saved); }
    } quiet;
    std::uint64_t ejectedByLatency = 0;
    std::uint64_t ejectedByErrors = 0;
    std::uint64_t suppressed = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (double pct : {1.0, 50.0, 90.0, 99.0, 100.0}) {
            for (int window : {2, 3, 32, 128}) {
                std::mt19937_64 rng(seed * 1000 + static_cast<unsigned>(
                                                      pct * 10 + window));
                EjectionConfig cfg;
                cfg.consecutiveErrors = static_cast<int>(rng() % 4);
                cfg.baseEjectionTime = 10 * ms;
                cfg.maxEjectionMultiplier = 3;
                cfg.latencyFactor = rng() % 2 == 0 ? 1.5 : 3.0;
                cfg.latencyPercentile = pct;
                cfg.latencyWindow = window;
                cfg.minLatencySamples =
                    window <= 3 ? 2 : std::max(2, window >> (rng() % 3));
                cfg.maxEjectedFraction =
                    std::array<double, 3>{0.25, 0.5, 1.0}[rng() % 3];

                EventQueue eq;
                OutlierDetector det(eq, cfg);
                ReferenceOutlierDetector ref(eq, cfg);
                std::vector<int> slow{static_cast<int>(rng() % kUniverse)};
                const int ops = 400 + 30 * window;
                for (int op = 0; op < ops; ++op) {
                    const std::uint64_t kind = rng() % 100;
                    const int host = static_cast<int>(rng() % kUniverse);
                    if (kind < 3) {
                        std::vector<int> hosts;
                        const int n = 1 + static_cast<int>(rng() % 6);
                        for (int i = 0; i < n; ++i)
                            hosts.push_back(
                                static_cast<int>(rng() % kUniverse));
                        det.trackHosts(hosts);
                        ref.trackHosts(hosts);
                        slow.assign(1, hosts[rng() % hosts.size()]);
                    } else if (kind < 6) {
                        eq.runFor(static_cast<sim::TimePs>(
                            rng() % static_cast<std::uint64_t>(25 * ms)));
                    } else if (kind < 14) {
                        det.recordError(host);
                        ref.recordError(host);
                    } else {
                        // A handful of distinct values, so ties abound.
                        sim::TimePs lat =
                            static_cast<sim::TimePs>(rng() % 4) * ms;
                        if (std::find(slow.begin(), slow.end(), host) !=
                            slow.end())
                            lat = lat * 10 + 5 * ms;
                        det.recordSuccess(host, lat);
                        ref.recordSuccess(host, lat);
                    }
                    expectSameDetectorState(
                        det, ref, kUniverse,
                        "seed " + std::to_string(seed) + " p" +
                            std::to_string(pct) + " window " +
                            std::to_string(window) + " op " +
                            std::to_string(op));
                    if (HasFatalFailure())
                        return;
                }
                ejectedByLatency += ref.ejectionsByLatency();
                ejectedByErrors += ref.ejectionsByErrors();
                suppressed += ref.ejectionsSuppressed();
            }
        }
    }
    // The sequences reach every ejection outcome.
    EXPECT_GT(ejectedByLatency, 0u);
    EXPECT_GT(ejectedByErrors, 0u);
    EXPECT_GT(suppressed, 0u);
}

// ---------------------------------------------------------------------
// ClusterClient
// ---------------------------------------------------------------------

struct Fleet {
    EventQueue eq;
    std::vector<int> instanceList;
    std::vector<std::unique_ptr<StubAccelerator>> accels;
    std::unique_ptr<ClusterClient> client;

    explicit Fleet(int n, ServingConfig cfg = {},
                   sim::TimePs latency = sim::kMillisecond)
    {
        for (int i = 0; i < n; ++i) {
            instanceList.push_back(i);
            accels.push_back(
                std::make_unique<StubAccelerator>(eq, latency));
        }
        client = std::make_unique<ClusterClient>(
            eq, "svc", [this] { return instanceList; }, cfg);
        for (int i = 0; i < n; ++i)
            client->registerEndpoint(i, accels[i].get());
    }
};

TEST(ClusterClient, RoutesAcrossPoolAndCountsOutstanding)
{
    Fleet fleet(3, {.balancer = BalancerPolicy::kRoundRobin});
    int completions = 0;
    for (int i = 0; i < 6; ++i)
        fleet.client->compute(100, [&] { ++completions; });
    EXPECT_EQ(fleet.client->outstandingTotal(), 6);
    // Round robin: two requests per backend.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(fleet.client->outstandingOn(i), 2);
    fleet.eq.runAll();
    EXPECT_EQ(completions, 6);
    EXPECT_EQ(fleet.client->outstandingTotal(), 0);
    EXPECT_EQ(fleet.client->routed(), 6u);
}

TEST(ClusterClient, LeastOutstandingNeverPicksEjectedInstance)
{
    Fleet fleet(4, {.balancer = BalancerPolicy::kLeastOutstanding,
                    .ejection = {.consecutiveErrors = 1}});
    // Eject host 2 via the detector, then route many times with uneven
    // outstanding load: the pick must never be the ejected host, even
    // though its outstanding count (0) would normally win. (The first
    // route() seeds the detector's tracked set from the lease view.)
    fleet.client->route();
    fleet.client->outliers().recordError(2);
    ASSERT_TRUE(fleet.client->outliers().ejected(2));
    for (int i = 0; i < 64; ++i) {
        const int picked = fleet.client->route();
        ASSERT_NE(picked, 2) << "routed to an ejected instance";
        fleet.client->compute(10, {});
    }
}

TEST(ClusterClient, NoRoutableBackendDropsRequest)
{
    Fleet fleet(1);
    fleet.client->unregisterEndpoint(0);
    bool done_called = false;
    fleet.client->compute(10, [&] { done_called = true; });
    fleet.eq.runAll();
    EXPECT_FALSE(done_called);
    EXPECT_EQ(fleet.client->noBackend(), 1u);
    EXPECT_EQ(fleet.client->routed(), 0u);
}

TEST(ClusterClient, AttemptTimeoutFeedsErrorSignalAndEjects)
{
    Fleet fleet(2, {.ejection = {.consecutiveErrors = 2,
                                 .attemptTimeout = 5 * sim::kMillisecond}});
    // Host 0 dies silently (requests never complete); two timed-out
    // requests must eject it without any heartbeat machinery.
    fleet.accels[0]->setDead(true);
    // RR picks 0, 1, 0, 1: two requests land on the dead host.
    for (int i = 0; i < 4; ++i)
        fleet.client->compute(10, {});
    fleet.eq.runAll();
    EXPECT_TRUE(fleet.client->outliers().ejected(0));
    EXPECT_FALSE(fleet.client->outliers().ejected(1));
    EXPECT_EQ(fleet.client->outliers().errorsRecorded(), 2u);
    // Outstanding accounting survived the timeouts.
    EXPECT_EQ(fleet.client->outstandingTotal(), 0);
}

TEST(ClusterClient, LeaseChangesReconcileRoutingAndDetector)
{
    Fleet fleet(3, {.ejection = {.consecutiveErrors = 1,
                                 .maxEjectedFraction = 1.0}});
    ClusterClient &client = *fleet.client;
    auto routedSet = [&] {
        std::set<int> hosts;
        for (int i = 0; i < 8; ++i)
            hosts.insert(client.route());
        return hosts;
    };
    EXPECT_EQ(routedSet(), (std::set<int>{0, 1, 2}));
    client.outliers().recordError(2);
    ASSERT_TRUE(client.outliers().ejected(2));
    EXPECT_EQ(routedSet(), (std::set<int>{0, 1}));

    // Host 2 leaves the lease: its detector state goes with it. Host 3
    // joins before it has an endpoint, so it is not routable yet.
    fleet.instanceList = {0, 1, 3};
    EXPECT_EQ(routedSet(), (std::set<int>{0, 1}));
    EXPECT_FALSE(client.outliers().ejected(2));
    EXPECT_EQ(client.outliers().lastEjectedAt(2), -1);
    fleet.accels.push_back(
        std::make_unique<StubAccelerator>(fleet.eq, sim::kMillisecond));
    client.registerEndpoint(3, fleet.accels.back().get());
    EXPECT_EQ(routedSet(), (std::set<int>{0, 1, 3}));

    // Host 2 comes back with a clean slate; an unregistered endpoint
    // leaves the routable set while its host stays leased.
    fleet.instanceList = {0, 1, 2, 3};
    client.unregisterEndpoint(0);
    EXPECT_EQ(routedSet(), (std::set<int>{1, 2, 3}));
}

TEST(ClusterClient, LateResponseAfterTimeoutIsIgnored)
{
    Fleet fleet(1,
                {.ejection = {.consecutiveErrors = 2,
                              .attemptTimeout = 5 * sim::kMillisecond}},
                10 * sim::kMillisecond);
    ClusterClient &client = *fleet.client;
    int completions = 0;
    // A times out at 5 ms; B, sent at 6 ms, reuses A's pending slot.
    // A's response at 10 ms is stale: it must neither complete B's
    // accounting nor count as a success that resets the error run.
    client.compute(10, [&] { ++completions; });
    fleet.eq.scheduleAfter(6 * sim::kMillisecond, [&] {
        client.compute(10, [&] { ++completions; });
    });
    fleet.eq.scheduleAfter(10500 * sim::kMicrosecond, [&] {
        EXPECT_EQ(client.outstandingOn(0), 1) << "B still in flight";
        EXPECT_FALSE(client.outliers().ejected(0));
    });
    fleet.eq.runAll();
    // B timed out at 11 ms too: two errors in a row eject the host.
    EXPECT_EQ(client.outliers().errorsRecorded(), 2u);
    EXPECT_TRUE(client.outliers().ejected(0));
    EXPECT_EQ(client.outstandingTotal(), 0);
    EXPECT_EQ(completions, 2) << "callers still hear late completions";
}

TEST(ClusterClient, AdmissionShedsAndCharges)
{
    ServingConfig cfg;
    cfg.admission.withRate(1000.0, 2.0).withTenant("bing", 1000.0, 1.0);
    Fleet fleet(2, cfg);
    EXPECT_TRUE(fleet.client->admit("bing"));
    EXPECT_FALSE(fleet.client->admit("bing"));  // tenant bucket empty
    EXPECT_TRUE(fleet.client->admit());         // global token remains
    EXPECT_FALSE(fleet.client->admit());        // global empty too
    EXPECT_EQ(fleet.client->admission().shed(), 2u);
    EXPECT_EQ(fleet.client->admission().shedFor("bing"), 1u);
}

TEST(ClusterClient, EndToEndWithRankingServerShedsAndServes)
{
    ServingConfig cfg;
    cfg.admission.withRate(2000.0, 4.0);
    cfg.request.accelDeadline = 50 * sim::kMillisecond;
    cfg.request.maxAttempts = 2;
    Fleet fleet(2, cfg, 2 * sim::kMillisecond);

    host::RankingServiceParams params;
    params.cores = 8;
    host::RankingServer server(fleet.eq, params, nullptr, 42);
    server.attachCluster(*fleet.client, "bing");
    EXPECT_EQ(server.retryPolicy().accelDeadline, 50 * sim::kMillisecond);

    int completed = 0, shed = 0;
    for (int i = 0; i < 10; ++i) {
        if (!server.submitQuery([&](sim::TimePs) { ++completed; }))
            ++shed;
    }
    fleet.eq.runAll();
    // Burst of 4 admitted, 6 shed at t=0; the admitted queries complete
    // through the cluster-routed accelerators.
    EXPECT_EQ(shed, 6);
    EXPECT_EQ(completed, 4);
    EXPECT_EQ(server.shedQueries(), 6u);
    EXPECT_EQ(fleet.client->admission().shed(), 6u);
    EXPECT_GE(fleet.client->routed(), 4u);
    EXPECT_EQ(server.softwareFallbacks(), 0u);
}

TEST(ClusterClient, SampledFlowCarriesServingAnnotation)
{
    obs::Observability hub;
    hub.flows.setEnabled(true);
    hub.flows.setSampleEvery(1);

    Fleet fleet(2);
    fleet.client->attachObservability(&hub);

    host::RankingServiceParams params;
    host::RankingServer server(fleet.eq, params, nullptr, 7);
    server.attachObservability(&hub, "rank0");
    server.setAccelerator(fleet.client.get());
    int done = 0;
    server.submitQuery([&](sim::TimePs) { ++done; });
    fleet.eq.runAll();
    ASSERT_EQ(done, 1);

    // The completed flow must carry a zero-width serving annotation
    // naming the backend, and attribution must still sum exactly.
    ASSERT_FALSE(hub.flows.exemplars().empty());
    const obs::FlowTrace &t = hub.flows.exemplars().front();
    bool has_serving_hop = false;
    for (const obs::Span &s : t.spans) {
        if (s.hop.rfind("serving.svc.host", 0) == 0) {
            has_serving_hop = true;
            EXPECT_EQ(s.start, s.end) << "annotation must be zero-width";
        }
    }
    EXPECT_TRUE(has_serving_hop);
    EXPECT_TRUE(obs::attributeLatency(t).consistent());
}

TEST(ClusterClientDeathTest, InvalidServingConfigsAreFatal)
{
    EventQueue eq;
    auto make = [&](ServingConfig cfg) {
        ClusterClient cc(eq, "svc", [] { return std::vector<int>{}; },
                         cfg);
    };
    EXPECT_DEATH(
        make({.balancer = BalancerPolicy::kBoundedLoadConsistentHash,
              .chLoadBound = 1.0}),
        "chLoadBound");
    EXPECT_DEATH(
        make({.balancer = BalancerPolicy::kBoundedLoadConsistentHash,
              .chVnodes = 0}),
        "chVnodes");
    ServingConfig bad_policy;
    bad_policy.request.maxAttempts = 0;
    EXPECT_DEATH(make(bad_policy), "maxAttempts");
    ServingConfig bad_admission;
    bad_admission.admission.ratePerSec = -2.0;
    EXPECT_DEATH(make(bad_admission), "ratePerSec");
}

// ---------------------------------------------------------------------
// Determinism: same seed, same snapshot, per policy
// ---------------------------------------------------------------------

struct ScenarioResult {
    std::string snapshot;
    std::vector<int> backendRequests;
};

ScenarioResult
servingScenario(BalancerPolicy policy, std::uint64_t seed)
{
    obs::Observability hub;
    ServingConfig cfg;
    cfg.balancer = policy;
    cfg.seed = seed;
    cfg.ejection.attemptTimeout = 20 * sim::kMillisecond;
    cfg.admission.withRate(5000.0, 8.0);

    EventQueue eq;
    std::vector<int> instances{0, 1, 2};
    std::vector<std::unique_ptr<StubAccelerator>> accels;
    // Deterministic but distinct service times per backend.
    for (int i = 0; i < 3; ++i)
        accels.push_back(std::make_unique<StubAccelerator>(
            eq, (i + 1) * sim::kMillisecond));
    ClusterClient client(eq, "svc", [&] { return instances; }, cfg);
    for (int i = 0; i < 3; ++i)
        client.registerEndpoint(i, accels[i].get());
    client.attachObservability(&hub);

    // A fixed arrival trace: 40 requests, 0.4 ms apart, some shed by
    // admission, the rest routed by the policy under test.
    for (int i = 0; i < 40; ++i) {
        eq.scheduleAfter((1 + i) * 400 * sim::kMicrosecond, [&] {
            if (client.admit())
                client.compute(50, {});
        });
    }
    eq.runAll();
    ScenarioResult result;
    result.snapshot = hub.registry.snapshotJson();
    for (const auto &a : accels)
        result.backendRequests.push_back(a->requests);
    return result;
}

TEST(ServingDeterminism, SameSeedSameSnapshotPerPolicy)
{
    for (BalancerPolicy policy :
         {BalancerPolicy::kRoundRobin, BalancerPolicy::kLeastOutstanding,
          BalancerPolicy::kBoundedLoadConsistentHash}) {
        const ScenarioResult a = servingScenario(policy, 1234);
        const ScenarioResult b = servingScenario(policy, 1234);
        EXPECT_EQ(a.snapshot, b.snapshot)
            << "policy " << serving::balancerPolicyName(policy)
            << " not byte-identical across same-seed runs";
        EXPECT_EQ(a.backendRequests, b.backendRequests);
        EXPECT_FALSE(a.snapshot.empty());
    }
}

TEST(ServingDeterminism, PoliciesActuallyRouteDifferently)
{
    // Sanity: the three policies are not secretly the same code path.
    // RR splits the 40-request trace 14/13/13 regardless of backend
    // speed; LOR shifts load toward the fastest backend; CH spreads by
    // per-request random key.
    const auto rr = servingScenario(BalancerPolicy::kRoundRobin, 99);
    const auto lor =
        servingScenario(BalancerPolicy::kLeastOutstanding, 99);
    const auto ch = servingScenario(
        BalancerPolicy::kBoundedLoadConsistentHash, 99);
    EXPECT_EQ(rr.backendRequests, (std::vector<int>{14, 13, 13}));
    EXPECT_NE(lor.backendRequests, rr.backendRequests);
    EXPECT_NE(ch.backendRequests, rr.backendRequests);
}

}  // namespace
