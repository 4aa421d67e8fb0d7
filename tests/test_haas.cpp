/**
 * @file
 * HaaS unit tests: lease lifecycle, constraints, pool accounting,
 * failure reporting and SM failover, FM configuration, and the
 * HealthMonitor's per-source evidence idempotence.
 */
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "haas/haas.hpp"
#include "haas/health_monitor.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

namespace {

using namespace ccsim;
using haas::FpgaManager;
using haas::LeaseConstraints;
using haas::ResourceManager;
using sim::EventQueue;

/** A trivial role for configuration tests. */
struct StubRole : fpga::Role {
    std::string name() const override { return "stub"; }
    std::uint32_t areaAlms() const override { return 100; }
    void attach(fpga::Shell &, int) override {}
    void onMessage(const router::ErMessagePtr &) override {}
};

struct Pool {
    sim::ShardedEventQueue sq;
    EventQueue &eq = sq.partition(0);
    ResourceManager rm{eq};
    std::vector<std::unique_ptr<FpgaManager>> fms;
    std::vector<std::unique_ptr<StubRole>> roles;

    explicit Pool(int nodes, int pods = 1)
    {
        for (int i = 0; i < nodes; ++i) {
            // Shell-less FMs: configuration calls are exercised in the
            // cloud integration tests; here we focus on RM bookkeeping.
            fms.push_back(std::make_unique<FpgaManager>(eq, nullptr, i));
            rm.registerNode(i, fms.back().get(), i % pods);
        }
    }

    fpga::Role *makeRole()
    {
        roles.push_back(std::make_unique<StubRole>());
        return roles.back().get();
    }
};

TEST(ResourceManager, AcquireAndRelease)
{
    Pool pool(8);
    EXPECT_EQ(pool.rm.freeCount(), 8);
    auto lease = pool.rm.acquire("svc", 3);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lease->hosts.size(), 3u);
    EXPECT_EQ(pool.rm.freeCount(), 5);
    EXPECT_EQ(pool.rm.allocatedCount(), 3);
    pool.rm.release(lease->id);
    EXPECT_EQ(pool.rm.freeCount(), 8);
}

TEST(ResourceManager, ExhaustionReturnsNullopt)
{
    Pool pool(4);
    auto a = pool.rm.acquire("a", 3);
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(pool.rm.acquire("b", 2).has_value());
    EXPECT_TRUE(pool.rm.acquire("b", 1).has_value());
}

TEST(ResourceManager, LeasesDoNotOverlap)
{
    Pool pool(10);
    std::set<int> seen;
    for (int i = 0; i < 5; ++i) {
        auto lease = pool.rm.acquire("svc", 2);
        ASSERT_TRUE(lease.has_value());
        for (int host : lease->hosts)
            EXPECT_TRUE(seen.insert(host).second)
                << "host leased twice: " << host;
    }
}

TEST(ResourceManager, PodConstraintHonored)
{
    Pool pool(12, 3);  // pods 0,1,2 round-robin
    LeaseConstraints c;
    c.requirePod = 1;
    auto lease = pool.rm.acquire("svc", 4);
    (void)lease;
    auto pod_lease = pool.rm.acquire("svc", 2, c);
    ASSERT_TRUE(pod_lease.has_value());
    for (int host : pod_lease->hosts)
        EXPECT_EQ(host % 3, 1);
    // Only 4 nodes exist in pod 1; asking for more must fail.
    EXPECT_FALSE(pool.rm.acquire("svc", 4, c).has_value());
}

TEST(ResourceManager, FailureRemovesFromPoolAndNotifies)
{
    Pool pool(4);
    int failed_host = -1;
    std::uint64_t failed_lease = 0;
    pool.rm.subscribeFailures([&](int host, std::uint64_t lease) {
        failed_host = host;
        failed_lease = lease;
    });
    auto lease = pool.rm.acquire("svc", 2);
    ASSERT_TRUE(lease.has_value());
    const int victim = lease->hosts[0];
    pool.rm.reportFailure(victim);
    EXPECT_EQ(failed_host, victim);
    EXPECT_EQ(failed_lease, lease->id);
    EXPECT_EQ(pool.rm.failedCount(), 1);
    // Failure of an unleased node does not notify.
    failed_host = -1;
    const int idle = 3;
    pool.rm.reportFailure(idle);
    EXPECT_EQ(failed_host, -1);
    EXPECT_EQ(pool.rm.failedCount(), 2);
}

TEST(ResourceManager, RepairReturnsNodeToPool)
{
    Pool pool(2);
    pool.rm.reportFailure(0);
    EXPECT_EQ(pool.rm.freeCount(), 1);
    pool.rm.repair(0);
    EXPECT_EQ(pool.rm.freeCount(), 2);
    EXPECT_EQ(pool.rm.failedCount(), 0);
}

TEST(ResourceManager, ReportFailureIsIdempotent)
{
    // Fault injection and LTL-timeout detection can both report the same
    // dead node; only the first report may have any effect.
    Pool pool(4);
    int notifications = 0;
    pool.rm.subscribeFailures(
        [&](int, std::uint64_t) { ++notifications; });
    auto lease = pool.rm.acquire("svc", 1);
    ASSERT_TRUE(lease.has_value());
    const int victim = lease->hosts[0];

    pool.rm.reportFailure(victim);
    pool.rm.reportFailure(victim);
    pool.rm.reportFailure(victim);
    EXPECT_EQ(notifications, 1);
    EXPECT_EQ(pool.rm.failedCount(), 1);
    EXPECT_EQ(pool.rm.failuresReported(), 1u);

    // Repairing a healthy node is equally a no-op.
    pool.rm.repair(victim);
    pool.rm.repair(victim);
    EXPECT_EQ(pool.rm.failedCount(), 0);
    EXPECT_EQ(pool.rm.repairsApplied(), 1u);
    EXPECT_EQ(pool.rm.freeCount(), 4);
}

TEST(ResourceManager, RepairedNodeSatisfiesPodConstraintAgain)
{
    Pool pool(4, 2);  // hosts 1 and 3 land in pod 1
    LeaseConstraints c;
    c.requirePod = 1;
    auto lease = pool.rm.acquire("svc", 2, c);
    ASSERT_TRUE(lease.has_value());

    pool.rm.reportFailure(1);
    EXPECT_FALSE(pool.rm.acquire("svc", 1, c).has_value());  // pod empty

    // Repair makes the node eligible for pod-constrained leases again.
    pool.rm.repair(1);
    auto again = pool.rm.acquire("svc", 1, c);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->hosts.front(), 1);
}

TEST(ResourceManager, MultipleSubscribersFireInSubscriptionOrder)
{
    // Several control-plane components (Service Managers, monitors,
    // loggers) subscribe independently; each event reaches all of them
    // in the order they subscribed.
    Pool pool(4);
    std::vector<std::string> calls;
    pool.rm.subscribeFailures(
        [&](int host, std::uint64_t) {
            calls.push_back("A.fail." + std::to_string(host));
        });
    pool.rm.subscribeFailures(
        [&](int host, std::uint64_t) {
            calls.push_back("B.fail." + std::to_string(host));
        });
    pool.rm.subscribeRepairs([&](int host) {
        calls.push_back("A.repair." + std::to_string(host));
    });
    pool.rm.subscribeRepairs([&](int host) {
        calls.push_back("B.repair." + std::to_string(host));
    });

    auto lease = pool.rm.acquire("svc", 1);
    ASSERT_TRUE(lease.has_value());
    const int victim = lease->hosts[0];
    pool.rm.reportFailure(victim);
    pool.rm.repair(victim);

    const std::vector<std::string> expected = {
        "A.fail." + std::to_string(victim),
        "B.fail." + std::to_string(victim),
        "A.repair." + std::to_string(victim),
        "B.repair." + std::to_string(victim),
    };
    EXPECT_EQ(calls, expected);
}

/**
 * The pool as a plain first-fit scan over an ordered host map: the
 * reference the ResourceManager's dense table and per-pod lists must
 * match decision for decision.
 */
class PoolOracle
{
  public:
    enum class State { kFree, kAllocated, kFailed };
    struct Node {
        int pod = 0;
        int rack = 0;
        State state = State::kFree;
        std::uint64_t lease = 0;
    };
    struct Held {
        std::string service;
        std::vector<int> hosts;
    };

    std::map<int, Node> nodes;
    std::map<std::uint64_t, Held> leases;
    std::map<std::string, std::map<int, int>> perRack, perPod;
    std::uint64_t nextLease = 1;
    std::uint64_t skips = 0;
    /** (host, lease) in notification order. */
    std::vector<std::pair<int, std::uint64_t>> failures;
    std::vector<int> repairs;

    void registerNode(int host, int pod, int rack)
    {
        nodes[host] = Node{pod, rack, State::kFree, 0};
    }

    std::optional<haas::Lease> acquire(const std::string &service,
                                       int count, const LeaseConstraints &c)
    {
        std::vector<int> picked;
        std::map<int, int> rackPicks, podPicks;
        for (const auto &[host, node] : nodes) {
            if (node.state != State::kFree)
                continue;
            if (c.requirePod >= 0 && node.pod != c.requirePod)
                continue;
            if (c.maxPerRack >= 0 &&
                perRack[service][node.rack] + rackPicks[node.rack] >=
                    c.maxPerRack) {
                ++skips;
                continue;
            }
            if (c.maxPerPod >= 0 &&
                perPod[service][node.pod] + podPicks[node.pod] >=
                    c.maxPerPod) {
                ++skips;
                continue;
            }
            picked.push_back(host);
            ++rackPicks[node.rack];
            ++podPicks[node.pod];
            if (static_cast<int>(picked.size()) == count)
                break;
        }
        if (static_cast<int>(picked.size()) < count)
            return std::nullopt;
        haas::Lease lease{nextLease++, service, picked};
        for (const int host : picked) {
            Node &node = nodes[host];
            node.state = State::kAllocated;
            node.lease = lease.id;
            ++perRack[service][node.rack];
            ++perPod[service][node.pod];
        }
        leases[lease.id] = Held{service, picked};
        return lease;
    }

    void release(std::uint64_t id)
    {
        const auto it = leases.find(id);
        if (it == leases.end())
            return;
        for (const int host : it->second.hosts) {
            Node &node = nodes.at(host);
            if (node.state == State::kAllocated && node.lease == id) {
                node.state = State::kFree;
                node.lease = 0;
                drop(it->second.service, node);
            }
        }
        leases.erase(it);
    }

    void reportDomainFailure(const std::vector<int> &hosts)
    {
        std::vector<std::pair<int, std::uint64_t>> notify;
        for (const int host : hosts) {
            const auto it = nodes.find(host);
            if (it == nodes.end() || it->second.state == State::kFailed)
                continue;
            Node &node = it->second;
            const bool leased = node.state == State::kAllocated;
            const std::uint64_t id = node.lease;
            node.state = State::kFailed;
            node.lease = 0;
            if (leased) {
                const auto lit = leases.find(id);
                if (lit != leases.end()) {
                    std::erase(lit->second.hosts, host);
                    drop(lit->second.service, node);
                }
                notify.emplace_back(host, id);
            }
        }
        failures.insert(failures.end(), notify.begin(), notify.end());
    }

    void repair(int host)
    {
        const auto it = nodes.find(host);
        if (it == nodes.end() || it->second.state != State::kFailed)
            return;
        it->second.state = State::kFree;
        repairs.push_back(host);
    }

    int count(State state) const
    {
        int n = 0;
        for (const auto &[host, node] : nodes)
            n += node.state == state ? 1 : 0;
        return n;
    }

    int ledger(const std::map<std::string, std::map<int, int>> &book,
               const std::string &service, int domain) const
    {
        const auto sit = book.find(service);
        if (sit == book.end())
            return 0;
        const auto it = sit->second.find(domain);
        return it == sit->second.end() ? 0 : it->second;
    }

  private:
    void drop(const std::string &service, const Node &node)
    {
        if (--perRack[service][node.rack] == 0)
            perRack[service].erase(node.rack);
        if (--perPod[service][node.pod] == 0)
            perPod[service].erase(node.pod);
    }
};

TEST(ResourceManager, MatchesFirstFitOracleOnRandomOps)
{
    constexpr int kHosts = 40;
    constexpr int kPods = 4;
    constexpr int kRacks = 8;
    const std::vector<std::string> services = {"a", "b", "c"};
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Rng rng(seed);
        EventQueue eq;
        ResourceManager rm(eq);
        PoolOracle oracle;
        std::vector<std::pair<int, std::uint64_t>> failures;
        std::vector<int> repairs;
        rm.subscribeFailures([&](int host, std::uint64_t lease) {
            failures.emplace_back(host, lease);
        });
        rm.subscribeRepairs([&](int host) { repairs.push_back(host); });
        auto pick = [&](std::int64_t lo, std::int64_t hi) {
            return static_cast<int>(rng.uniformInt(lo, hi));
        };
        for (int step = 0; step < 400; ++step) {
            const int op = pick(0, 99);
            if (op < 15) {
                // Out of order, and sometimes into another pod.
                const int host = pick(0, kHosts - 1);
                const int pod = pick(0, kPods - 1);
                const int rack = pod * 2 + pick(0, kRacks / kPods - 1);
                rm.registerNode(host, nullptr, pod, rack);
                oracle.registerNode(host, pod, rack);
            } else if (op < 50) {
                const std::string &svc =
                    services[static_cast<std::size_t>(pick(0, 2))];
                const int n = pick(1, 4);
                LeaseConstraints c;
                if (pick(0, 1) == 1)
                    c.withPod(pick(0, kPods));  // kPods: a pod with no hosts
                if (pick(0, 2) == 0)
                    c.maxPerRack = pick(1, 2);
                if (pick(0, 2) == 0)
                    c.maxPerPod = pick(1, 3);
                const auto got = rm.acquire(svc, n, c);
                const auto want = oracle.acquire(svc, n, c);
                ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
                if (got) {
                    EXPECT_EQ(got->id, want->id);
                    EXPECT_EQ(got->service, want->service);
                    EXPECT_EQ(got->hosts, want->hosts) << "step " << step;
                }
            } else if (op < 65) {
                const auto id = static_cast<std::uint64_t>(
                    pick(1, static_cast<std::int64_t>(oracle.nextLease)));
                rm.release(id);
                oracle.release(id);
            } else if (op < 77) {
                const int host = pick(-1, kHosts);  // includes unknown hosts
                rm.reportFailure(host);
                oracle.reportDomainFailure({host});
            } else if (op < 85) {
                // A rack's worth of hosts, unsorted, with a duplicate.
                std::vector<int> domain;
                for (int i = pick(1, 4); i > 0; --i)
                    domain.push_back(pick(0, kHosts - 1));
                domain.push_back(domain.front());
                rm.reportDomainFailure(domain);
                oracle.reportDomainFailure(domain);
            } else {
                const int host = pick(0, kHosts);
                rm.repair(host);
                oracle.repair(host);
            }

            ASSERT_EQ(rm.freeCount(), oracle.count(PoolOracle::State::kFree))
                << "step " << step;
            ASSERT_EQ(rm.allocatedCount(),
                      oracle.count(PoolOracle::State::kAllocated));
            ASSERT_EQ(rm.failedCount(),
                      oracle.count(PoolOracle::State::kFailed));
            ASSERT_EQ(rm.totalCount(), static_cast<int>(oracle.nodes.size()));
            // The counts are kept as states change; a full scan agrees.
            ASSERT_EQ(rm.scanCounts(),
                      (std::array<int, 3>{rm.freeCount(), rm.allocatedCount(),
                                          rm.failedCount()}))
                << "step " << step;
            ASSERT_EQ(rm.affinitySkips(), oracle.skips);
            ASSERT_EQ(failures, oracle.failures);
            ASSERT_EQ(repairs, oracle.repairs);
        }
        std::vector<int> hosts;
        for (const auto &[host, node] : oracle.nodes) {
            hosts.push_back(host);
            EXPECT_EQ(rm.nodeRack(host), node.rack);
        }
        EXPECT_EQ(rm.hostIndices(), hosts);
        for (const std::string &svc : services) {
            for (int rack = 0; rack < kRacks; ++rack)
                EXPECT_EQ(rm.serviceRackCount(svc, rack),
                          oracle.ledger(oracle.perRack, svc, rack));
            for (int pod = 0; pod < kPods; ++pod)
                EXPECT_EQ(rm.servicePodCount(svc, pod),
                          oracle.ledger(oracle.perPod, svc, pod));
        }
    }
}

TEST(FpgaManager, StatusReflectsHealth)
{
    EventQueue eq;
    FpgaManager fm(eq, nullptr, 7);
    EXPECT_TRUE(fm.status().healthy);
    EXPECT_FALSE(fm.status().hasRole);
    fm.markUnhealthy();
    EXPECT_FALSE(fm.status().healthy);
    // Unhealthy FMs refuse configuration.
    StubRole role;
    EXPECT_EQ(fm.configureRole(&role), -1);
    fm.markHealthy();
    // Null shell also refuses (no fabric to configure).
    EXPECT_EQ(fm.configureRole(&role), -1);
}

TEST(HealthMonitor, EvidenceIdempotentPerSource)
{
    Pool pool(4);
    haas::HealthMonitorConfig cfg;
    cfg.suspicionThreshold = 3.0;
    haas::HealthMonitor hm(pool.eq, pool.rm, cfg);

    // The same source re-reporting adds no further suspicion: a serving
    // detector that re-ejects a grey node every 30 ms must not reach the
    // reporting threshold on its own.
    hm.reportEvidence(1, "serving.rank", 1.0);
    hm.reportEvidence(1, "serving.rank", 1.0);
    hm.reportEvidence(1, "serving.rank", 1.0);
    hm.reportEvidence(1, "serving.rank", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(1), 1.0);
    EXPECT_EQ(hm.evidenceReports(), 1u);
    EXPECT_EQ(pool.rm.failedCount(), 0);

    // Distinct sources corroborate: each credits once.
    hm.reportEvidence(1, "serving.crypto", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(1), 2.0);
    hm.reportEvidence(1, "serving.dnn", 1.0);
    // Third source crossed the threshold: reported to the RM once.
    EXPECT_EQ(pool.rm.failedCount(), 1);
    EXPECT_EQ(hm.detections(), 1u);

    // While reported, even a fresh source cannot double-report.
    hm.reportEvidence(1, "serving.other", 5.0);
    EXPECT_EQ(pool.rm.failedCount(), 1);
    EXPECT_EQ(hm.detections(), 1u);

    // Evidence against unregistered hosts is ignored.
    hm.reportEvidence(99, "serving.rank", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(99), 0.0);
}

TEST(HealthMonitor, EvidenceLatchClearsOnHealthyHeartbeat)
{
    Pool pool(2);
    haas::HealthMonitorConfig cfg;
    cfg.suspicionThreshold = 3.0;
    haas::HealthMonitor hm(pool.eq, pool.rm, cfg);
    hm.setProbe([](int) { return true; });
    hm.startSharded(pool.sq);

    hm.reportEvidence(0, "serving.rank", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(0), 1.0);

    // A reachable heartbeat ends the episode: suspicion resets and the
    // source may count again when the node degrades anew.
    pool.sq.runFor(cfg.heartbeatPeriod + cfg.heartbeatRtt + 1);
    hm.stop();
    EXPECT_DOUBLE_EQ(hm.suspicion(0), 0.0);
    hm.reportEvidence(0, "serving.rank", 1.0);
    EXPECT_DOUBLE_EQ(hm.suspicion(0), 1.0);
    EXPECT_EQ(hm.evidenceReports(), 2u);
}

TEST(HealthMonitorDeath, StartOnAnotherKernelDies)
{
    // Sweeps run at the barriers of the kernel that owns the monitor's
    // queue; any other kernel would judge hosts out of step.
    Pool pool(2);
    haas::HealthMonitor hm(pool.eq, pool.rm);
    hm.setProbe([](int) { return true; });
    sim::ShardedEventQueue other;
    EXPECT_DEATH(hm.startSharded(other), "not a partition");
}

}  // namespace
