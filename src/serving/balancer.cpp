#include "serving/balancer.hpp"

#include <algorithm>
#include <cmath>

#include "sim/logging.hpp"

namespace ccsim::serving {

namespace {

/** SplitMix64 finalizer: the stateless mixer used for ring points and
 * request keys (stable across platforms, unlike std::hash). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

}  // namespace

const char *
balancerPolicyName(BalancerPolicy policy)
{
    switch (policy) {
    case BalancerPolicy::kRoundRobin:
        return "round_robin";
    case BalancerPolicy::kLeastOutstanding:
        return "least_outstanding";
    case BalancerPolicy::kBoundedLoadConsistentHash:
        return "bounded_load_ch";
    }
    return "unknown";
}

int
RoundRobinBalancer::pick(std::uint64_t, const OutstandingFn &)
{
    if (set.empty())
        return -1;
    const int host = set[next % set.size()];
    ++next;
    return host;
}

int
LeastOutstandingBalancer::pick(std::uint64_t, const OutstandingFn &outstanding)
{
    if (set.empty())
        return -1;
    if (!outstanding)
        return set.front();
    int best = set.front();
    int bestLoad = outstanding(best);
    for (std::size_t i = 1; i < set.size(); ++i) {
        const int load = outstanding(set[i]);
        if (load < bestLoad) {
            best = set[i];
            bestLoad = load;
        }
    }
    return best;
}

BoundedLoadConsistentHashBalancer::BoundedLoadConsistentHashBalancer(
    int vnodes, double load_bound)
    : vnodesPerHost(vnodes), loadBound(load_bound)
{
    if (vnodes < 1)
        sim::fatalf("BoundedLoadConsistentHashBalancer: vnodes must be "
                    ">= 1 (got ", vnodes, ")");
    if (load_bound <= 1.0)
        sim::fatalf("BoundedLoadConsistentHashBalancer: loadBound must "
                    "be > 1 (got ", load_bound, ")");
}

void
BoundedLoadConsistentHashBalancer::setHosts(const std::vector<int> &hosts)
{
    if (hosts == set)
        return;  // ring rebuilds only on membership change
    set = hosts;
    ring.clear();
    ring.reserve(set.size() * static_cast<std::size_t>(vnodesPerHost));
    for (int host : set) {
        for (int v = 0; v < vnodesPerHost; ++v) {
            const auto h =
                mix64((static_cast<std::uint64_t>(host) << 20) |
                      static_cast<std::uint64_t>(v));
            ring.push_back({h, host});
        }
    }
    std::sort(ring.begin(), ring.end(),
              [](const RingPoint &a, const RingPoint &b) {
                  // Hash collisions across hosts are astronomically
                  // unlikely but must not make the order input-dependent.
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.host < b.host;
              });
}

std::size_t
BoundedLoadConsistentHashBalancer::ringIndexFor(std::uint64_t key) const
{
    const std::uint64_t h = mix64(key);
    const auto it = std::lower_bound(
        ring.begin(), ring.end(), h,
        [](const RingPoint &p, std::uint64_t v) { return p.hash < v; });
    return it == ring.end() ? 0 : static_cast<std::size_t>(it - ring.begin());
}

int
BoundedLoadConsistentHashBalancer::pick(std::uint64_t key,
                                        const OutstandingFn &outstanding)
{
    if (ring.empty())
        return -1;
    if (!outstanding)
        return ring[ringIndexFor(key)].host;

    // The bounded-load rule: cap = ceil(c * (total + 1) / n). Since
    // c > 1, at least one host sits strictly below the cap.
    int total = 0;
    for (int host : set)
        total += outstanding(host);
    const double avg = static_cast<double>(total + 1) /
                       static_cast<double>(set.size());
    const int cap = static_cast<int>(std::ceil(loadBound * avg));

    const std::size_t start = ringIndexFor(key);
    int fallback = ring[start].host;
    int fallbackLoad = outstanding(fallback);
    for (std::size_t i = 0; i < ring.size(); ++i) {
        const RingPoint &p = ring[(start + i) % ring.size()];
        const int load = outstanding(p.host);
        if (load + 1 <= cap)
            return p.host;
        if (load < fallbackLoad) {
            fallback = p.host;
            fallbackLoad = load;
        }
    }
    // Unreachable for c > 1; kept so a pathological outstanding()
    // callback still yields the least-loaded host rather than a panic.
    return fallback;
}

std::unique_ptr<LoadBalancer>
makeBalancer(BalancerPolicy policy, int ch_vnodes, double ch_load_bound)
{
    switch (policy) {
    case BalancerPolicy::kRoundRobin:
        return std::make_unique<RoundRobinBalancer>();
    case BalancerPolicy::kLeastOutstanding:
        return std::make_unique<LeastOutstandingBalancer>();
    case BalancerPolicy::kBoundedLoadConsistentHash:
        return std::make_unique<BoundedLoadConsistentHashBalancer>(
            ch_vnodes, ch_load_bound);
    }
    sim::fatal("makeBalancer: unknown policy");
}

}  // namespace ccsim::serving
