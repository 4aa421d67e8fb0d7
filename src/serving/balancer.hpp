/**
 * @file
 * Pluggable load-balancing policies over a set of accelerator instances.
 *
 * The paper's Hardware-as-a-Service plane leaves load balancing to the
 * Service Managers; ccsim's SMs only ever did static round-robin. This
 * interface separates *who owns an instance* (the lease set, still HaaS)
 * from *who routes a request to it* (a balancer policy):
 *
 *  - **round-robin** — the Service Managers' original static policy: a
 *    free-running counter modulo the live host count;
 *  - **least-outstanding-requests** — full deterministic scan for the
 *    host with the fewest requests in flight (first-seen wins ties), the
 *    right default when backends can degrade unevenly;
 *  - **bounded-load consistent-hash** — a vnode hash ring with the
 *    consistent-hashing-with-bounded-loads rule: a key's home host is
 *    skipped while its load exceeds ceil(c * average), so keyed affinity
 *    survives host churn without hot-spotting.
 *
 * Balancers are deterministic: given the same sequence of setHosts() and
 * pick() calls they produce the same picks, so same-seed runs stay
 * byte-identical. They never allocate on the pick path after warm-up.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace ccsim::serving {

/** The routing policies a ClusterClient can be configured with. */
enum class BalancerPolicy : std::uint8_t {
    kRoundRobin = 0,
    kLeastOutstanding = 1,
    kBoundedLoadConsistentHash = 2,
};

/** Snake-case policy name (metric paths, bench tables). */
const char *balancerPolicyName(BalancerPolicy policy);

/** Live load view handed to pick(): outstanding requests on a host. */
using OutstandingFn = std::function<int(int host)>;

/**
 * A load-balancing policy over the current candidate host set. Hosts
 * already ejected or unhealthy are removed from the set by the caller
 * (ClusterClient) before pick() — balancers only order the candidates.
 */
class LoadBalancer
{
  public:
    virtual ~LoadBalancer() = default;

    virtual const char *name() const = 0;

    /**
     * Replace the candidate host set. Policies with derived state (the
     * hash ring) rebuild only when the set actually changed.
     */
    virtual void setHosts(const std::vector<int> &hosts) = 0;

    /**
     * Pick a host for one request.
     *
     * @param key         Affinity key (consistent-hash); policies
     *                    without keyed state ignore it.
     * @param outstanding Live per-host load (may be empty for policies
     *                    that never read it).
     * @return The picked host, or -1 when the candidate set is empty.
     */
    virtual int pick(std::uint64_t key, const OutstandingFn &outstanding) = 0;
};

/**
 * hosts[counter % hosts.size()], with the counter free-running across
 * host-set changes.
 */
class RoundRobinBalancer : public LoadBalancer
{
  public:
    const char *name() const override { return "round_robin"; }
    void setHosts(const std::vector<int> &hosts) override { set = hosts; }
    int pick(std::uint64_t key, const OutstandingFn &outstanding) override;

  private:
    std::vector<int> set;
    std::size_t next = 0;
};

/**
 * Deterministic least-outstanding-requests: scan the candidate set in
 * order, strictly-fewer wins, so ties resolve to the first host seen.
 */
class LeastOutstandingBalancer : public LoadBalancer
{
  public:
    const char *name() const override { return "least_outstanding"; }
    void setHosts(const std::vector<int> &hosts) override { set = hosts; }
    int pick(std::uint64_t key, const OutstandingFn &outstanding) override;

  private:
    std::vector<int> set;
};

/**
 * Consistent hashing with bounded loads: @p vnodes ring points per host;
 * a request walks clockwise from hash(key) and takes the first host
 * whose load after the request would not exceed
 * ceil(loadBound * (total_outstanding + 1) / hosts). With loadBound > 1
 * a host under the bound always exists, so the walk terminates.
 */
class BoundedLoadConsistentHashBalancer : public LoadBalancer
{
  public:
    /**
     * @param vnodes     Ring points per host (more = smoother spread).
     * @param load_bound The c in ceil(c * average); must be > 1.
     */
    explicit BoundedLoadConsistentHashBalancer(int vnodes = 64,
                                               double load_bound = 1.25);

    const char *name() const override { return "bounded_load_ch"; }
    void setHosts(const std::vector<int> &hosts) override;
    int pick(std::uint64_t key, const OutstandingFn &outstanding) override;

  private:
    struct RingPoint {
        std::uint64_t hash;
        int host;
    };

    int vnodesPerHost;
    double loadBound;
    std::vector<int> set;
    std::vector<RingPoint> ring;  ///< sorted by hash

    std::size_t ringIndexFor(std::uint64_t key) const;
};

/** Construct the configured policy (CH parameters used only by CH). */
std::unique_ptr<LoadBalancer> makeBalancer(BalancerPolicy policy,
                                           int ch_vnodes = 64,
                                           double ch_load_bound = 1.25);

}  // namespace ccsim::serving
