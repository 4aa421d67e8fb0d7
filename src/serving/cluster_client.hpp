/**
 * @file
 * ClusterClient: the serving-mesh facade in front of a pool of leased
 * accelerators.
 *
 * The paper's service managers "handle load balancing, connectivity, and
 * failure handling" for a hardware service; RC3E-style provisioning
 * splits *owning* a board (the HaaS lease set) from *routing* a request
 * to it. ClusterClient is the routing half: it watches an instance
 * source (typically ServiceManager::instances()), filters it through a
 * passive OutlierDetector, orders it with a pluggable LoadBalancer, and
 * gates the submission edge with a token-bucket AdmissionController.
 * It implements host::FeatureAccelerator, so any host component that
 * could talk to one accelerator can talk to the whole pool unchanged —
 * ranking today; crypto, NF chains, and DNN clients the same way
 * tomorrow.
 *
 * Request lifecycle: admit (token buckets, at the host's submission
 * edge) -> route (balancer over healthy, non-ejected endpoints) ->
 * forward (the endpoint's compute), with per-request outstanding
 * accounting, an optional response deadline whose expiry feeds the
 * outlier detector's consecutive-error signal, success latencies feeding
 * its percentile signal, and the query's TraceContext carried through so
 * flow-trace attribution still sums exactly (the routed hop is recorded
 * as a zero-width annotation span naming the serving backend).
 *
 * Deterministic per seed: routing keys for unkeyed requests come from a
 * per-client sim::Rng stream, all bookkeeping is keyed on host index,
 * and nothing reads wall-clock state.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "host/feature_accelerator.hpp"
#include "obs/metrics.hpp"
#include "serving/admission.hpp"
#include "serving/balancer.hpp"
#include "serving/outlier.hpp"
#include "serving/request_policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace ccsim::serving {

/**
 * Cluster-serving configuration: balancer policy, admission limits,
 * ejection thresholds, and the request policy handed to attached
 * clients. Validated like FaultConfig — construction of a ClusterClient
 * (or of a ConfigurableCloud carrying one in CloudConfig::serving) fatals
 * on an invalid config.
 */
struct ServingConfig {
    BalancerPolicy balancer = BalancerPolicy::kRoundRobin;
    /** Ring points per host (consistent-hash policy only). */
    int chVnodes = 64;
    /** Bounded-load factor c (> 1; consistent-hash policy only). */
    double chLoadBound = 1.25;
    AdmissionConfig admission{};
    EjectionConfig ejection{};
    /** Default failure-handling policy for attached clients. */
    RequestPolicy request{};
    /** Seed of the client's private Rng stream (routing keys). */
    std::uint64_t seed = 0x5e21;
};

/** Fatal on any out-of-range field (balancer, admission, ejection,
 * request policy). */
void validateServingConfig(const ServingConfig &cfg);

/** The serving facade over one hardware service's lease set. */
class ClusterClient : public host::FeatureAccelerator
{
  public:
    /** Supplier of the current instance set (the lease view). */
    using InstanceSource = std::function<std::vector<int>()>;

    /**
     * @param eq        Event queue (also the detector's clock).
     * @param name      Service name; metric paths use `serving.<name>`.
     * @param instances Lease view, polled on every route (e.g.
     *                  `[&sm] { return sm.instances(); }`); the outlier
     *                  detector is reconciled only when the polled list
     *                  differs from the previous one.
     * @param cfg       Validated at construction; fatal on errors.
     */
    ClusterClient(sim::EventQueue &eq, std::string name,
                  InstanceSource instances, ServingConfig cfg = {});

    ClusterClient(const ClusterClient &) = delete;
    ClusterClient &operator=(const ClusterClient &) = delete;

    /**
     * Attach the data-plane endpoint reaching @p host (a
     * RemoteRankingClient, a local accelerator, ...). Instances without
     * an endpoint are not routable; endpoints must outlive the client
     * or be unregistered first.
     */
    void registerEndpoint(int host, host::FeatureAccelerator *endpoint);

    /** Detach @p host's endpoint (in-flight requests still complete). */
    void unregisterEndpoint(int host);

    /**
     * Admission gate for one request of @p tenant (empty = untagged).
     * Hosts call this at their submission edge, before queueing.
     */
    bool admit(const std::string &tenant = {});

    /**
     * Route one request: healthy instances = lease view, minus ejected,
     * minus endpoint-less, minus avoided (setAvoidPredicate); the
     * balancer orders the survivors.
     *
     * @param key Affinity key; 0 = draw one from the client's stream.
     * @return The picked host, or -1 when nothing is routable.
     */
    int route(std::uint64_t key = 0);

    /**
     * Failure-domain steering: hosts for which @p fn returns true are
     * excluded from routing (but stay in the lease and keep their
     * outlier state). Wire a convicted-domain check here so traffic
     * leaves a dying rack the moment the HealthMonitor convicts it,
     * ahead of the rate-limited lease evacuation. Pass nullptr to clear.
     */
    void setAvoidPredicate(std::function<bool(int host)> fn)
    {
        avoid = std::move(fn);
    }

    /** Routing candidates skipped by the avoid predicate. */
    std::uint64_t avoided() const { return statAvoided; }

    // --- host::FeatureAccelerator (the submit-through path) ---

    void compute(std::uint32_t doc_count,
                 std::function<void()> done) override;
    void computeTraced(std::uint32_t doc_count,
                       const obs::TraceContext &ctx,
                       std::function<void()> done) override;

    // --- subsystem access ---

    AdmissionController &admission() { return admissionCtl; }
    OutlierDetector &outliers() { return detector; }
    LoadBalancer &balancer() { return *lb; }
    const RequestPolicy &requestPolicy() const { return config.request; }
    const std::string &name() const { return serviceName; }

    /** Requests currently in flight toward @p host. */
    int outstandingOn(int host) const;
    /** Requests in flight across the pool. */
    int outstandingTotal() const;

    std::uint64_t routed() const { return statRouted; }
    /** compute() calls that found no routable backend (the request is
     * dropped; the caller's own deadline machinery handles recovery). */
    std::uint64_t noBackend() const { return statNoBackend; }

    /**
     * Export serving statistics under `serving.<name>.*`: routing and
     * admission counters, ejection statistics, per-host outstanding
     * probes, and (with flow tracing) per-flow backend annotations.
     * Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o);

  private:
    /** One row per host ever seen (instance or endpoint); never erased,
     * so row indices are stable handles. */
    struct HostEntry {
        int host = -1;
        /** Null until registered (and after unregistration). */
        host::FeatureAccelerator *endpoint = nullptr;
        int outstanding = 0;
    };

    /** A pending-request slot; its token is (generation << 32) | slot,
     * and retiring the slot bumps the generation, so a response that
     * arrives after its timeout finds a stale token and is ignored. */
    struct PendingRequest {
        std::uint32_t entry = 0;
        std::uint32_t generation = 0;
        sim::TimePs startedAt = 0;
        sim::EventId timeoutEvent = sim::kNoEvent;
    };

    sim::EventQueue &queue;
    std::string serviceName;
    InstanceSource source;
    ServingConfig config;
    std::unique_ptr<LoadBalancer> lb;
    AdmissionController admissionCtl;
    OutlierDetector detector;
    sim::Rng rng;
    std::function<bool(int host)> avoid;
    std::vector<HostEntry> entries;
    /** Row indices of entries, ascending by host (lookup by host). */
    std::vector<std::uint32_t> entriesByHost;
    /** The instance list of the last membership reconciliation, and the
     * row of each of its hosts, in the same order. */
    std::vector<int> members;
    std::vector<std::uint32_t> memberEntries;
    std::vector<PendingRequest> pending;
    std::vector<std::uint32_t> freeSlots;
    /** This route's candidates, and the set last handed to the balancer
     * (setHosts runs only when they differ). */
    std::vector<int> candidates;
    std::vector<int> balancerHosts;
    obs::Observability *obsHub = nullptr;
    std::string obsPrefix;
    /** `serving.<name>.latency_ms`: per-response sojourn histogram, the
     * series cluster-level SLOs are written against (null = unobserved). */
    sim::LogHistogram *latencyHist = nullptr;
    std::uint64_t statRouted = 0;
    std::uint64_t statNoBackend = 0;
    std::uint64_t statAvoided = 0;

    /** Position of @p host's row in entriesByHost (insertion point when
     * it has none). */
    std::size_t rankOf(int host) const;
    /** Row index of @p host, or -1 when it has none. */
    int findRow(int host) const;
    /** Row index of @p host, appending a row the first time. */
    std::uint32_t entryFor(int host);
    /** Re-read the lease view; reconcile on change. */
    void refreshMembers();
    /** Release a pending slot; its outstanding request leaves the row. */
    HostEntry &retire(std::uint32_t slot);
    void forward(int host, std::uint32_t doc_count,
                 const obs::TraceContext &ctx, std::function<void()> done);
    void onResponse(std::uint64_t token);
    void onTimeout(std::uint64_t token);
};

}  // namespace ccsim::serving
