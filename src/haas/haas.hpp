/**
 * @file
 * The Hardware-as-a-Service (HaaS) platform (Section V-F, Figure 13).
 *
 * A logically centralized Resource Manager (RM) tracks FPGA resources
 * throughout the datacenter and hands them to Service Managers (SM)
 * through a lease-based model. Each Component is an instance of a
 * hardware service made of one or more FPGAs plus constraints (locality
 * etc.). SMs handle service-level tasks — load balancing, connectivity,
 * failure handling — by requesting and releasing leases. An FPGA Manager
 * (FM) runs per node for configuration and status monitoring.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fpga/role.hpp"
#include "fpga/shell.hpp"
#include "obs/metrics.hpp"
#include "serving/balancer.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"

namespace ccsim::haas {

/** Per-node FPGA Manager: configuration and status monitoring. */
class FpgaManager
{
  public:
    /** Health/configuration snapshot reported to RM/SM. */
    struct Status {
        bool healthy = true;
        bool hasRole = false;
        std::string roleName;
    };

    FpgaManager(sim::EventQueue &eq, fpga::Shell *shell, int host_index)
        : queue(eq), shellPtr(shell), hostIndex(host_index)
    {
    }

    /**
     * Configure @p role into the node's shell (partial reconfiguration;
     * the role becomes reachable after the reconfiguration delay).
     *
     * @return The role's ER port, or -1 on failure.
     */
    int configureRole(fpga::Role *role);

    /**
     * Wipe the role region (full reconfiguration back to the golden
     * image). The RM calls this when a board is repaired or its lease
     * is released, so a reused board always starts blank.
     */
    void clearRole();

    /** Report status. */
    Status status() const;

    /** Mark this node unhealthy (monitoring detected a failure). */
    void markUnhealthy() { healthy = false; }
    /** Repair (e.g. after a power cycle reloads the golden image). */
    void markHealthy() { healthy = true; }

    fpga::Shell *shell() { return shellPtr; }
    int host() const { return hostIndex; }

  private:
    sim::EventQueue &queue;
    fpga::Shell *shellPtr;
    int hostIndex;
    bool healthy = true;
    std::string configuredRole;
    int configuredPort = -1;
};

/** Placement constraints for a component lease. */
struct LeaseConstraints {
    /** Require all FPGAs of the component in this pod (-1 = anywhere). */
    int requirePod = -1;
    /**
     * Failure-domain anti-affinity: cap how many FPGAs of the *service*
     * (across all its leases) may share one rack / one pod
     * (-1 = unlimited). A service spread with maxPerRack=k keeps any
     * single TOR death from taking more than k instances, so domain
     * conviction plus failover never amputates the whole service.
     */
    int maxPerRack = -1;
    int maxPerPod = -1;

    // --- fluent setters ---

    LeaseConstraints &withPod(int pod)
    {
        requirePod = pod;
        return *this;
    }
    LeaseConstraints &withAntiAffinity(int max_per_rack, int max_per_pod = -1)
    {
        maxPerRack = max_per_rack;
        maxPerPod = max_per_pod;
        return *this;
    }
};

/** A granted component lease. */
struct Lease {
    std::uint64_t id = 0;
    std::string service;
    std::vector<int> hosts;
};

/** The logically centralized Resource Manager. */
class ResourceManager
{
  public:
    /** Callback type for lease-affecting failures: (host, leaseId). */
    using FailureFn = std::function<void(int host, std::uint64_t lease)>;
    /** Callback type for repairs (a node rejoined the free pool). */
    using RepairFn = std::function<void(int host)>;

    explicit ResourceManager(sim::EventQueue &eq) : queue(eq) {}

    /**
     * Register a node's FPGA into the datacenter-wide pool. @p rack is
     * the node's global failure-domain id (the rack behind one TOR);
     * anti-affinity constraints count against it. @p host_index must be
     * non-negative; registering hosts in ascending order is O(1) each.
     * Re-registering a host replaces its record (and moves it to the new
     * pod's list).
     */
    void registerNode(int host_index, FpgaManager *fm, int pod = 0,
                      int rack = 0);

    /**
     * Acquire a component of @p count FPGAs for @p service.
     *
     * @return The lease, or nullopt if the pool cannot satisfy it.
     */
    std::optional<Lease> acquire(const std::string &service, int count,
                                 LeaseConstraints constraints = {});

    /** Release a lease, returning its healthy FPGAs to the pool. */
    void release(std::uint64_t lease_id);

    /**
     * Report a node failure: removes it from the pool; if leased, the
     * owning SM is notified through the failure subscription.
     *
     * Idempotent: the failure detectors (LTL timeouts, FM health checks,
     * the fault injector) can all report the same dead node, but only the
     * first report changes state or fires the callback.
     */
    void reportFailure(int host_index);

    /**
     * Report one correlated failure taking out every node of a failure
     * domain at once (a rack behind a dead TOR). Two-phase: the whole
     * domain is removed from the pool first, and only then are the
     * failure subscriptions notified (in @p host_indices order) — so a
     * Service Manager's immediate failover can never be granted a
     * sibling of the same convicted domain that merely had not been
     * marked yet. Per-host idempotence matches reportFailure().
     */
    void reportDomainFailure(const std::vector<int> &host_indices);

    /**
     * Return a repaired node to the pool and notify the repair
     * subscription. Only failed nodes are repairable; repairing a healthy
     * or leased node is a no-op.
     */
    void repair(int host_index);

    /**
     * Subscribe to failures of leased nodes. Multiple subscribers are
     * supported (e.g. one Service Manager per service plus a health
     * monitor); callbacks fire in subscription order, and a node's
     * subscribers are notified in host-index order when several nodes
     * fail at one instant, so same-seed runs stay byte-identical.
     */
    void subscribeFailures(FailureFn fn)
    {
        onFailure.push_back(std::move(fn));
    }

    /** Subscribe to repairs (nodes rejoining the pool); same ordering
     * guarantees as subscribeFailures(). */
    void subscribeRepairs(RepairFn fn)
    {
        onRepair.push_back(std::move(fn));
    }

    /**
     * The node's FPGA Manager. In a flyweight cloud a node can be
     * registered before its server objects exist (fm == nullptr); the
     * first manager() lookup then invokes the materialization resolver
     * (setManagerResolver) so a lease touch — an SM deploying a role,
     * a failure handler reconfiguring — deterministically materializes
     * the server instead of failing.
     */
    FpgaManager *manager(int host_index);

    /**
     * Install the lazy-materialization hook: called from manager() for
     * nodes registered without an FpgaManager; must create the node's
     * server state and return its manager (cached via setNodeManager).
     */
    void setManagerResolver(std::function<FpgaManager *(int host)> fn)
    {
        resolver = std::move(fn);
    }

    /**
     * Late-bind a stub node's manager (lazy materialization). A node
     * that failed while still a stub gets its manager born unhealthy,
     * matching the state an eager build would have reached.
     */
    void setNodeManager(int host_index, FpgaManager *fm);

    /** All registered host indices, ascending. */
    std::vector<int> hostIndices() const;

    /**
     * Pool counts by state, kept up to date on every state change, so a
     * `haas.*` sample reads them without walking the pool.
     */
    int freeCount() const { return count(NodeState::kUnallocated); }
    int allocatedCount() const { return count(NodeState::kAllocated); }
    int failedCount() const { return count(NodeState::kFailed); }
    int totalCount() const
    {
        return freeCount() + allocatedCount() + failedCount();
    }
    /**
     * {free, allocated, failed} recounted by walking every slot: the
     * reference the maintained counts are tested against.
     */
    std::array<int, 3> scanCounts() const;

    /** A registered node's failure-domain (rack) id; -1 if unknown. */
    int nodeRack(int host_index) const;
    /** FPGAs of @p service currently allocated in @p rack. */
    int serviceRackCount(const std::string &service, int rack) const;
    /** FPGAs of @p service currently allocated in @p pod. */
    int servicePodCount(const std::string &service, int pod) const;

    /** Cumulative distinct failures reported. */
    std::uint64_t failuresReported() const { return statFailures; }
    /** Cumulative repairs applied. */
    std::uint64_t repairsApplied() const { return statRepairs; }
    /** Free candidates passed over to honor anti-affinity caps. */
    std::uint64_t affinitySkips() const { return statAffinitySkips; }

    /**
     * Export pool statistics under `haas.*`: probes for the free /
     * allocated / failed node counts plus cumulative failure and repair
     * counters. Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o);

  private:
    /** kUnregistered marks a hole in the dense node table. */
    enum class NodeState { kUnregistered, kUnallocated, kAllocated, kFailed };
    struct Node {
        FpgaManager *fm = nullptr;
        std::uint64_t leaseId = 0;
        int pod = 0;
        int rack = 0;  ///< global failure-domain id
        NodeState state = NodeState::kUnregistered;
    };

    sim::EventQueue &queue;
    /**
     * The pool, indexed by host: hosts are dense from 0 in every cloud,
     * so a vector slot (32 B) replaces a map node (~80 B) per host and
     * every lookup is an index.
     */
    std::vector<Node> nodes;
    /** Registered hosts of each pod (index = pod id), ascending. */
    std::vector<std::vector<int>> podHosts;
    /** Slots of `nodes` per NodeState (index = state), holes included. */
    std::array<int, 4> stateCounts{};
    std::map<std::uint64_t, Lease> leases;
    std::uint64_t nextLeaseId = 1;
    std::vector<FailureFn> onFailure;
    std::vector<RepairFn> onRepair;
    std::function<FpgaManager *(int host)> resolver;
    /** service -> rack/pod -> FPGAs allocated (anti-affinity ledger). */
    std::map<std::string, std::map<int, int>> svcRackCount;
    std::map<std::string, std::map<int, int>> svcPodCount;
    std::uint64_t statFailures = 0;
    std::uint64_t statRepairs = 0;
    std::uint64_t statAffinitySkips = 0;

    /** The registered node at @p host_index, or nullptr. */
    Node *find(int host_index);
    const Node *find(int host_index) const;
    int count(NodeState state) const
    {
        return stateCounts[static_cast<std::size_t>(state)];
    }
    /** Move @p node to @p state, keeping stateCounts in step. */
    void setState(Node &node, NodeState state);
    /** Drop one @p service placement credit from @p node 's domains. */
    void dropPlacement(const std::string &service, const Node &node);
};

/**
 * A Service Manager: deploys a hardware service onto leased FPGAs,
 * load-balances requests across instances, and replaces failed instances
 * from the pool.
 */
class ServiceManager
{
  public:
    /** Builds the role instance configured onto a leased node. */
    using RoleFactory = std::function<fpga::Role *(int host)>;

    ServiceManager(sim::EventQueue &eq, ResourceManager &rm,
                   std::string service_name, RoleFactory factory);

    /**
     * Acquire @p instances FPGAs and configure the service role on each.
     *
     * @return true if fully deployed.
     */
    bool deploy(int instances, LeaseConstraints constraints = {});

    /** Release all instances. */
    void teardown();

    /**
     * Grow or shrink the pool to @p instances ("as demand for a service
     * grows or shrinks, a global manager grows or shrinks the pools
     * correspondingly"). Shrinking releases the most recently acquired
     * instances back to the datacenter pool.
     *
     * @return true if the target size was reached.
     */
    bool scaleTo(int instances, LeaseConstraints constraints = {});

    /** Currently serving hosts. */
    const std::vector<int> &instances() const { return hosts; }

    /**
     * Failure handling: called by the RM failure subscription. Requests a
     * replacement lease (honoring @p constraints) and reconfigures the
     * role on the new node.
     *
     * @return true if a replacement was found.
     */
    bool handleFailure(int host, LeaseConstraints constraints = {});

    /**
     * Self-healing: subscribe this SM to the Resource Manager so it
     * (a) fails over automatically when one of its instances is reported
     * failed and (b) re-acquires leases back up to @p target instances
     * when repaired nodes rejoin the pool — @p constraints (requirePod
     * etc.) are honored on every replacement and re-acquisition.
     * Idempotent; a second call just updates the target/constraints.
     */
    void enableAutoHeal(int target, LeaseConstraints constraints = {});

    /**
     * Rate-limit failover re-acquisitions: at most one replacement lease
     * per @p min_gap of simulated time; excess failovers queue and drain
     * in arrival order. This is the mass-migration throttle — a whole
     * rack dying at one instant becomes a paced evacuation instead of a
     * thundering herd of acquire + reconfigure on the same tick.
     *
     * With @p self_pump the SM schedules its own drain events on its
     * queue. When the control plane runs at barriers, pass false and
     * drive pumpMigrations() from a barrier hook
     * (fault::ChaosEngine::manageService does this).
     * min_gap 0 disables the throttle.
     */
    void setMigrationPolicy(sim::TimePs min_gap, bool self_pump = true);

    /**
     * Drain due queued migrations (one per min_gap elapsed).
     *
     * @return When the next queued migration is due, or kTimeNever if
     *         the queue is empty.
     */
    sim::TimePs pumpMigrations();

    /** Failovers waiting behind the migration throttle right now. */
    int migrationQueueDepth() const
    {
        return static_cast<int>(migrationQueue.size());
    }
    /** Cumulative failovers that had to queue behind the throttle. */
    std::uint64_t migrationsQueued() const { return statMigrationsQueued; }
    /** Smallest gap observed between replacement acquisitions
     * (kTimeNever until a second replacement happens). */
    sim::TimePs minMigrationGapObserved() const { return minGapObserved; }

    std::uint64_t failovers() const { return statFailovers; }
    /** Instances re-acquired by auto-heal after repairs. */
    std::uint64_t autoHeals() const { return statAutoHeals; }
    const std::string &name() const { return serviceName; }

    /**
     * Export service statistics under `haas.sm.<name>.*`: probes for the
     * instance count and cumulative failovers. Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o);

  private:
    sim::EventQueue &queue;
    ResourceManager &rm;
    std::string serviceName;
    RoleFactory roleFactory;
    std::vector<int> hosts;
    std::vector<std::uint64_t> hostLease;  // parallel to hosts
    std::uint64_t statFailovers = 0;
    std::uint64_t statAutoHeals = 0;
    bool healSubscribed = false;
    int healTarget = 0;
    LeaseConstraints healConstraints;
    /** Migration throttle (setMigrationPolicy); 0 = unthrottled. */
    sim::TimePs migrationMinGap = 0;
    bool migrationSelfPump = true;
    bool pumpScheduled = false;
    sim::TimePs nextMigrationAllowed = 0;
    sim::TimePs lastMigrationAt = -1;
    sim::TimePs minGapObserved = sim::kTimeNever;
    sim::Fifo<LeaseConstraints> migrationQueue;
    std::uint64_t statMigrationsQueued = 0;

    /** The acquire + configure half of a failover. */
    bool acquireReplacement(const LeaseConstraints &constraints);
    void schedulePump();
};

}  // namespace ccsim::haas
