#include "haas/haas.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace ccsim::haas {

int
FpgaManager::configureRole(fpga::Role *role)
{
    if (!healthy || shellPtr == nullptr)
        return -1;
    const int port = shellPtr->addRole(role);
    if (port >= 0) {
        configuredRole = role->name();
        configuredPort = port;
    }
    return port;
}

void
FpgaManager::clearRole()
{
    if (shellPtr != nullptr && configuredPort >= 0)
        shellPtr->removeRole(configuredPort);
    configuredRole.clear();
    configuredPort = -1;
}

FpgaManager::Status
FpgaManager::status() const
{
    Status s;
    s.healthy = healthy;
    s.hasRole = !configuredRole.empty();
    s.roleName = configuredRole;
    return s;
}

ResourceManager::Node *
ResourceManager::find(int host_index)
{
    return const_cast<Node *>(std::as_const(*this).find(host_index));
}

const ResourceManager::Node *
ResourceManager::find(int host_index) const
{
    if (host_index < 0 || host_index >= static_cast<int>(nodes.size()))
        return nullptr;
    const Node &node = nodes[static_cast<std::size_t>(host_index)];
    return node.state == NodeState::kUnregistered ? nullptr : &node;
}

void
ResourceManager::registerNode(int host_index, FpgaManager *fm, int pod,
                              int rack)
{
    if (host_index < 0)
        sim::fatalf("ResourceManager: negative host index ", host_index);
    const auto host = static_cast<std::size_t>(host_index);
    if (host >= nodes.size()) {
        // The new slots are holes: kUnregistered, index 0.
        stateCounts[0] += static_cast<int>(host + 1 - nodes.size());
        nodes.resize(host + 1);
    }
    Node &node = nodes[host];
    if (node.state != NodeState::kUnregistered && node.pod >= 0) {
        // Re-registration replaces the whole record, pod included.
        auto &old = podHosts[static_cast<std::size_t>(node.pod)];
        old.erase(std::lower_bound(old.begin(), old.end(), host_index));
    }
    setState(node, NodeState::kUnallocated);
    node = Node{fm, 0, pod, rack, NodeState::kUnallocated};
    if (pod < 0)
        return;  // in no pod: only unconstrained acquires can pick it
    if (static_cast<std::size_t>(pod) >= podHosts.size())
        podHosts.resize(static_cast<std::size_t>(pod) + 1);
    auto &list = podHosts[static_cast<std::size_t>(pod)];
    // Hosts usually register in ascending order: an append.
    if (list.empty() || list.back() < host_index)
        list.push_back(host_index);
    else
        list.insert(std::lower_bound(list.begin(), list.end(), host_index),
                    host_index);
}

std::optional<Lease>
ResourceManager::acquire(const std::string &service, int count,
                         LeaseConstraints constraints)
{
    // First fit ascending, skipping hosts whose rack/pod already holds
    // the service's anti-affinity cap (counting both existing leases and
    // picks made earlier in this very scan). A pod constraint scans only
    // that pod's host list, which is in the same ascending order.
    std::vector<int> picked;
    std::map<int, int> pickedPerRack;
    std::map<int, int> pickedPerPod;
    const auto rackLedger = svcRackCount.find(service);
    const auto podLedger = svcPodCount.find(service);
    auto ledgerCount = [](const auto &ledger_it, const auto &ledger_end,
                          int domain) {
        if (ledger_it == ledger_end)
            return 0;
        const auto it = ledger_it->second.find(domain);
        return it == ledger_it->second.end() ? 0 : it->second;
    };
    // Consider one host; true once the lease is complete.
    auto pick = [&](int host) {
        const Node &node = nodes[static_cast<std::size_t>(host)];
        if (node.state != NodeState::kUnallocated)
            return false;
        if (constraints.maxPerRack >= 0 &&
            ledgerCount(rackLedger, svcRackCount.end(), node.rack) +
                    pickedPerRack[node.rack] >=
                constraints.maxPerRack) {
            ++statAffinitySkips;
            return false;
        }
        if (constraints.maxPerPod >= 0 &&
            ledgerCount(podLedger, svcPodCount.end(), node.pod) +
                    pickedPerPod[node.pod] >=
                constraints.maxPerPod) {
            ++statAffinitySkips;
            return false;
        }
        picked.push_back(host);
        ++pickedPerRack[node.rack];
        ++pickedPerPod[node.pod];
        return static_cast<int>(picked.size()) == count;
    };
    if (constraints.requirePod >= 0) {
        const auto pod = static_cast<std::size_t>(constraints.requirePod);
        if (pod < podHosts.size()) {
            for (const int host : podHosts[pod])
                if (pick(host))
                    break;
        }
    } else {
        for (int host = 0; host < static_cast<int>(nodes.size()); ++host)
            if (pick(host))
                break;
    }
    if (static_cast<int>(picked.size()) < count)
        return std::nullopt;

    Lease lease;
    lease.id = nextLeaseId++;
    lease.service = service;
    lease.hosts = picked;
    for (int host : picked) {
        Node &node = nodes[static_cast<std::size_t>(host)];
        setState(node, NodeState::kAllocated);
        node.leaseId = lease.id;
        ++svcRackCount[service][node.rack];
        ++svcPodCount[service][node.pod];
    }
    leases[lease.id] = lease;
    return lease;
}

void
ResourceManager::dropPlacement(const std::string &service, const Node &node)
{
    auto drop = [&](std::map<std::string, std::map<int, int>> &ledger,
                    int domain) {
        auto sit = ledger.find(service);
        if (sit == ledger.end())
            return;
        auto dit = sit->second.find(domain);
        if (dit == sit->second.end())
            return;
        if (--dit->second <= 0)
            sit->second.erase(dit);
        if (sit->second.empty())
            ledger.erase(sit);
    };
    drop(svcRackCount, node.rack);
    drop(svcPodCount, node.pod);
}

void
ResourceManager::release(std::uint64_t lease_id)
{
    auto it = leases.find(lease_id);
    if (it == leases.end())
        return;
    for (int host : it->second.hosts) {
        Node *node = find(host);
        if (node == nullptr)
            continue;
        if (node->state == NodeState::kAllocated &&
            node->leaseId == lease_id) {
            setState(*node, NodeState::kUnallocated);
            node->leaseId = 0;
            dropPlacement(it->second.service, *node);
            // Reclaimed boards are handed back blank.
            if (node->fm)
                node->fm->clearRole();
        }
    }
    leases.erase(it);
}

void
ResourceManager::reportFailure(int host_index)
{
    Node *node = find(host_index);
    if (node == nullptr)
        return;
    if (node->state == NodeState::kFailed)
        return;  // idempotent: duplicate detections of one dead node
    ++statFailures;
    const bool was_leased = node->state == NodeState::kAllocated;
    const std::uint64_t lease_id = node->leaseId;
    setState(*node, NodeState::kFailed);
    if (node->fm)
        node->fm->markUnhealthy();
    if (was_leased) {
        // Remove the node from the lease; the SM handles replacement.
        auto lit = leases.find(lease_id);
        if (lit != leases.end()) {
            std::erase(lit->second.hosts, host_index);
            // The dead board no longer counts against its service's
            // anti-affinity caps (the lease release path skips it).
            dropPlacement(lit->second.service, *node);
        }
        node->leaseId = 0;
        // Index loop: a callback may subscribe further callbacks.
        for (std::size_t i = 0; i < onFailure.size(); ++i)
            onFailure[i](host_index, lease_id);
    }
}

void
ResourceManager::reportDomainFailure(const std::vector<int> &host_indices)
{
    // Phase 1: take the whole domain out of the pool. No callback runs
    // until every member is marked, so an SM failing over off this
    // domain cannot be handed a sibling that was about to be convicted.
    std::vector<std::pair<int, std::uint64_t>> notify;
    for (const int host : host_indices) {
        Node *node = find(host);
        if (node == nullptr || node->state == NodeState::kFailed)
            continue;
        ++statFailures;
        const bool was_leased = node->state == NodeState::kAllocated;
        const std::uint64_t lease_id = node->leaseId;
        setState(*node, NodeState::kFailed);
        if (node->fm)
            node->fm->markUnhealthy();
        if (was_leased) {
            auto lit = leases.find(lease_id);
            if (lit != leases.end()) {
                std::erase(lit->second.hosts, host);
                dropPlacement(lit->second.service, *node);
            }
            node->leaseId = 0;
            notify.emplace_back(host, lease_id);
        }
    }
    // Phase 2: notify leased-node subscribers in the given host order.
    for (const auto &[host, lease_id] : notify)
        for (std::size_t i = 0; i < onFailure.size(); ++i)
            onFailure[i](host, lease_id);
}

void
ResourceManager::repair(int host_index)
{
    Node *node = find(host_index);
    if (node == nullptr)
        return;
    if (node->state != NodeState::kFailed)
        return;  // healthy or leased nodes are not "repaired"
    ++statRepairs;
    setState(*node, NodeState::kUnallocated);
    node->leaseId = 0;
    if (node->fm) {
        node->fm->markHealthy();
        // Repair re-images the board: the old role region is gone, so
        // the node can be re-leased and reconfigured from scratch.
        node->fm->clearRole();
    }
    for (std::size_t i = 0; i < onRepair.size(); ++i)
        onRepair[i](host_index);
}

int
ResourceManager::nodeRack(int host_index) const
{
    const Node *node = find(host_index);
    return node == nullptr ? -1 : node->rack;
}

int
ResourceManager::serviceRackCount(const std::string &service, int rack) const
{
    const auto sit = svcRackCount.find(service);
    if (sit == svcRackCount.end())
        return 0;
    const auto it = sit->second.find(rack);
    return it == sit->second.end() ? 0 : it->second;
}

int
ResourceManager::servicePodCount(const std::string &service, int pod) const
{
    const auto sit = svcPodCount.find(service);
    if (sit == svcPodCount.end())
        return 0;
    const auto it = sit->second.find(pod);
    return it == sit->second.end() ? 0 : it->second;
}

std::vector<int>
ResourceManager::hostIndices() const
{
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(totalCount()));
    for (int host = 0; host < static_cast<int>(nodes.size()); ++host)
        if (nodes[static_cast<std::size_t>(host)].state !=
            NodeState::kUnregistered)
            out.push_back(host);
    return out;
}

void
ResourceManager::attachObservability(obs::Observability *o)
{
    if (!o)
        return;
    auto &reg = o->registry;
    reg.registerProbe("haas.free", [this] { return double(freeCount()); });
    reg.registerProbe("haas.allocated",
                      [this] { return double(allocatedCount()); });
    reg.registerProbe("haas.failed",
                      [this] { return double(failedCount()); });
    reg.registerProbe("haas.failures",
                      [this] { return double(statFailures); });
    reg.registerProbe("haas.repairs",
                      [this] { return double(statRepairs); });
    reg.registerProbe("haas.placement.affinity_skips",
                      [this] { return double(statAffinitySkips); });
    reg.registerProbe("haas.placement.racks_used", [this] {
        std::size_t n = 0;
        for (const auto &[service, racks] : svcRackCount)
            n += racks.size();
        return double(n);
    });
}

FpgaManager *
ResourceManager::manager(int host_index)
{
    const Node *node = find(host_index);
    if (node == nullptr)
        return nullptr;
    if (node->fm == nullptr && resolver) {
        // Flyweight stub: materialize on first touch. The resolver
        // calls back into setNodeManager; re-find in case it grew the
        // table (registering further nodes is allowed).
        FpgaManager *fm = resolver(host_index);
        node = find(host_index);
        if (node == nullptr)
            return fm;
    }
    return node->fm;
}

void
ResourceManager::setNodeManager(int host_index, FpgaManager *fm)
{
    Node *node = find(host_index);
    if (node == nullptr)
        return;
    node->fm = fm;
    if (fm != nullptr && node->state == NodeState::kFailed)
        fm->markUnhealthy();
}

void
ResourceManager::setState(Node &node, NodeState state)
{
    --stateCounts[static_cast<std::size_t>(node.state)];
    ++stateCounts[static_cast<std::size_t>(state)];
    node.state = state;
}

std::array<int, 3>
ResourceManager::scanCounts() const
{
    std::array<int, 4> n{};  // by NodeState, like stateCounts
    for (const Node &node : nodes)
        ++n[static_cast<std::size_t>(node.state)];
    return {n[1], n[2], n[3]};
}

ServiceManager::ServiceManager(sim::EventQueue &eq, ResourceManager &rmgr,
                               std::string service_name, RoleFactory factory)
    : queue(eq), rm(rmgr), serviceName(std::move(service_name)),
      roleFactory(std::move(factory))
{
}

bool
ServiceManager::deploy(int instances, LeaseConstraints constraints)
{
    for (int i = 0; i < instances; ++i) {
        auto lease = rm.acquire(serviceName, 1, constraints);
        if (!lease) {
            CCSIM_LOG(sim::LogLevel::kWarn, "haas.sm." + serviceName,
                      queue.now(), "pool exhausted at ", i, "/",
                      instances, " instances");
            return false;
        }
        const int host = lease->hosts.front();
        FpgaManager *fm = rm.manager(host);
        fpga::Role *role = roleFactory(host);
        if (fm == nullptr || role == nullptr ||
            fm->configureRole(role) < 0) {
            rm.release(lease->id);
            return false;
        }
        hosts.push_back(host);
        hostLease.push_back(lease->id);
    }
    return true;
}

bool
ServiceManager::scaleTo(int instances, LeaseConstraints constraints)
{
    while (static_cast<int>(hosts.size()) > instances) {
        rm.release(hostLease.back());
        hostLease.pop_back();
        hosts.pop_back();
    }
    if (static_cast<int>(hosts.size()) < instances) {
        return deploy(instances - static_cast<int>(hosts.size()),
                      constraints);
    }
    return true;
}

void
ServiceManager::teardown()
{
    for (std::uint64_t lease : hostLease)
        rm.release(lease);
    hosts.clear();
    hostLease.clear();
}

void
ServiceManager::attachObservability(obs::Observability *o)
{
    if (!o)
        return;
    auto &reg = o->registry;
    const std::string prefix = "haas.sm." + serviceName;
    reg.registerProbe(prefix + ".instances",
                      [this] { return double(hosts.size()); });
    reg.registerProbe(prefix + ".failovers",
                      [this] { return double(statFailovers); });
    reg.registerProbe(prefix + ".auto_heals",
                      [this] { return double(statAutoHeals); });
    reg.registerProbe(prefix + ".migration_queue",
                      [this] { return double(migrationQueue.size()); });
    reg.registerProbe(prefix + ".migrations_queued",
                      [this] { return double(statMigrationsQueued); });
}

void
ServiceManager::enableAutoHeal(int target, LeaseConstraints constraints)
{
    healTarget = target;
    healConstraints = constraints;
    if (healSubscribed)
        return;
    healSubscribed = true;
    rm.subscribeFailures([this](int host, std::uint64_t) {
        handleFailure(host, healConstraints);
    });
    rm.subscribeRepairs([this](int) {
        const auto before = hosts.size();
        if (static_cast<int>(before) < healTarget)
            scaleTo(healTarget, healConstraints);
        statAutoHeals += hosts.size() - before;
    });
}

bool
ServiceManager::handleFailure(int host, LeaseConstraints constraints)
{
    auto it = std::find(hosts.begin(), hosts.end(), host);
    if (it == hosts.end())
        return false;
    const std::size_t idx = static_cast<std::size_t>(it - hosts.begin());
    rm.release(hostLease[idx]);
    hosts.erase(it);
    hostLease.erase(hostLease.begin() + static_cast<std::ptrdiff_t>(idx));

    if (migrationMinGap > 0 &&
        (!migrationQueue.empty() || queue.now() < nextMigrationAllowed)) {
        // Throttled: a rack death dumps two dozen failovers on this SM
        // at one instant; queue them and evacuate one per min_gap so
        // the re-acquire + reconfigure herd never stampedes the pool.
        migrationQueue.push_back(constraints);
        ++statMigrationsQueued;
        schedulePump();
        return true;
    }
    return acquireReplacement(constraints);
}

bool
ServiceManager::acquireReplacement(const LeaseConstraints &constraints)
{
    const sim::TimePs now = queue.now();
    if (lastMigrationAt >= 0 && now - lastMigrationAt < minGapObserved)
        minGapObserved = now - lastMigrationAt;
    lastMigrationAt = now;
    nextMigrationAllowed = now + migrationMinGap;

    // The pool has an abundance of spares: grab a replacement.
    auto lease = rm.acquire(serviceName, 1, constraints);
    if (!lease)
        return false;
    const int replacement = lease->hosts.front();
    FpgaManager *fm = rm.manager(replacement);
    fpga::Role *role = roleFactory(replacement);
    if (fm == nullptr || role == nullptr || fm->configureRole(role) < 0) {
        rm.release(lease->id);
        return false;
    }
    hosts.push_back(replacement);
    hostLease.push_back(lease->id);
    ++statFailovers;
    return true;
}

void
ServiceManager::setMigrationPolicy(sim::TimePs min_gap, bool self_pump)
{
    if (min_gap < 0)
        sim::fatal("ServiceManager::setMigrationPolicy: min_gap must be "
                   "non-negative");
    migrationMinGap = min_gap;
    migrationSelfPump = self_pump;
}

sim::TimePs
ServiceManager::pumpMigrations()
{
    while (!migrationQueue.empty() && queue.now() >= nextMigrationAllowed) {
        const LeaseConstraints constraints = migrationQueue.front();
        migrationQueue.pop_front();
        // nextMigrationAllowed advances inside, so with a positive gap
        // exactly one migration drains per due pump.
        acquireReplacement(constraints);
    }
    return migrationQueue.empty() ? sim::kTimeNever : nextMigrationAllowed;
}

void
ServiceManager::schedulePump()
{
    if (!migrationSelfPump || pumpScheduled)
        return;
    pumpScheduled = true;
    queue.schedule(std::max(nextMigrationAllowed, queue.now()), [this] {
        pumpScheduled = false;
        pumpMigrations();
        if (!migrationQueue.empty())
            schedulePump();
    });
}

}  // namespace ccsim::haas
