#include "serving/cluster_client.hpp"

#include <algorithm>

#include "obs/flow_trace.hpp"
#include "sim/logging.hpp"

namespace ccsim::serving {

void
validateServingConfig(const ServingConfig &cfg)
{
    if (cfg.balancer == BalancerPolicy::kBoundedLoadConsistentHash) {
        if (cfg.chVnodes < 1)
            sim::fatalf("ServingConfig: chVnodes must be >= 1 (got ",
                        cfg.chVnodes, ")");
        if (cfg.chLoadBound <= 1.0)
            sim::fatalf("ServingConfig: chLoadBound must be > 1 (got ",
                        cfg.chLoadBound, ")");
    }
    validateAdmissionConfig(cfg.admission);
    validateEjectionConfig(cfg.ejection);
    validateRequestPolicy(cfg.request);
}

ClusterClient::ClusterClient(sim::EventQueue &eq, std::string name,
                             InstanceSource instances, ServingConfig cfg)
    : queue(eq),
      serviceName(std::move(name)),
      source(std::move(instances)),
      config((validateServingConfig(cfg), cfg)),
      lb(makeBalancer(cfg.balancer, cfg.chVnodes, cfg.chLoadBound)),
      admissionCtl(eq, cfg.admission),
      detector(eq, cfg.ejection),
      rng(sim::Rng::forStream(cfg.seed, 0x5e21u))
{
    if (!source)
        sim::fatal("ClusterClient: instance source must be set");
}

std::size_t
ClusterClient::rankOf(int host) const
{
    return static_cast<std::size_t>(
        std::lower_bound(entriesByHost.begin(), entriesByHost.end(), host,
                         [this](std::uint32_t row, int h) {
                             return entries[row].host < h;
                         }) -
        entriesByHost.begin());
}

int
ClusterClient::findRow(int host) const
{
    const std::size_t rank = rankOf(host);
    return rank < entriesByHost.size() &&
                   entries[entriesByHost[rank]].host == host
               ? static_cast<int>(entriesByHost[rank])
               : -1;
}

std::uint32_t
ClusterClient::entryFor(int host)
{
    if (const int row = findRow(host); row >= 0)
        return static_cast<std::uint32_t>(row);
    const auto row = static_cast<std::uint32_t>(entries.size());
    entries.push_back(HostEntry{.host = host});
    entriesByHost.insert(
        entriesByHost.begin() + static_cast<std::ptrdiff_t>(rankOf(host)),
        row);
    return row;
}

void
ClusterClient::registerEndpoint(int host, host::FeatureAccelerator *endpoint)
{
    if (endpoint == nullptr)
        sim::fatalf("ClusterClient(", serviceName,
                    "): null endpoint for host ", host);
    entries[entryFor(host)].endpoint = endpoint;
    if (obsHub != nullptr) {
        // Replacement semantics make re-registration after a
        // scale-down/up cycle safe.
        obsHub->registry.registerProbe(
            obsPrefix + ".host." + std::to_string(host) + ".outstanding",
            [this, host] { return double(outstandingOn(host)); });
    }
}

void
ClusterClient::unregisterEndpoint(int host)
{
    if (const int row = findRow(host); row >= 0)
        entries[static_cast<std::size_t>(row)].endpoint = nullptr;
}

bool
ClusterClient::admit(const std::string &tenant)
{
    return admissionCtl.tryAdmit(tenant);
}

void
ClusterClient::refreshMembers()
{
    std::vector<int> instances = source();
    if (instances == members)
        return;
    members = std::move(instances);
    detector.trackHosts(members);
    memberEntries.clear();
    for (int host : members)
        memberEntries.push_back(entryFor(host));
}

int
ClusterClient::route(std::uint64_t key)
{
    refreshMembers();
    candidates.clear();
    for (std::size_t i = 0; i < members.size(); ++i) {
        const int host = members[i];
        if (entries[memberEntries[i]].endpoint == nullptr ||
            detector.ejected(host))
            continue;
        if (avoid && avoid(host)) {
            ++statAvoided;
            continue;
        }
        candidates.push_back(host);
    }
    if (candidates.empty())
        return -1;
    if (candidates != balancerHosts) {
        balancerHosts = candidates;
        lb->setHosts(balancerHosts);
    }
    if (key == 0)
        key = rng.next();
    const int host = lb->pick(key, [this](int h) {
        return outstandingOn(h);
    });
    if (host >= 0)
        ++statRouted;
    return host;
}

void
ClusterClient::compute(std::uint32_t doc_count, std::function<void()> done)
{
    computeTraced(doc_count, obs::TraceContext{}, std::move(done));
}

void
ClusterClient::computeTraced(std::uint32_t doc_count,
                             const obs::TraceContext &ctx,
                             std::function<void()> done)
{
    const int host = route();
    if (host < 0) {
        // No routable backend: drop rather than fake a completion. The
        // caller's per-attempt deadline fires and it falls back (e.g. to
        // the software feature path), exactly as for a dead accelerator.
        ++statNoBackend;
        return;
    }
    forward(host, doc_count, ctx, std::move(done));
}

void
ClusterClient::forward(int host, std::uint32_t doc_count,
                       const obs::TraceContext &ctx,
                       std::function<void()> done)
{
    std::uint32_t slot;
    if (freeSlots.empty()) {
        slot = static_cast<std::uint32_t>(pending.size());
        pending.emplace_back();
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
    }
    PendingRequest &req = pending[slot];
    const std::uint64_t token =
        (static_cast<std::uint64_t>(req.generation) << 32) | slot;
    req.entry = entryFor(host);
    req.startedAt = queue.now();
    req.timeoutEvent = sim::kNoEvent;
    if (config.ejection.attemptTimeout > 0)
        req.timeoutEvent = queue.scheduleAfter(
            config.ejection.attemptTimeout,
            [this, token] { onTimeout(token); });
    HostEntry &entry = entries[req.entry];
    ++entry.outstanding;
    if (ctx.sampled && obsHub != nullptr) {
        // Zero-width annotation: names the chosen backend in the span
        // dump without covering any time, so attribution still sums
        // exactly.
        obsHub->flows.recordSpan(
            ctx, obsPrefix + ".host" + std::to_string(host),
            obs::Component::kCompute, queue.now(), queue.now());
    }
    entry.endpoint->computeTraced(
        doc_count, ctx, [this, token, cb = std::move(done)] {
            onResponse(token);
            if (cb)
                cb();
        });
}

ClusterClient::HostEntry &
ClusterClient::retire(std::uint32_t slot)
{
    PendingRequest &req = pending[slot];
    ++req.generation;
    freeSlots.push_back(slot);
    HostEntry &entry = entries[req.entry];
    --entry.outstanding;
    return entry;
}

void
ClusterClient::onResponse(std::uint64_t token)
{
    const auto slot = static_cast<std::uint32_t>(token);
    const PendingRequest &req = pending[slot];
    if (req.generation != static_cast<std::uint32_t>(token >> 32))
        return;  // already counted as an error by the attempt timeout
    const sim::TimePs latency = queue.now() - req.startedAt;
    if (req.timeoutEvent != sim::kNoEvent)
        queue.cancel(req.timeoutEvent);
    const HostEntry &entry = retire(slot);
    detector.recordSuccess(entry.host, latency);
    if (latencyHist != nullptr)
        latencyHist->add(static_cast<double>(latency) /
                         static_cast<double>(sim::kMillisecond));
}

void
ClusterClient::onTimeout(std::uint64_t token)
{
    const auto slot = static_cast<std::uint32_t>(token);
    if (pending[slot].generation != static_cast<std::uint32_t>(token >> 32))
        return;
    detector.recordError(retire(slot).host);
}

int
ClusterClient::outstandingOn(int host) const
{
    const int row = findRow(host);
    return row < 0 ? 0 : entries[static_cast<std::size_t>(row)].outstanding;
}

int
ClusterClient::outstandingTotal() const
{
    int total = 0;
    for (const HostEntry &e : entries)
        total += e.outstanding;
    return total;
}

void
ClusterClient::attachObservability(obs::Observability *o)
{
    obsHub = o;
    if (o == nullptr)
        return;
    obsPrefix = "serving." + serviceName;
    auto &reg = o->registry;
    reg.registerProbe(obsPrefix + ".routed",
                      [this] { return double(statRouted); });
    reg.registerProbe(obsPrefix + ".no_backend",
                      [this] { return double(statNoBackend); });
    reg.registerProbe(obsPrefix + ".avoided",
                      [this] { return double(statAvoided); });
    latencyHist = &reg.histogram(obsPrefix + ".latency_ms");
    reg.registerProbe(obsPrefix + ".outstanding",
                      [this] { return double(outstandingTotal()); });
    for (std::uint32_t row : entriesByHost) {
        if (entries[row].endpoint == nullptr)
            continue;
        const int host = entries[row].host;
        reg.registerProbe(
            obsPrefix + ".host." + std::to_string(host) + ".outstanding",
            [this, host] { return double(outstandingOn(host)); });
    }
    admissionCtl.attachObservability(o, obsPrefix + ".admission");
    detector.attachObservability(o, obsPrefix + ".outlier");
}

}  // namespace ccsim::serving
