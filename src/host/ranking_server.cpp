#include "host/ranking_server.hpp"

#include <algorithm>
#include <cmath>

#include "serving/cluster_client.hpp"
#include "sim/logging.hpp"

namespace ccsim::host {

void
LocalFpgaAccelerator::compute(std::uint32_t doc_count,
                              std::function<void()> done)
{
    ++statRequests;
    const sim::TimePs now = queue.now();
    const sim::TimePs occupancy = params.occupancyPerDoc * doc_count;
    const sim::TimePs start = std::max(now, busyUntil);
    busyUntil = start + occupancy;
    busyAccum += occupancy;
    queue.schedule(busyUntil + params.fixedLatency,
                   [d = std::move(done)] {
                       if (d)
                           d();
                   });
}

RankingServer::RankingServer(sim::EventQueue &eq,
                             RankingServiceParams service_params,
                             FeatureAccelerator *accel, std::uint64_t seed)
    : queue(eq), params(service_params), accelerator(accel), rng(seed),
      cpuPreDist(sim::Rng::lognormalParams(
          static_cast<double>(service_params.cpuPreMean),
          service_params.cpuCv)),
      cpuPostDist(sim::Rng::lognormalParams(
          static_cast<double>(service_params.cpuPostMean),
          service_params.cpuCv)),
      swFeatureDist(sim::Rng::lognormalParams(
          static_cast<double>(service_params.swFeatureMean),
          service_params.swFeatureCv)),
      docsDist(sim::Rng::lognormalParams(service_params.docsPerQueryMean,
                                         service_params.docsPerQueryCv)),
      freeCores(service_params.cores)
{
    if (params.cores > kMaxCores)
        sim::fatalf("RankingServer: at most ", kMaxCores, " cores (got ",
                    params.cores, ")");
    const auto cores = static_cast<std::uint32_t>(std::max(0, params.cores));
    running.resize(cores);
    // Slot 0 on top: an idle server fills its slots in index order.
    freeSlots.resize(cores);
    for (std::uint32_t i = 0; i < cores; ++i)
        freeSlots[i] = cores - 1 - i;
}

void
RankingServer::attachObservability(obs::Observability *o,
                                   const std::string &node)
{
    obsHub = o;
    obsLatencyHist = nullptr;
    if (!o)
        return;
    obsPrefix = "host." + node;
    obsTrack = o->trace.track(obsPrefix);
    obsLatencyHist = &o->registry.histogram(obsPrefix + ".latency_ms");
    auto &reg = o->registry;
    reg.registerProbe(obsPrefix + ".completed",
                      [this] { return double(statCompleted); });
    reg.registerProbe(obsPrefix + ".in_flight",
                      [this] { return double(activeQueries); });
    reg.registerProbe(obsPrefix + ".queue_depth",
                      [this] { return double(waiting.size()); });
    reg.registerProbe(obsPrefix + ".sw_feature_queries",
                      [this] { return double(statSwFeature); });
    reg.registerProbe(obsPrefix + ".shed",
                      [this] { return double(statShed); });
    reg.registerProbe(obsPrefix + ".accel_blocked",
                      [this] { return double(accelBlocked); });
    reg.registerProbe(obsPrefix + ".retry.deadline_expired",
                      [this] { return double(statDeadlineExpired); });
    reg.registerProbe(obsPrefix + ".retry.attempts",
                      [this] { return double(statRetries); });
    reg.registerProbe(obsPrefix + ".retry.hedges",
                      [this] { return double(statHedges); });
    reg.registerProbe(obsPrefix + ".retry.hedge_wins",
                      [this] { return double(statHedgeWins); });
    reg.registerProbe(obsPrefix + ".retry.sw_fallbacks",
                      [this] { return double(statSwFallback); });
    reg.registerProbe(obsPrefix + ".retry.hedge_delay_us", [this] {
        return sim::toMicros(hedgeDelayNow());
    });
}

void
RankingServer::setRetryPolicy(serving::RequestPolicy p)
{
    serving::validateRequestPolicy(p);
    // An attempt ordinal fills 16 key bits; a stage issues at most
    // maxAttempts + 1 attempts (a hedge may overlap the last retry).
    if (p.maxAttempts >= kAttemptMask)
        sim::fatalf("RankingServer: maxAttempts must be < ", kAttemptMask,
                    " (got ", p.maxAttempts, ")");
    policy = p;
    hedgeCached = 0;
    hedgeCachedAt = 0;
}

void
RankingServer::attachCluster(serving::ClusterClient &cluster,
                             std::string tenant)
{
    accelerator = &cluster;
    defaultTenant = std::move(tenant);
    admitFn = [&cluster](const std::string &t) { return cluster.admit(t); };
    // The cluster routes every attempt itself, so a separate replica
    // picker would only bypass its outlier filtering.
    replicaPicker = nullptr;
    setRetryPolicy(cluster.requestPolicy());
}

bool
RankingServer::submitQuery(std::function<void(sim::TimePs)> done)
{
    return submitQuery(defaultTenant, std::move(done));
}

bool
RankingServer::submitQuery(const std::string &tenant,
                           std::function<void(sim::TimePs)> done)
{
    if (admitFn && !admitFn(tenant)) {
        ++statShed;
        return false;
    }
    ++activeQueries;
    obs::TraceContext ctx;
    if (obsHub && obsHub->flows.enabled())
        ctx = obsHub->flows.beginFlow(obsPrefix + ".query", queue.now());
    waiting.push_back(PendingQuery{queue.now(), std::move(done), ctx});
    tryDispatch();
    return true;
}

void
RankingServer::tryDispatch()
{
    while (freeCores > 0 && !waiting.empty()) {
        --freeCores;
        PendingQuery q = std::move(waiting.front());
        waiting.pop_front();
        runQuery(std::move(q));
    }
}

void
RankingServer::runQuery(PendingQuery q)
{
    const std::uint32_t slot = freeSlots.back();
    freeSlots.pop_back();
    Running &r = running[slot];
    r.query = std::move(q);
    const obs::TraceContext ctx = r.query.trace;
    const sim::TimePs now = queue.now();
    if (ctx.sampled && obsHub && now > r.query.arrivedAt) {
        // Time spent waiting for a free core.
        obsHub->flows.recordSpan(ctx, obsPrefix + ".queue",
                                 obs::Component::kQueueing,
                                 r.query.arrivedAt, now);
    }
    const auto pre = static_cast<sim::TimePs>(
        rng.lognormal(cpuPreDist.mu, cpuPreDist.sigma));
    r.post = static_cast<sim::TimePs>(
        rng.lognormal(cpuPostDist.mu, cpuPostDist.sigma));
    if (ctx.sampled && obsHub)
        obsHub->flows.recordSpan(ctx, obsPrefix + ".cpu_pre",
                                 obs::Component::kCompute, now, now + pre);

    if (accelerator == nullptr) {
        // Software mode: the feature stage runs on-core.
        ++statSwFeature;
        const auto features = static_cast<sim::TimePs>(
            rng.lognormal(swFeatureDist.mu, swFeatureDist.sigma));
        if (ctx.sampled && obsHub)
            obsHub->flows.recordSpan(ctx, obsPrefix + ".sw_features",
                                     obs::Component::kCompute, now + pre,
                                     now + pre + features);
        queue.scheduleAfter(pre + features, [this, slot] { runPost(slot); });
        return;
    }

    // Accelerated mode: the core blocks while the FPGA computes.
    r.docs = static_cast<std::uint32_t>(
        std::max(1.0, rng.lognormal(docsDist.mu, docsDist.sigma)));
    queue.scheduleAfter(pre, [this, slot] { enterAccel(slot); });
}

void
RankingServer::enterAccel(std::uint32_t slot)
{
    // From here until leaveAccel(), failPendingToSoftware() can rescue
    // the query if the accelerator dies while the query is inside, and
    // deadline/retry/hedge timers name it by key.
    Running &r = running[slot];
    r.inAccel = true;
    r.accelEntry = nextAccelEntry++;
    r.startedAt = queue.now();
    r.attempts = 0;
    r.hedgeAttempt = 0;
    ++accelBlocked;
    if (accelerator == nullptr) {
        // No accelerator lease at dispatch time (degraded mode):
        // complete the feature stage in software.
        ++statSwFallback;
        leaveAccel(r);
        softwareFeatureRerun(slot);
        return;
    }
    if (policy.hedge) {
        r.hedgeEvent = queue.scheduleAfter(
            hedgeDelayNow(),
            [this, key = stageKey(slot)] { onHedgeTimer(key); });
    }
    launchAttempt(slot, accelerator);
}

RankingServer::Key
RankingServer::stageKey(std::uint32_t slot, int attempt) const
{
    return std::uint64_t{running[slot].generation} << 32 |
           std::uint64_t{slot} << 16 | static_cast<std::uint64_t>(attempt);
}

bool
RankingServer::stale(Key key) const
{
    return running[slotOf(key)].generation !=
           static_cast<std::uint32_t>(key >> 32);
}

void
RankingServer::launchAttempt(std::uint32_t slot, FeatureAccelerator *target,
                             bool hedged)
{
    Running &r = running[slot];
    const int attempt = ++r.attempts;
    if (hedged)
        r.hedgeAttempt = attempt;
    if (policy.accelDeadline > 0) {
        // One deadline per stage, re-armed for the newest attempt. Armed
        // before compute(): a synchronous completion ends the stage (and
        // cancels this timer) before we return.
        if (r.deadlineEvent != sim::kNoEvent)
            queue.cancel(r.deadlineEvent);
        r.deadlineEvent = queue.scheduleAfter(
            policy.accelDeadline,
            [this, key = stageKey(slot)] { onDeadline(key); });
    }
    // computeTraced so a routed pool (ClusterClient) can annotate the
    // query's flow with the backend each attempt landed on.
    target->computeTraced(r.docs, r.query.trace,
                          [this, key = stageKey(slot, attempt)] {
                              onAttemptDone(key);
                          });
}

void
RankingServer::onAttemptDone(Key key)
{
    if (stale(key))
        return;  // late ack from a rescued query or a losing attempt
    const std::uint32_t slot = slotOf(key);
    Running &r = running[slot];
    leaveAccel(r);
    if (r.hedgeAttempt != 0 &&
        static_cast<int>(key & kAttemptMask) == r.hedgeAttempt)
        ++statHedgeWins;
    const sim::TimePs now = queue.now();
    accelLatencyUs.add(std::max(0.5, sim::toMicros(now - r.startedAt)));
    if (r.query.trace.sampled && obsHub) {
        // Wall time inside the accelerator(s), including retries and
        // any serial-pipeline backlog.
        obsHub->flows.recordSpan(r.query.trace, obsPrefix + ".accel",
                                 obs::Component::kCompute, r.startedAt, now);
    }
    runPost(slot);
}

void
RankingServer::onDeadline(Key key)
{
    if (stale(key))
        return;
    const std::uint32_t slot = slotOf(key);
    Running &r = running[slot];
    r.deadlineEvent = sim::kNoEvent;
    ++statDeadlineExpired;
    if (r.attempts >= policy.maxAttempts) {
        // Retry budget exhausted: give up on acceleration entirely.
        ++statSwFallback;
        leaveAccel(r);
        softwareFeatureRerun(slot);
        return;
    }
    ++statRetries;
    const int retry_no = r.attempts;  // 1-based count of prior attempts
    auto backoff = static_cast<double>(policy.backoffBase) *
                   std::ldexp(1.0, retry_no - 1);
    backoff *= 1.0 + policy.backoffJitter * (2.0 * rng.uniform() - 1.0);
    const auto delay = std::max<sim::TimePs>(
        1, static_cast<sim::TimePs>(backoff));
    r.backoffEvent = queue.scheduleAfter(
        delay, [this, key = stageKey(slot)] { onBackoff(key); });
}

void
RankingServer::onBackoff(Key key)
{
    if (stale(key))
        return;
    const std::uint32_t slot = slotOf(key);
    Running &r = running[slot];
    r.backoffEvent = sim::kNoEvent;
    FeatureAccelerator *target = replicaPicker ? replicaPicker() : nullptr;
    if (target == nullptr)
        target = accelerator;
    if (target == nullptr) {
        // No replica and no primary lease left.
        ++statSwFallback;
        leaveAccel(r);
        softwareFeatureRerun(slot);
        return;
    }
    launchAttempt(slot, target);
}

void
RankingServer::onHedgeTimer(Key key)
{
    if (stale(key))
        return;
    Running &r = running[slotOf(key)];
    r.hedgeEvent = sim::kNoEvent;
    if (r.attempts >= policy.maxAttempts)
        return;  // budget already spent on retries
    FeatureAccelerator *replica = replicaPicker ? replicaPicker() : nullptr;
    if (replica == nullptr)
        return;  // nowhere to hedge to
    ++statHedges;
    launchAttempt(slotOf(key), replica, /*hedged=*/true);
}

void
RankingServer::leaveAccel(Running &r)
{
    ++r.generation;
    r.inAccel = false;
    --accelBlocked;
    if (r.deadlineEvent != sim::kNoEvent) {
        queue.cancel(r.deadlineEvent);
        r.deadlineEvent = sim::kNoEvent;
    }
    if (r.hedgeEvent != sim::kNoEvent) {
        queue.cancel(r.hedgeEvent);
        r.hedgeEvent = sim::kNoEvent;
    }
    if (r.backoffEvent != sim::kNoEvent) {
        queue.cancel(r.backoffEvent);
        r.backoffEvent = sim::kNoEvent;
    }
}

void
RankingServer::softwareFeatureRerun(std::uint32_t slot)
{
    ++statSwFeature;
    const auto features = static_cast<sim::TimePs>(
        rng.lognormal(swFeatureDist.mu, swFeatureDist.sigma));
    const obs::TraceContext &ctx = running[slot].query.trace;
    if (ctx.sampled && obsHub)
        obsHub->flows.recordSpan(ctx, obsPrefix + ".sw_features",
                                 obs::Component::kCompute, queue.now(),
                                 queue.now() + features);
    queue.scheduleAfter(features, [this, slot] { runPost(slot); });
}

void
RankingServer::runPost(std::uint32_t slot)
{
    const Running &r = running[slot];
    if (r.query.trace.sampled && obsHub)
        obsHub->flows.recordSpan(r.query.trace, obsPrefix + ".cpu_post",
                                 obs::Component::kCompute, queue.now(),
                                 queue.now() + r.post);
    queue.scheduleAfter(r.post, [this, slot] { completeQuery(slot); });
}

void
RankingServer::completeQuery(std::uint32_t slot)
{
    // Free the slot and the core first: the done callback may submit a
    // query that is dispatched at once.
    const PendingQuery q = std::move(running[slot].query);
    freeSlots.push_back(slot);
    ++freeCores;
    finishQuery(q);
    tryDispatch();
}

sim::TimePs
RankingServer::hedgeDelayNow() const
{
    if (policy.hedgeDelay > 0)
        return policy.hedgeDelay;
    const std::uint64_t n = accelLatencyUs.count();
    if (n < 32)
        return policy.hedgeMinDelay;  // not enough signal yet
    if (hedgeCachedAt == 0 || n >= hedgeCachedAt + 64) {
        // Recompute the tail estimate only as samples accumulate; the
        // histogram percentile is cheap but not free per query.
        hedgeCached = static_cast<sim::TimePs>(
            accelLatencyUs.percentile(policy.hedgeQuantile) *
            sim::kMicrosecond);
        hedgeCachedAt = n;
    }
    return std::max(policy.hedgeMinDelay, hedgeCached);
}

std::uint64_t
RankingServer::failPendingToSoftware()
{
    // Rescue in order of entry into the accelerator stage, not slot
    // order: every rescue draws its software feature time from rng.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> blocked;
    for (std::uint32_t slot = 0; slot < running.size(); ++slot)
        if (running[slot].inAccel)
            blocked.emplace_back(running[slot].accelEntry, slot);
    std::sort(blocked.begin(), blocked.end());
    for (const auto &[entry, slot] : blocked) {
        leaveAccel(running[slot]);
        ++statSwFallback;
        softwareFeatureRerun(slot);
    }
    return blocked.size();
}

void
RankingServer::finishQuery(const PendingQuery &q)
{
    const sim::TimePs latency = queue.now() - q.arrivedAt;
    statLatency.add(sim::toMillis(latency));
    if (obsLatencyHist)
        obsLatencyHist->add(sim::toMillis(latency));
    if (obsHub && obsHub->trace.enabled())
        obsHub->trace.complete(obsTrack, "host", obsPrefix + ".query",
                               q.arrivedAt, latency);
    if (q.trace.sampled && obsHub)
        obsHub->flows.endFlow(q.trace, queue.now());
    ++statCompleted;
    --activeQueries;
    if (q.done)
        q.done(latency);
}

}  // namespace ccsim::host
