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
      freeCores(service_params.cores)
{
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
                      [this] { return double(accelOps.size()); });
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
    const obs::TraceContext ctx = q.trace;
    const sim::TimePs now = queue.now();
    if (ctx.sampled && obsHub && now > q.arrivedAt) {
        // Time spent waiting for a free core.
        obsHub->flows.recordSpan(ctx, obsPrefix + ".queue",
                                 obs::Component::kQueueing, q.arrivedAt,
                                 now);
    }
    const auto pre = static_cast<sim::TimePs>(rng.lognormalMeanCv(
        static_cast<double>(params.cpuPreMean), params.cpuCv));
    const auto post = static_cast<sim::TimePs>(rng.lognormalMeanCv(
        static_cast<double>(params.cpuPostMean), params.cpuCv));
    if (ctx.sampled && obsHub)
        obsHub->flows.recordSpan(ctx, obsPrefix + ".cpu_pre",
                                 obs::Component::kCompute, now, now + pre);

    auto run_post = [this, q = std::move(q), post]() mutable {
        if (q.trace.sampled && obsHub)
            obsHub->flows.recordSpan(q.trace, obsPrefix + ".cpu_post",
                                     obs::Component::kCompute, queue.now(),
                                     queue.now() + post);
        queue.scheduleAfter(post, [this, q = std::move(q)] {
            ++freeCores;
            finishQuery(q);
            tryDispatch();
        });
    };

    if (accelerator == nullptr) {
        // Software mode: the feature stage runs on-core.
        ++statSwFeature;
        const auto features = static_cast<sim::TimePs>(rng.lognormalMeanCv(
            static_cast<double>(params.swFeatureMean), params.swFeatureCv));
        if (ctx.sampled && obsHub)
            obsHub->flows.recordSpan(ctx, obsPrefix + ".sw_features",
                                     obs::Component::kCompute, now + pre,
                                     now + pre + features);
        queue.scheduleAfter(pre + features,
                            [rp = std::move(run_post)]() mutable { rp(); });
        return;
    }

    // Accelerated mode: the core blocks while the FPGA computes. The
    // continuation is parked under a token so failPendingToSoftware()
    // can rescue it if the accelerator dies while the query is inside,
    // and so deadline/retry/hedge timers can reference it.
    const auto docs = static_cast<std::uint32_t>(std::max(
        1.0, rng.lognormalMeanCv(params.docsPerQueryMean,
                                 params.docsPerQueryCv)));
    queue.scheduleAfter(pre, [this, docs, ctx,
                              rp = std::move(run_post)]() mutable {
        const std::uint64_t token = nextAccelToken++;
        AccelOp &op = accelOps[token];
        op.resume = std::move(rp);
        op.docs = docs;
        op.ctx = ctx;
        op.startedAt = queue.now();
        if (accelerator == nullptr) {
            // No accelerator lease at dispatch time (degraded mode):
            // complete the feature stage in software.
            ++statSwFallback;
            AccelOp detached = std::move(op);
            accelOps.erase(token);
            softwareFeatureRerun(std::move(detached));
            return;
        }
        if (policy.hedge) {
            op.hedgeEvent =
                queue.scheduleAfter(hedgeDelayNow(), [this, token] {
                    auto it = accelOps.find(token);
                    if (it == accelOps.end())
                        return;
                    it->second.hedgeEvent = sim::kNoEvent;
                    onHedgeTimer(token);
                });
        }
        launchAttempt(token, accelerator);
    });
}

void
RankingServer::launchAttempt(std::uint64_t token, FeatureAccelerator *target,
                             bool hedged)
{
    AccelOp &op = accelOps.at(token);
    ++op.attempts;
    const std::uint64_t attempt_id = nextAttemptId++;
    if (hedged)
        op.hedgeAttemptId = attempt_id;
    if (policy.accelDeadline > 0) {
        // One deadline per op, re-armed for the newest attempt. Armed
        // before compute(): a synchronous completion erases the op (and
        // cancels this timer) before we return.
        if (op.deadlineEvent != sim::kNoEvent)
            queue.cancel(op.deadlineEvent);
        op.deadlineEvent =
            queue.scheduleAfter(policy.accelDeadline, [this, token] {
                auto it = accelOps.find(token);
                if (it == accelOps.end())
                    return;
                it->second.deadlineEvent = sim::kNoEvent;
                onDeadline(token);
            });
    }
    const std::uint32_t docs = op.docs;
    // computeTraced so a routed pool (ClusterClient) can annotate the
    // query's flow with the backend each attempt landed on.
    target->computeTraced(docs, op.ctx, [this, token, attempt_id] {
        onAttemptDone(token, attempt_id);
    });
}

void
RankingServer::onAttemptDone(std::uint64_t token, std::uint64_t attempt_id)
{
    auto it = accelOps.find(token);
    if (it == accelOps.end())
        return;  // late ack from a rescued query or a losing attempt
    AccelOp op = std::move(it->second);
    accelOps.erase(it);
    cancelOpTimers(op);
    if (op.hedgeAttemptId != 0 && attempt_id == op.hedgeAttemptId)
        ++statHedgeWins;
    const sim::TimePs now = queue.now();
    accelLatencyUs.add(std::max(0.5, sim::toMicros(now - op.startedAt)));
    if (op.ctx.sampled && obsHub) {
        // Wall time inside the accelerator(s), including retries and
        // any serial-pipeline backlog.
        obsHub->flows.recordSpan(op.ctx, obsPrefix + ".accel",
                                 obs::Component::kCompute, op.startedAt,
                                 now);
    }
    op.resume();
}

void
RankingServer::onDeadline(std::uint64_t token)
{
    AccelOp &op = accelOps.at(token);
    ++statDeadlineExpired;
    if (op.attempts >= policy.maxAttempts) {
        // Retry budget exhausted: give up on acceleration entirely.
        ++statSwFallback;
        AccelOp detached = std::move(op);
        accelOps.erase(token);
        cancelOpTimers(detached);
        softwareFeatureRerun(std::move(detached));
        return;
    }
    ++statRetries;
    const int retry_no = op.attempts;  // 1-based count of prior attempts
    auto backoff = static_cast<double>(policy.backoffBase) *
                   std::ldexp(1.0, retry_no - 1);
    backoff *= 1.0 + policy.backoffJitter * (2.0 * rng.uniform() - 1.0);
    const auto delay = std::max<sim::TimePs>(
        1, static_cast<sim::TimePs>(backoff));
    op.backoffEvent = queue.scheduleAfter(delay, [this, token] {
        auto it = accelOps.find(token);
        if (it == accelOps.end())
            return;
        it->second.backoffEvent = sim::kNoEvent;
        FeatureAccelerator *target =
            replicaPicker ? replicaPicker() : nullptr;
        if (target == nullptr)
            target = accelerator;
        if (target == nullptr) {
            // No replica and no primary lease left.
            ++statSwFallback;
            AccelOp detached = std::move(it->second);
            accelOps.erase(it);
            cancelOpTimers(detached);
            softwareFeatureRerun(std::move(detached));
            return;
        }
        launchAttempt(token, target);
    });
}

void
RankingServer::onHedgeTimer(std::uint64_t token)
{
    AccelOp &op = accelOps.at(token);
    if (op.attempts >= policy.maxAttempts)
        return;  // budget already spent on retries
    FeatureAccelerator *replica = replicaPicker ? replicaPicker() : nullptr;
    if (replica == nullptr)
        return;  // nowhere to hedge to
    ++statHedges;
    launchAttempt(token, replica, /*hedged=*/true);
}

void
RankingServer::softwareFeatureRerun(AccelOp op)
{
    ++statSwFeature;
    const auto features = static_cast<sim::TimePs>(rng.lognormalMeanCv(
        static_cast<double>(params.swFeatureMean), params.swFeatureCv));
    if (op.ctx.sampled && obsHub)
        obsHub->flows.recordSpan(op.ctx, obsPrefix + ".sw_features",
                                 obs::Component::kCompute, queue.now(),
                                 queue.now() + features);
    queue.scheduleAfter(features,
                        [r = std::move(op.resume)]() mutable { r(); });
}

void
RankingServer::cancelOpTimers(AccelOp &op)
{
    if (op.deadlineEvent != sim::kNoEvent) {
        queue.cancel(op.deadlineEvent);
        op.deadlineEvent = sim::kNoEvent;
    }
    if (op.hedgeEvent != sim::kNoEvent) {
        queue.cancel(op.hedgeEvent);
        op.hedgeEvent = sim::kNoEvent;
    }
    if (op.backoffEvent != sim::kNoEvent) {
        queue.cancel(op.backoffEvent);
        op.backoffEvent = sim::kNoEvent;
    }
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
    auto pending = std::move(accelOps);
    accelOps.clear();
    std::uint64_t rescued = 0;
    for (auto &[token, op] : pending) {
        cancelOpTimers(op);
        ++statSwFallback;
        ++rescued;
        softwareFeatureRerun(std::move(op));
    }
    return rescued;
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
