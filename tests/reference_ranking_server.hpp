/**
 * @file
 * The original map-and-closure host::RankingServer, kept as the slot
 * table server's behavioural oracle. Every accelerated query parks its
 * post-feature continuation as a heap `std::function` in a
 * `std::map<token, AccelOp>`, and a global attempt id tells a winning
 * accelerator completion from late losers (the allocations the slot
 * table removes). The contract both servers share is that identical
 * submissions, accelerator behaviour, policy changes and rescues at
 * identical simulated times give identical completions (time and
 * latency), RNG draws, counters and `host.<node>.*` probes.
 *
 * Only what the differential test drives is kept: no attachCluster().
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "host/feature_accelerator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "serving/request_policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace ccsim::host {

class ReferenceRankingServer
{
  public:
    ReferenceRankingServer(sim::EventQueue &eq,
                           RankingServiceParams service_params,
                           FeatureAccelerator *accel, std::uint64_t seed)
        : queue(eq), params(service_params), accelerator(accel), rng(seed),
          freeCores(service_params.cores)
    {
    }

    bool submitQuery(std::function<void(sim::TimePs)> done = {})
    {
        return submitQuery(std::string{}, std::move(done));
    }

    bool submitQuery(const std::string &tenant,
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

    void setAdmission(std::function<bool(const std::string &)> fn)
    {
        admitFn = std::move(fn);
    }
    void setAccelerator(FeatureAccelerator *accel) { accelerator = accel; }

    std::uint64_t failPendingToSoftware()
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

    void setRetryPolicy(serving::RequestPolicy p)
    {
        serving::validateRequestPolicy(p);
        policy = p;
        hedgeCached = 0;
        hedgeCachedAt = 0;
    }
    void setReplicaPicker(std::function<FeatureAccelerator *()> fn)
    {
        replicaPicker = std::move(fn);
    }

    sim::TimePs currentHedgeDelay() const { return hedgeDelayNow(); }
    std::uint64_t softwareFeatureQueries() const { return statSwFeature; }
    std::uint64_t shedQueries() const { return statShed; }
    std::uint64_t deadlinesExpired() const { return statDeadlineExpired; }
    std::uint64_t retriesIssued() const { return statRetries; }
    std::uint64_t hedgesIssued() const { return statHedges; }
    std::uint64_t hedgeWins() const { return statHedgeWins; }
    std::uint64_t softwareFallbacks() const { return statSwFallback; }
    const sim::SampleStats &latencyMs() const { return statLatency; }
    std::uint64_t completed() const { return statCompleted; }
    std::uint64_t inFlight() const { return activeQueries; }
    std::size_t queueDepth() const { return waiting.size(); }

    void attachObservability(obs::Observability *o,
                             const std::string &node = "rank")
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

  private:
    struct PendingQuery {
        sim::TimePs arrivedAt;
        std::function<void(sim::TimePs)> done;
        obs::TraceContext trace;
    };

    struct AccelOp {
        std::function<void()> resume;
        std::uint32_t docs = 0;
        obs::TraceContext ctx;
        sim::TimePs startedAt = 0;
        int attempts = 0;
        std::uint64_t hedgeAttemptId = 0;
        sim::EventId deadlineEvent = sim::kNoEvent;
        sim::EventId hedgeEvent = sim::kNoEvent;
        sim::EventId backoffEvent = sim::kNoEvent;
    };

    sim::EventQueue &queue;
    RankingServiceParams params;
    FeatureAccelerator *accelerator;
    sim::Rng rng;
    int freeCores;
    sim::Fifo<PendingQuery> waiting;
    obs::Observability *obsHub = nullptr;
    std::string obsPrefix;
    sim::LogHistogram *obsLatencyHist = nullptr;
    int obsTrack = 0;
    sim::SampleStats statLatency;
    std::uint64_t statCompleted = 0;
    std::uint64_t activeQueries = 0;
    std::uint64_t statSwFeature = 0;
    std::uint64_t statShed = 0;
    std::function<bool(const std::string &)> admitFn;
    serving::RequestPolicy policy;
    std::function<FeatureAccelerator *()> replicaPicker;
    std::map<std::uint64_t, AccelOp> accelOps;
    std::uint64_t nextAccelToken = 1;
    std::uint64_t nextAttemptId = 1;
    sim::LogHistogram accelLatencyUs{0.5, 8};
    mutable sim::TimePs hedgeCached = 0;
    mutable std::uint64_t hedgeCachedAt = 0;
    std::uint64_t statDeadlineExpired = 0;
    std::uint64_t statRetries = 0;
    std::uint64_t statHedges = 0;
    std::uint64_t statHedgeWins = 0;
    std::uint64_t statSwFallback = 0;

    void tryDispatch()
    {
        while (freeCores > 0 && !waiting.empty()) {
            --freeCores;
            PendingQuery q = std::move(waiting.front());
            waiting.pop_front();
            runQuery(std::move(q));
        }
    }

    void runQuery(PendingQuery q)
    {
        const obs::TraceContext ctx = q.trace;
        const sim::TimePs now = queue.now();
        if (ctx.sampled && obsHub && now > q.arrivedAt)
            obsHub->flows.recordSpan(ctx, obsPrefix + ".queue",
                                     obs::Component::kQueueing, q.arrivedAt,
                                     now);
        const auto pre = static_cast<sim::TimePs>(rng.lognormalMeanCv(
            static_cast<double>(params.cpuPreMean), params.cpuCv));
        const auto post = static_cast<sim::TimePs>(rng.lognormalMeanCv(
            static_cast<double>(params.cpuPostMean), params.cpuCv));
        if (ctx.sampled && obsHub)
            obsHub->flows.recordSpan(ctx, obsPrefix + ".cpu_pre",
                                     obs::Component::kCompute, now,
                                     now + pre);

        auto run_post = [this, q = std::move(q), post]() mutable {
            if (q.trace.sampled && obsHub)
                obsHub->flows.recordSpan(q.trace, obsPrefix + ".cpu_post",
                                         obs::Component::kCompute,
                                         queue.now(), queue.now() + post);
            queue.scheduleAfter(post, [this, q = std::move(q)] {
                ++freeCores;
                finishQuery(q);
                tryDispatch();
            });
        };

        if (accelerator == nullptr) {
            ++statSwFeature;
            const auto features =
                static_cast<sim::TimePs>(rng.lognormalMeanCv(
                    static_cast<double>(params.swFeatureMean),
                    params.swFeatureCv));
            if (ctx.sampled && obsHub)
                obsHub->flows.recordSpan(ctx, obsPrefix + ".sw_features",
                                         obs::Component::kCompute, now + pre,
                                         now + pre + features);
            queue.scheduleAfter(pre + features,
                                [rp = std::move(run_post)]() mutable {
                                    rp();
                                });
            return;
        }

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

    void finishQuery(const PendingQuery &q)
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

    void launchAttempt(std::uint64_t token, FeatureAccelerator *target,
                       bool hedged = false)
    {
        AccelOp &op = accelOps.at(token);
        ++op.attempts;
        const std::uint64_t attempt_id = nextAttemptId++;
        if (hedged)
            op.hedgeAttemptId = attempt_id;
        if (policy.accelDeadline > 0) {
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
        target->computeTraced(docs, op.ctx, [this, token, attempt_id] {
            onAttemptDone(token, attempt_id);
        });
    }

    void onAttemptDone(std::uint64_t token, std::uint64_t attempt_id)
    {
        auto it = accelOps.find(token);
        if (it == accelOps.end())
            return;
        AccelOp op = std::move(it->second);
        accelOps.erase(it);
        cancelOpTimers(op);
        if (op.hedgeAttemptId != 0 && attempt_id == op.hedgeAttemptId)
            ++statHedgeWins;
        const sim::TimePs now = queue.now();
        accelLatencyUs.add(std::max(0.5, sim::toMicros(now - op.startedAt)));
        if (op.ctx.sampled && obsHub)
            obsHub->flows.recordSpan(op.ctx, obsPrefix + ".accel",
                                     obs::Component::kCompute, op.startedAt,
                                     now);
        op.resume();
    }

    void onDeadline(std::uint64_t token)
    {
        AccelOp &op = accelOps.at(token);
        ++statDeadlineExpired;
        if (op.attempts >= policy.maxAttempts) {
            ++statSwFallback;
            AccelOp detached = std::move(op);
            accelOps.erase(token);
            cancelOpTimers(detached);
            softwareFeatureRerun(std::move(detached));
            return;
        }
        ++statRetries;
        const int retry_no = op.attempts;
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

    void onHedgeTimer(std::uint64_t token)
    {
        AccelOp &op = accelOps.at(token);
        if (op.attempts >= policy.maxAttempts)
            return;
        FeatureAccelerator *replica =
            replicaPicker ? replicaPicker() : nullptr;
        if (replica == nullptr)
            return;
        ++statHedges;
        launchAttempt(token, replica, /*hedged=*/true);
    }

    void softwareFeatureRerun(AccelOp op)
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

    void cancelOpTimers(AccelOp &op)
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

    sim::TimePs hedgeDelayNow() const
    {
        if (policy.hedgeDelay > 0)
            return policy.hedgeDelay;
        const std::uint64_t n = accelLatencyUs.count();
        if (n < 32)
            return policy.hedgeMinDelay;
        if (hedgeCachedAt == 0 || n >= hedgeCachedAt + 64) {
            hedgeCached = static_cast<sim::TimePs>(
                accelLatencyUs.percentile(policy.hedgeQuantile) *
                sim::kMicrosecond);
            hedgeCachedAt = n;
        }
        return std::max(policy.hedgeMinDelay, hedgeCached);
    }
};

}  // namespace ccsim::host
