/**
 * @file
 * Queueing model of one web-search ranking server (Section III-A).
 *
 * A query's service decomposes into a non-offloadable software stage
 * (query understanding, candidate selection, model evaluation — the paper
 * keeps post-processed synthetic features and the ML model in software)
 * and the expensive feature-computation stage (FFU + DPF), which may run
 * in software, on the local FPGA, or on a remote FPGA over LTL.
 *
 * The server is a G/G/k system: k cores serve queries FIFO; a query holds
 * its core through the feature stage (the software thread blocks on the
 * accelerator), which is why offload raises throughput by the ratio of
 * total to non-offloadable CPU time — the paper's 2.25x at the target
 * 99th-percentile latency.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "host/feature_accelerator.hpp"
#include "obs/metrics.hpp"
#include "serving/request_policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace ccsim::serving {
class ClusterClient;
}  // namespace ccsim::serving

namespace ccsim::host {

/** Tunable service-time parameters (calibrated in DESIGN.md section 4). */
struct RankingServiceParams {
    /** Cores per server, at most 65,536 (a query key has 16 slot bits). */
    int cores = 12;
    /** Mean CPU time before the feature stage (always on-core). */
    sim::TimePs cpuPreMean = 930 * sim::kMicrosecond;
    /** Mean CPU time after the feature stage (always on-core). */
    sim::TimePs cpuPostMean = 620 * sim::kMicrosecond;
    /** CV of the lognormal CPU stage times. */
    double cpuCv = 0.30;
    /** Mean software feature-stage time (the offloadable 57%). */
    sim::TimePs swFeatureMean = 2050 * sim::kMicrosecond;
    double swFeatureCv = 0.45;
    /** Candidate documents per query (drives accelerator occupancy). */
    std::uint32_t docsPerQueryMean = 200;
    double docsPerQueryCv = 0.4;
};

/**
 * A pipelined feature accelerator attached by PCIe: requests are accepted
 * one after another at the engine's initiation interval; results return
 * after the fill latency. Models the local-FPGA FFU+DPF datapath.
 */
struct LocalFpgaParams {
    /** Engine occupancy per candidate document. */
    sim::TimePs occupancyPerDoc = 300 * sim::kNanosecond;
    /** Fixed compute + DMA round-trip latency per query. */
    sim::TimePs fixedLatency = 60 * sim::kMicrosecond;
};

class LocalFpgaAccelerator : public FeatureAccelerator
{
  public:
    explicit LocalFpgaAccelerator(sim::EventQueue &eq,
                                  LocalFpgaParams p = {})
        : queue(eq), params(p)
    {
    }

    void compute(std::uint32_t doc_count, std::function<void()> done) override;

    /** Fraction of wall-clock the engine datapath was occupied. */
    double utilization(sim::TimePs elapsed) const
    {
        return elapsed > 0
                   ? static_cast<double>(busyAccum) / elapsed
                   : 0.0;
    }

    std::uint64_t requests() const { return statRequests; }

  private:
    sim::EventQueue &queue;
    LocalFpgaParams params;
    sim::TimePs busyUntil = 0;
    sim::TimePs busyAccum = 0;
    std::uint64_t statRequests = 0;
};

/** One ranking server. */
class RankingServer
{
  public:
    /**
     * @param accel Feature accelerator, or nullptr for software mode
     *              (features computed on-core).
     */
    RankingServer(sim::EventQueue &eq, RankingServiceParams params,
                  FeatureAccelerator *accel, std::uint64_t seed = 99);

    /**
     * Submit one query; @p done receives the total sojourn time
     * (arrival to completion).
     *
     * @return false when the admission gate sheds the query: it never
     *         enters the server (no queue slot, no core, @p done never
     *         runs) and the front-end should answer degraded. Always
     *         true when no admission gate is installed.
     */
    bool submitQuery(std::function<void(sim::TimePs latency)> done = {});

    /** submitQuery() with a tenant tag for per-tenant admission. */
    bool submitQuery(const std::string &tenant,
                     std::function<void(sim::TimePs latency)> done);

    /**
     * Install an admission gate consulted at submission, before any
     * queueing (e.g. `[&cc](const std::string &t) { return cc.admit(t); }`).
     * Pass nullptr to remove. Shed queries count in shedQueries().
     */
    void setAdmission(std::function<bool(const std::string &tenant)> fn)
    {
        admitFn = std::move(fn);
    }

    /**
     * Point this server at a serving cluster: the cluster becomes the
     * feature accelerator (routing per attempt) and the admission gate
     * (tagged @p tenant), the cluster's RequestPolicy is installed, and
     * the replica picker is cleared — retries and hedges route through
     * the cluster, which picks a (possibly different) backend per call.
     */
    void attachCluster(serving::ClusterClient &cluster,
                       std::string tenant = {});

    /**
     * Swap the feature accelerator at runtime (nullptr = software mode).
     * Affects queries dispatched from now on; queries already blocked in
     * the old accelerator keep waiting for it — combine with
     * failPendingToSoftware() when the old accelerator is dead.
     *
     * This is the graceful-degradation path: when an FPGA fails, the
     * service drops to software-mode latency while HaaS replaces the
     * lease, then is re-pointed at the spare.
     */
    void setAccelerator(FeatureAccelerator *accel) { accelerator = accel; }

    /** The currently attached accelerator (nullptr = software mode). */
    FeatureAccelerator *currentAccelerator() const { return accelerator; }

    /**
     * Rescue every query currently blocked in the accelerator: their
     * feature stage is re-run on-core at software-mode cost, as if the
     * thread's offload call timed out and fell back. Late completions
     * from the abandoned accelerator are ignored. Any armed deadline,
     * backoff or hedge timers are cancelled.
     *
     * @return The number of rescued queries.
     */
    std::uint64_t failPendingToSoftware();

    /**
     * Install a failure-handling policy for accelerated feature stages
     * (deadlines, bounded retry, hedging). Applies to queries dispatched
     * from now on. maxAttempts must stay below 65,535 (a query key has
     * 16 attempt bits).
     */
    void setRetryPolicy(serving::RequestPolicy p);

    const serving::RequestPolicy &retryPolicy() const { return policy; }

    /**
     * Supplier of an alternate healthy accelerator for retries and
     * hedged requests (typically another instance of the same HaaS
     * service). May return nullptr when no replica is available; then
     * retries go back to the primary and hedges are skipped.
     */
    void setReplicaPicker(std::function<FeatureAccelerator *()> fn)
    {
        replicaPicker = std::move(fn);
    }

    /**
     * The hedge delay a query dispatched now would use: the fixed
     * policy delay, or the adaptive estimate from observed accelerator
     * latency (recomputed lazily as samples accumulate).
     */
    sim::TimePs currentHedgeDelay() const { return hedgeDelayNow(); }

    /** Queries whose feature stage ran in software (incl. rescues). */
    std::uint64_t softwareFeatureQueries() const { return statSwFeature; }

    /** Queries refused by the admission gate at submission. */
    std::uint64_t shedQueries() const { return statShed; }

    /** Accelerator attempts that outlived their per-attempt deadline. */
    std::uint64_t deadlinesExpired() const { return statDeadlineExpired; }
    /** Retry attempts issued after a deadline expiry. */
    std::uint64_t retriesIssued() const { return statRetries; }
    /** Hedged duplicate requests issued. */
    std::uint64_t hedgesIssued() const { return statHedges; }
    /** Queries completed by the hedged duplicate, not the primary. */
    std::uint64_t hedgeWins() const { return statHedgeWins; }
    /**
     * Queries that started toward an accelerator but finished their
     * feature stage in software (retry exhaustion, no replacement
     * accelerator, or a failPendingToSoftware rescue).
     */
    std::uint64_t softwareFallbacks() const { return statSwFallback; }

    /** Latencies of completed queries, milliseconds. */
    const sim::SampleStats &latencyMs() const { return statLatency; }

    std::uint64_t completed() const { return statCompleted; }
    std::uint64_t inFlight() const { return activeQueries; }
    /** Queries waiting for a core. */
    std::size_t queueDepth() const { return waiting.size(); }

    /** Drop latency samples (between sweep points). */
    void clearStats()
    {
        statLatency.clear();
        if (obsLatencyHist)
            obsLatencyHist->clear();
    }

    /**
     * Export request-lifecycle statistics under `host.<node>.*`: a
     * registry histogram `host.<node>.latency_ms` (cleared together with
     * clearStats()), probes for completion/occupancy counts, and one
     * trace span per completed query. Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o,
                             const std::string &node = "rank");

  private:
    struct PendingQuery {
        sim::TimePs arrivedAt;
        std::function<void(sim::TimePs)> done;
        obs::TraceContext trace;
    };

    /**
     * One dispatched query, from taking a core to completion. The slot
     * outlives every event that names it without a generation: the
     * pre-stage, software feature and post-stage events.
     */
    struct Running {
        PendingQuery query;
        sim::TimePs post = 0;  ///< drawn CPU time after the feature stage
        std::uint32_t docs = 0;
        /**
         * Bumped whenever the query leaves the accelerator stage, so a
         * late or losing completion, and a timer that was not
         * cancelled, find their key stale.
         */
        std::uint32_t generation = 0;
        /** Accelerator-stage state; valid while inAccel. */
        bool inAccel = false;
        /** Order of entry into the accelerator stage. */
        std::uint64_t accelEntry = 0;
        sim::TimePs startedAt = 0;
        int attempts = 0;
        /** Ordinal of the hedged duplicate attempt (0 = none issued). */
        int hedgeAttempt = 0;
        sim::EventId deadlineEvent = sim::kNoEvent;
        sim::EventId hedgeEvent = sim::kNoEvent;
        sim::EventId backoffEvent = sim::kNoEvent;
    };

    /**
     * What an accelerator completion or stage timer captures besides
     * `this`: generation (bits 63..32), slot (31..16) and attempt
     * ordinal (15..0), so every such closure is 16 B and fits inline in
     * both sim::EventFn and std::function.
     */
    using Key = std::uint64_t;
    static constexpr int kSlotMask = 0xFFFF;
    static constexpr int kAttemptMask = 0xFFFF;
    static constexpr int kMaxCores = kSlotMask + 1;

    sim::EventQueue &queue;
    RankingServiceParams params;
    FeatureAccelerator *accelerator;
    sim::Rng rng;
    /** Service-time distributions, drawn from with rng.lognormal(). */
    sim::LognormalParams cpuPreDist, cpuPostDist, swFeatureDist, docsDist;
    int freeCores;
    sim::Fifo<PendingQuery> waiting;
    /** One slot per core: a query holds its core until completion. */
    std::vector<Running> running;
    std::vector<std::uint32_t> freeSlots;
    obs::Observability *obsHub = nullptr;
    std::string obsPrefix;  ///< "host.<node>"
    sim::LogHistogram *obsLatencyHist = nullptr;
    int obsTrack = 0;
    sim::SampleStats statLatency;
    std::uint64_t statCompleted = 0;
    std::uint64_t activeQueries = 0;
    std::uint64_t statSwFeature = 0;
    std::uint64_t statShed = 0;
    std::function<bool(const std::string &)> admitFn;
    /** Tenant tag stamped on untagged submissions (set by attachCluster). */
    std::string defaultTenant;
    serving::RequestPolicy policy;
    std::function<FeatureAccelerator *()> replicaPicker;
    /** Queries inside the accelerator stage. */
    std::uint64_t accelBlocked = 0;
    std::uint64_t nextAccelEntry = 0;
    /** Observed accelerator latency, for the adaptive hedge delay. */
    sim::LogHistogram accelLatencyUs{0.5, 8};
    mutable sim::TimePs hedgeCached = 0;
    mutable std::uint64_t hedgeCachedAt = 0;
    std::uint64_t statDeadlineExpired = 0;
    std::uint64_t statRetries = 0;
    std::uint64_t statHedges = 0;
    std::uint64_t statHedgeWins = 0;
    std::uint64_t statSwFallback = 0;

    void tryDispatch();
    void runQuery(PendingQuery q);
    /** The pre-feature CPU stage is over: enter the accelerator stage. */
    void enterAccel(std::uint32_t slot);
    /**
     * Issue one accelerator attempt (the hedge flag marks it as the
     * hedged duplicate for win accounting). The target's compute() may
     * complete synchronously, ending the stage before this returns.
     */
    void launchAttempt(std::uint32_t slot, FeatureAccelerator *target,
                       bool hedged = false);
    /** A key for @p slot's current accelerator stage. */
    Key stageKey(std::uint32_t slot, int attempt = 0) const;
    static std::uint32_t slotOf(Key key)
    {
        return static_cast<std::uint32_t>(key >> 16) & kSlotMask;
    }
    /** Whether @p key's query has left the stage it was minted in. */
    bool stale(Key key) const;
    void onAttemptDone(Key key);
    void onDeadline(Key key);
    void onBackoff(Key key);
    void onHedgeTimer(Key key);
    /** End the accelerator stage: stale its keys, cancel its timers. */
    void leaveAccel(Running &r);
    /** Re-run the feature stage on-core. */
    void softwareFeatureRerun(std::uint32_t slot);
    void runPost(std::uint32_t slot);
    void completeQuery(std::uint32_t slot);
    void finishQuery(const PendingQuery &q);
    sim::TimePs hedgeDelayNow() const;
};

}  // namespace ccsim::host
