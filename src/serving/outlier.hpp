/**
 * @file
 * Passive outlier detection: ejects misbehaving instances from the
 * routable set on evidence the data plane already produces.
 *
 * The HealthMonitor (PR 5) catches *dark* nodes: a dead board misses
 * heartbeats and times out LTL frames. It is blind to *grey* failures —
 * a board that still answers the management path and still ACKs frames,
 * but serves requests an order of magnitude slower (clock-throttled
 * shell, thermal brown-out, a role stuck in a degraded state). The
 * serving layer sees those directly: every routed request reports back
 * success latency or an error. Two signals drive ejection:
 *
 *  - **consecutive errors** — N routed requests in a row failed (the
 *    caller's per-attempt response deadline expired, or the endpoint
 *    reported failure);
 *  - **latency percentile** — the host's recent pXX exceeds
 *    latencyFactor x the cluster-wide pXX (computed over a sliding
 *    window of per-host samples, so a long healthy history cannot mask
 *    a fresh degradation).
 *
 * Ejection is temporary (baseEjectionTime, doubling per repeat, capped)
 * and bounded (never below maxEjectedFraction of the set, so a
 * cluster-wide slowdown cannot eject everything). Each ejection feeds
 * the HealthMonitor's evidence score through the evidence sink — the
 * monitor stays the single place failure evidence accumulates, and its
 * per-source idempotence keeps repeated ejections from double-counting.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ccsim::serving {

/** Outlier-ejection tuning. */
struct EjectionConfig {
    /** Consecutive routed-request errors before ejection; 0 disables. */
    int consecutiveErrors = 5;
    /**
     * Per-request response deadline counted as an error by the caller
     * (ClusterClient); 0 disables the timeout signal.
     */
    sim::TimePs attemptTimeout = 0;
    /** First ejection duration; doubles per repeat ejection of a host. */
    sim::TimePs baseEjectionTime = 30 * sim::kMillisecond;
    /** Cap on the ejection-time doubling (base * 2^(mult-1) max). */
    int maxEjectionMultiplier = 6;
    /**
     * Latency signal: eject when the host's windowed percentile exceeds
     * latencyFactor x the cluster percentile; 0 disables.
     */
    double latencyFactor = 3.0;
    /**
     * Percentile compared on both sides (50 = median). Of n sorted
     * samples the pXX is element floor(max(0, p*n/100 - 1)), clamped to
     * n - 1. That is one rank below nearest-rank whenever p*n/100 is not
     * an integer: p99 of a 32-sample window reads the 31st smallest
     * sample, not the largest.
     */
    double latencyPercentile = 50.0;
    /** Per-host success samples needed before the latency signal fires. */
    int minLatencySamples = 32;
    /** Sliding window of per-host latency samples kept (power of two). */
    int latencyWindow = 128;
    /** Never eject past this fraction of the tracked set (>= 1 host
     * always survives). */
    double maxEjectedFraction = 0.5;
    /** Suspicion weight fed to the evidence sink per ejection. */
    double evidenceWeight = 1.0;
};

/** Fatal on any out-of-range field. */
void validateEjectionConfig(const EjectionConfig &cfg);

/** Why a host was ejected (stats + logs). */
enum class EjectionReason : std::uint8_t {
    kConsecutiveErrors,
    kLatencyPercentile,
};

/**
 * The passive detector. One instance per ClusterClient; fed by the
 * routing path, read on every route() to filter the candidate set.
 */
class OutlierDetector
{
  public:
    /** Evidence feed toward the health layer: (host, suspicion weight). */
    using EvidenceFn = std::function<void(int host, double weight)>;

    OutlierDetector(sim::EventQueue &eq, EjectionConfig cfg);

    /** Install the evidence sink (e.g. HealthMonitor::reportEvidence). */
    void setEvidenceSink(EvidenceFn fn) { evidence = std::move(fn); }

    /**
     * Reconcile the tracked set with the current instance set: new hosts
     * start clean, departed hosts (lease lost) drop all state and their
     * samples leave the cluster reference.
     */
    void trackHosts(const std::vector<int> &hosts);

    /** A routed request to @p host completed OK in @p latency. */
    void recordSuccess(int host, sim::TimePs latency);

    /** A routed request to @p host failed (timeout or endpoint error). */
    void recordError(int host);

    /** True while @p host is ejected (expiry is evaluated lazily). */
    bool ejected(int host) const;

    /** Tracked hosts currently ejected. */
    int ejectedCount() const;

    /** When @p host was last ejected (-1 = never). */
    sim::TimePs lastEjectedAt(int host) const;

    std::uint64_t ejections() const { return statEjections; }
    std::uint64_t ejectionsByErrors() const { return statByErrors; }
    std::uint64_t ejectionsByLatency() const { return statByLatency; }
    /** Ejections suppressed by the maxEjectedFraction guard. */
    std::uint64_t ejectionsSuppressed() const { return statSuppressed; }
    std::uint64_t errorsRecorded() const { return statErrors; }

    const EjectionConfig &config() const { return cfg; }

    /**
     * Export detector statistics under `<prefix>.*`: ejection counters
     * plus the live ejected-host count. Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o,
                             const std::string &prefix);

  private:
    struct HostState {
        int host = 0;
        int consecutiveErrors = 0;
        /** Sliding window of success latencies (ring buffer). */
        std::vector<sim::TimePs> window;
        /** The same samples, ascending: the host pXX is one index read. */
        std::vector<sim::TimePs> sorted;
        std::size_t windowNext = 0;
        /** Ejected until this instant (0 = not ejected). */
        sim::TimePs ejectedUntil = 0;
        sim::TimePs lastEjection = -1;
        /** Repeat-ejection count, drives the duration multiplier. */
        int ejectionCount = 0;
        /** Successes since the last latency evaluation. */
        int sinceEval = 0;
    };

    sim::EventQueue &queue;
    EjectionConfig cfg;
    EvidenceFn evidence;
    /** Tracked hosts, ascending by host index. */
    std::vector<HostState> hostsState;
    /** One window's live range while clusterPercentile() selects. */
    struct RankRange {
        const sim::TimePs *lo;
        const sim::TimePs *hi;
        const sim::TimePs *below;  ///< first sample >= the pivot
        const sim::TimePs *upTo;   ///< first sample > the pivot
    };
    /** clusterPercentile()'s ranges, kept so a warm evaluation does not
     * allocate. */
    mutable std::vector<RankRange> rankRanges;
    std::uint64_t statEjections = 0;
    std::uint64_t statByErrors = 0;
    std::uint64_t statByLatency = 0;
    std::uint64_t statSuppressed = 0;
    std::uint64_t statErrors = 0;

    HostState *find(int host);
    const HostState *find(int host) const;
    /** Clear @p hs's window. */
    void dropSamples(HostState &hs);
    void eject(HostState &hs, EjectionReason reason);
    bool latencyOutlier(const HostState &hs) const;
    /** The cluster reference pXX across every tracked host's window. */
    sim::TimePs clusterPercentile() const;
};

}  // namespace ccsim::serving
