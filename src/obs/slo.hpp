/**
 * @file
 * Declarative SLOs with multi-window burn-rate alerting.
 *
 * An objective names a windowed statistic of a TimeSeriesHub series
 * (`ranking.latency_ms p99 < 9ms`, `ltl.retransmits rate < 1e3/s`) and
 * an **error budget**: the fraction of windows allowed to violate it.
 * Each closed base window is classified good/bad per matching series;
 * the burn rate is the observed bad-window fraction divided by the
 * budget, evaluated over a long and a short trailing window (the
 * SRE-workbook construction: the long window gives significance, the
 * short window fast reset). An alert fires when **both** burn rates
 * reach the threshold and resolves when the short one recovers.
 *
 * Alerts are deterministic simulated-time events: they fire at window
 * closes driven by the hub (barrier hooks on the parallel kernel), are
 * recorded on an inspectable timeline, exported as `alert` JSONL lines,
 * counted under `slo.*` metrics, and — through the evidence sink — file
 * named-source evidence into the PR 5 HealthMonitor (wire
 * `HealthMonitor::evidenceSink()`), so a burning SLO can drive failover
 * *before* the heartbeat detector's worst-case bound.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"
#include "sim/time.hpp"

namespace ccsim::obs {

/** Which TsPoint field an objective tests. */
enum class SloStat : std::uint8_t {
    kValue,  ///< cumulative value / gauge level
    kDelta,  ///< increase over the window
    kRate,   ///< delta per simulated second
    kCount,  ///< histogram samples in the window
    kMean,   ///< histogram window mean
    kP50,
    kP90,
    kP99,
    kP999,
};

/** Objective direction: good when stat < / > threshold. */
enum class SloCmp : std::uint8_t { kLt, kGt };

/** One service-level objective: a plain aggregate, set by fields or by
 * designated initializers. */
struct SloObjective {
    /** Alert/metric name (one dotted-path segment, e.g. "ranking_p99"). */
    std::string name{};
    /** Hub series glob the objective applies to (per matching series). */
    std::string series{};
    SloStat stat = SloStat::kP99;
    SloCmp cmp = SloCmp::kLt;
    double threshold = 0.0;
    /** Tolerated bad-window fraction (error budget), in (0, 1]. */
    double errorBudget = 0.05;
    /** Long / short trailing evaluation windows, in base windows. */
    int longWindows = 60;
    int shortWindows = 5;
    /** Fire when both burn rates reach this multiple of the budget. */
    double burnThreshold = 2.0;
    /**
     * Evidence weight filed per fire against the series' host (parsed
     * from a `node<i>` path segment); 0 disables evidence.
     */
    double evidenceWeight = 0.0;
};

/**
 * Evaluates objectives at every hub window close. Construct after the
 * hub; both must outlive the simulation run. Not thread-safe (runs in
 * the hub's window observer, on the coordinator thread).
 */
class SloEngine
{
  public:
    /**
     * Evidence receiver: (host, source, weight). Matches
     * HealthMonitor::reportEvidence — wire hm.evidenceSink() — or any
     * custom sink (e.g. forwarding to an OutlierDetector).
     */
    using EvidenceFn =
        std::function<void(int, const std::string &, double)>;

    /** One fired alert (still firing while resolvedAt == kTimeNever). */
    struct Alert {
        std::string objective;
        std::string series;
        sim::TimePs firedAt = 0;
        sim::TimePs resolvedAt = sim::kTimeNever;
        double burnLong = 0.0;
        double burnShort = 0.0;
        int host = -1;
    };

    explicit SloEngine(TimeSeriesHub &hub);

    SloEngine(const SloEngine &) = delete;
    SloEngine &operator=(const SloEngine &) = delete;

    /** Add @p obj (validated; duplicate names panic). */
    SloEngine &addObjective(SloObjective obj);

    /** Register `slo.<name>.*` metrics for every objective on @p reg. */
    void attachObservability(MetricsRegistry &reg);

    /** Emit an instant event on the "slo" track per fire/resolve. */
    void attachTrace(TraceWriter *tw) { trace = tw; }

    /** Install the evidence receiver for objectives with evidence. */
    void setEvidenceSink(EvidenceFn fn) { evidence = std::move(fn); }

    // --- inspection -------------------------------------------------------

    /** Every alert ever fired, in fire order. */
    const std::vector<Alert> &timeline() const { return alerts; }

    std::uint64_t alertsFired() const { return firedCount; }
    std::uint64_t alertsResolved() const { return resolvedCount; }

    /** Alerts currently firing. */
    std::size_t firingCount() const
    {
        return static_cast<std::size_t>(firedCount - resolvedCount);
    }

    /**
     * Deterministic JSON of the full alert timeline (the CI
     * byte-identical artifact).
     */
    void writeTimeline(std::ostream &os) const;
    std::string timelineJson() const;

    /**
     * The host index embedded in a series name as a `node<i>` dotted
     * segment ("ltl.node17.retransmits" -> 17), or -1 when absent.
     */
    static int hostFromSeries(const std::string &series);

  private:
    /** Trailing good/bad ring of one (objective, series) pair. */
    struct SeriesState {
        std::vector<std::uint8_t> bad;  ///< ring, capacity longWindows
        std::size_t head = 0;
        std::size_t used = 0;
        bool firing = false;
        std::size_t alertIdx = 0;  ///< into alerts while firing
        double burnLong = 0.0;
        double burnShort = 0.0;
    };

    struct Objective {
        SloObjective spec;
        std::map<std::string, SeriesState> states;
        std::size_t seenSeries = 0;
        sim::Counter *alertCounter = nullptr;
        sim::Counter *resolveCounter = nullptr;
    };

    TimeSeriesHub &hub;
    /** unique_ptr: registered probes capture stable Objective pointers. */
    std::vector<std::unique_ptr<Objective>> objectives;
    MetricsRegistry *metrics = nullptr;
    TraceWriter *trace = nullptr;
    EvidenceFn evidence;
    std::vector<Alert> alerts;
    std::uint64_t firedCount = 0;
    std::uint64_t resolvedCount = 0;

    void onWindow(sim::TimePs t, std::uint64_t seq);
    void evaluate(Objective &obj, const std::string &name, SeriesState &st,
                  const TsPoint &p, sim::TimePs t);
    void bindMetrics(Objective &obj);
    void exportAlert(const Objective &obj, const std::string &series,
                     const SeriesState &st, sim::TimePs t, bool fired,
                     int host);
    static double statOf(const TsPoint &p, SloStat s);
};

}  // namespace ccsim::obs
