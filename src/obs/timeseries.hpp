/**
 * @file
 * Live windowed time-series on top of the metrics registry.
 *
 * The registry (PR 1) answers "what are the totals now?"; figures read
 * it once at the end of a run. A 5-simulated-day, 250k-host campaign
 * needs the *trajectory*: ranking p99 per second, retransmit rate per
 * pod, lease churn per hour — while the run is still going. The
 * TimeSeriesHub closes that gap:
 *
 *  - On a fixed simulated-time cadence it rolls every watched registry
 *    metric into one fixed-width window: counters and probes become
 *    deltas and rates, gauges keep their last value, histograms become
 *    **windowed histograms** — exact per-bin count deltas of the
 *    cumulative LogHistogram (LogHistogram::fromBins), so windowed
 *    p50/p99/p999 cost O(bins) and per-shard windows merge exactly (bin
 *    addition).
 *  - Each series keeps only what it rolls from (the previous reading)
 *    and its newest point, so the hub's memory is fixed by the series
 *    count, however long the run. The JSONL stream is the full record.
 *  - Pattern aggregates (`defineAggregate("ltl.rtt_us", "ltl.*.rtt_us")`)
 *    merge per-node histograms (or sum per-node counters) into fleet
 *    series — the thing an SLO is written against.
 *  - A streaming JSONL exporter (gated by the `CCSIM_TS` environment
 *    variable, like CCSIM_TRACE/CCSIM_SPANS) writes one line per window
 *    in deterministic formatting.
 *  - An attached TraceWriter draws each series as a Chrome counter
 *    track named after the series, in the category of its first dotted
 *    segment (`ltl.node0.frames_sent` under `ltl`). Gauges and probes
 *    draw their value, counters their rate, histograms their windowed
 *    p50/p99. A track is drawn in its first window and afterwards only
 *    when what it draws changes, so idle series cost no trace events.
 *
 * Driving: the hub is the simulator's one periodic probe sampler. It
 * registers a ShardedEventQueue barrier hook whose deadlines land
 * exactly on window ends, so a window sees every event up to and
 * including its end, and windowed series are byte-identical across
 * 1/2/4/8 worker threads. A single-queue simulation is a one-partition
 * kernel and rolls the same way.
 * Rolling only ever *reads* simulation state: instrumented and bare
 * runs stay bit-identical.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace ccsim::sim {
class ShardedEventQueue;
}

namespace ccsim::obs {

/**
 * What a time series measures: the registry kind of its metrics, which
 * determines the TsPoint fields set. Counters and probes carry
 * value/delta/rate, gauges value/delta, histograms
 * count/rate/mean/percentiles.
 */
using SeriesKind = MetricsRegistry::Kind;

/** One windowed sample of one series. */
struct TsPoint {
    sim::TimePs t = 0;  ///< window end (simulated)
    double value = 0.0; ///< cumulative value (histogram: cumulative count)
    double delta = 0.0; ///< increase over the window
    double rate = 0.0;  ///< delta per simulated second
    // --- histogram series only ---
    std::uint64_t count = 0; ///< samples in the window
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/** TimeSeriesHub tuning. */
struct TimeSeriesConfig {
    /** Window width (simulated). */
    sim::TimePs window = sim::kMillisecond;
    /**
     * Registry paths to watch (metric_names-style globs, `*` matches one
     * or more characters including dots). Empty = watch every path.
     */
    std::vector<std::string> include = {};
};

/**
 * Rolls watched registries into windowed time series. Not thread-safe:
 * on the sharded kernel it runs inside barrier hooks on the coordinator
 * thread, between windows, when no worker is executing events.
 *
 * Lifetimes: watched registries, the export stream, and any attached
 * TraceWriter must outlive the hub's last roll; the hub must outlive
 * the queue run it is driving (barrier hooks cannot be deregistered).
 */
class TimeSeriesHub
{
  public:
    explicit TimeSeriesHub(TimeSeriesConfig cfg = {});

    TimeSeriesHub(const TimeSeriesHub &) = delete;
    TimeSeriesHub &operator=(const TimeSeriesHub &) = delete;

    // --- wiring -----------------------------------------------------------

    /**
     * Watch @p reg: every path it holds (now or later — discovery re-runs
     * each window) that passes the include filter becomes a series.
     * Paths must be disjoint across watched registries, as in
     * MetricsRegistry::writeMergedSnapshot.
     */
    void watchRegistry(const MetricsRegistry *reg);

    /**
     * Define a derived series @p name merging every concrete series
     * matching @p pattern: histogram members merge their windowed
     * bin counts (identical binning required); counter/probe/gauge members
     * sum. Members may appear later; the kind is fixed by the first
     * match. @p name must not collide with a registry path.
     */
    void defineAggregate(const std::string &name, const std::string &pattern);

    /**
     * Stream JSONL to @p os (nullptr disables): a `meta` line now, a
     * `series` line when each series first appears, one `window` line
     * per window, and `alert` lines appended by an SLO engine.
     * Deterministic formatting — same-seed runs produce byte-identical
     * streams.
     */
    void exportTo(std::ostream *os);

    /**
     * Draw every series as a Chrome counter track on @p tw, by the rules
     * in the file comment.
     */
    void attachTrace(TraceWriter *tw) { trace = tw; }

    /**
     * Register the hub's own `ts.*` probes (windows, series,
     * exported_lines) on @p reg — pick the shard-0 registry in a
     * sharded build.
     */
    void registerSelfProbes(MetricsRegistry &reg);

    /**
     * Observer invoked after each window closes (points rolled, window
     * line exported): the SLO engine's hook.
     */
    using WindowObserver = std::function<void(sim::TimePs, std::uint64_t)>;
    void addWindowObserver(WindowObserver fn);

    // --- driving ----------------------------------------------------------

    /**
     * Roll one window ending now (manual driving for tests). @p now must
     * advance by exactly one window per call.
     */
    void rollAt(sim::TimePs now);

    /**
     * Barrier-hook driving (first window one period from now): window
     * ends become hook deadlines, so rolls happen at exact simulated
     * times on the coordinator thread and the stream is byte-identical
     * across worker thread counts. Call at most once (panics otherwise):
     * barrier hooks cannot be deregistered, and a second hook would roll
     * every window twice.
     */
    void startSampling(sim::ShardedEventQueue &sq);

    // --- queries ----------------------------------------------------------

    const TimeSeriesConfig &config() const { return cfg; }

    /** Windows closed so far. */
    std::uint64_t windowsClosed() const { return windowSeq; }

    /** Concrete + aggregate series currently tracked. */
    std::size_t seriesCount() const;

    /** All series names (concrete then aggregate, each sorted). */
    std::vector<std::string> seriesNames() const;

    /** The kind of @p name; panics if unknown. */
    SeriesKind kindOf(const std::string &name) const;

    /** Latest window point of @p name (nullptr before its first window
     * or for unknown names). */
    const TsPoint *latest(const std::string &name) const;

    /** JSONL lines written so far. */
    std::uint64_t exportedLines() const { return linesOut; }

    /**
     * Append one already-serialized JSONL record (the SLO engine's alert
     * lines) to the export stream, if one is attached.
     */
    void exportLine(const std::string &json);

    /** The CCSIM_TS path, or "" when unset. */
    static std::string envPath();

  private:
    static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

    /**
     * Rollup state of one series: what it rolls from, its newest point
     * and what its trace track last drew.
     */
    struct Rollup {
        double prevValue = 0.0;
        std::vector<std::uint64_t> prevBins;  ///< histogram series only
        double prevSum = 0.0;
        std::optional<TsPoint> last;  ///< unset before the first window
        /** Last drawn value (histograms: p50, p99); NaN before any. */
        double drawn[2] = {kNaN, kNaN};
    };


    /** One concrete series bound to a registry metric. */
    struct Series {
        std::string key;  ///< the window-line key, jsonKey(name)
        SeriesKind kind = SeriesKind::kCounter;
        const MetricsRegistry *reg = nullptr;
        MetricsRegistry::Id id = 0;  ///< the metric's id in reg
        Rollup roll;

        /** The reading of a scalar (non-histogram) series now. */
        double current() const;
        const sim::LogHistogram &hist() const
        {
            return reg->histogramAt(id);
        }
    };

    /** One derived series merging pattern-matched members. */
    struct Aggregate {
        std::string key;  ///< the window-line key, jsonKey(name)
        std::string pattern;
        SeriesKind kind = SeriesKind::kCounter;
        std::vector<const Series *> members;
        std::size_t seenSeries = 0;  ///< concrete count at last refresh
        bool announced = false;
        Rollup roll;
    };

    TimeSeriesConfig cfg;
    std::vector<const MetricsRegistry *> regs;
    /** registry->size() at the last discover(), parallel to regs. */
    std::vector<std::size_t> regSeen;
    std::map<std::string, Series> series;
    std::map<std::string, Aggregate> aggregates;
    std::vector<WindowObserver> observers;

    std::ostream *out = nullptr;
    TraceWriter *trace = nullptr;

    bool sampling = false;  ///< startSampling() has run
    std::uint64_t windowSeq = 0;
    std::uint64_t linesOut = 0;
    /** The window line being built; reused so its buffer stays warm. */
    std::string lineBuf;

    bool includes(const std::string &path) const;
    void discover();
    void refreshAggregate(const std::string &name, Aggregate &agg);
    void announceSeries(const std::string &name, SeriesKind kind);
    static void rollSeries(Series &s, sim::TimePs now, double span);
    static void rollAggregate(Aggregate &agg, sim::TimePs now, double span);
    static TsPoint scalarPoint(sim::TimePs now, double cur, SeriesKind kind,
                               double span, Rollup &r);
    static TsPoint histogramPoint(sim::TimePs now,
                                  sim::LogHistogram::Binning binning,
                                  std::vector<std::uint64_t> bins, double sum,
                                  std::uint64_t count, double span,
                                  Rollup &r);
    void exportWindow(sim::TimePs now);
    void traceWindow(sim::TimePs now);
    static const char *kindName(SeriesKind k);
    /**
     * A series' key in a window line: its name JSON-escaped and quoted,
     * with the colon. Names never change, so each is escaped once.
     */
    static std::string jsonKey(const std::string &name);
};

}  // namespace ccsim::obs
