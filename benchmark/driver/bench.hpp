/**
 * @file
 * Shared types of the ccsim_bench driver: the host-time tracer that wraps
 * every call the driver makes into a simulator layer, the result one
 * repetition of a workload returns, and the metric catalogue.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ccsim::obs {
class MetricsRegistry;
}

namespace ccsim::bench {

using Clock = std::chrono::steady_clock;

/** SplitMix64 finalizer: a deterministic 64-bit mix. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Host seconds elapsed since @p t. */
inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * Host-time spans around the driver's calls into simulator layers. A span
 * is named "layer:op", carries its start, end and parent, and is kept in
 * memory until the repetition ends. A disabled tracer records nothing, so
 * untraced repetitions time the bare calls. Spans may only be opened on
 * the thread that reset the tracer; the sharded kernel's worker threads
 * never reach a span site.
 */
class Tracer
{
  public:
    /** Drop all spans and start a fresh recording (none if !enabled). */
    void reset(bool enabled);
    bool enabled() const { return on; }

    /** One open span; closed when destroyed. Inert when tracing is off. */
    class Span
    {
      public:
        Span(Tracer *t, const char *layer, const char *op);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer;
        std::size_t index = 0;
    };

    Span span(const char *layer, const char *op)
    {
        return Span(on ? this : nullptr, layer, op);
    }

    /** Record a host-time sample that is not a span (e.g. barrier gaps). */
    void sample(const std::string &series, double value);

    // --- analysis, after the repetition ---

    /** Per-layer self time: span durations minus their child spans. */
    std::map<std::string, double> selfSeconds() const;
    /** Durations (seconds) of every "layer:op" span. */
    std::vector<double> durations(std::string_view layer,
                                  std::string_view op) const;
    /** Recorded samples of @p series (empty if none). */
    std::vector<double> samples(const std::string &series) const;
    std::size_t spanCount() const { return spans.size(); }

    /** Chrome trace-event JSON ("X" events; args carry id and parent). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    struct Rec {
        const char *layer;
        const char *op;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t parent;  ///< index of the enclosing span, -1 at top
    };

    bool on = false;
    Clock::time_point t0;
    std::thread::id owner;
    std::vector<Rec> spans;
    std::vector<std::size_t> open;
    std::map<std::string, std::vector<double>> series;

    std::int64_t nowNs() const;
};

/** Run @p f inside a "layer:op" span and return its result. */
template <class F>
decltype(auto)
traced(Tracer &t, const char *layer, const char *op, F &&f)
{
    const auto s = t.span(layer, op);
    return f();
}

/**
 * Short passes of a fixed calibration kernel timed between the driver's
 * run calls. The machines this benchmark runs on change speed by up to
 * 1.6x within seconds (cores and caches shared with other tenants), which
 * moves raw host times of the same code by 10-30% from run to run. Each
 * end-to-end host time is divided by the mean pass time of its own
 * interval, sampled at most every 0.2 s while it ran, which cancels most
 * of that drift.
 */
class Calibrator
{
  public:
    Calibrator();
    ~Calibrator();
    Calibrator(const Calibrator &) = delete;
    Calibrator &operator=(const Calibrator &) = delete;

    /** Start an interval with one pass. */
    void begin();
    /** A calibration point: one pass if 0.2 s passed since the last. */
    void tick();
    /** End the interval with one pass; its mean pass time in seconds. */
    double end();
    /** Host seconds the tick() passes of this interval took. */
    double spentS() const { return spent; }

  private:
    struct Kernel;
    std::unique_ptr<Kernel> kernel;
    double passSum = 0.0;
    int passes = 0;
    double spent = 0.0;
    Clock::time_point last;

    double timedPass();
};

/**
 * End-to-end host times are reported in seconds of a machine on which one
 * calibration pass takes this long (the machine the baseline was measured
 * on, in its faster state).
 */
inline constexpr double kCalibrationNominalS = 0.0025;

/** What the driver hands one repetition of a workload. */
struct RepContext {
    std::uint64_t seed = 0;  ///< workload seed, derived from the master
    bool smoke = false;      ///< tiny scales for the harness self-test
    bool setupOnly = false;  ///< build the workload, skip the run
    Tracer *tracer = nullptr;
    Calibrator *calibrator = nullptr;  ///< null: no calibration points

    /** One run call into the kernel: a "sim:run" span, then a
     * calibration point (outside the span). */
    template <class F>
    void run(F &&f) const
    {
        {
            const auto s = tracer->span("sim", "run");
            f();
        }
        if (calibrator != nullptr)
            calibrator->tick();
    }
};

/** Everything one repetition measured. */
struct RepResult {
    double setupS = 0.0;  ///< host: workload start -> first run call
    double wallS = 0.0;   ///< host: first run call -> end of drain

    /** Exact simulated request latencies, in recording order. */
    std::vector<sim::TimePs> latencies;
    std::uint64_t ops = 0;        ///< simulated requests issued
    std::uint64_t opsFailed = 0;  ///< lost, unanswered or duplicated
    std::uint64_t events = 0;     ///< simulator events executed
    /** Further simulated outputs folded into the fingerprint. */
    std::vector<std::uint64_t> outputs;

    /** Per-layer counts (traced repetitions only), by metric name. */
    std::map<std::string, double> layers;
    /** Registry snapshot JSON (traced repetitions only). */
    std::string snapshot;

    /** Correctness gates that failed. */
    std::vector<std::string> violations;

    void gate(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }
    void outputDouble(double v);

    /** 64-bit hash of the simulated outputs. */
    std::uint64_t fingerprint() const;
};

/** One workload: its name and its repetition. */
struct Workload {
    const char *name;
    std::function<RepResult(const RepContext &)> run;
};

/** The five workloads, in benchmark order. */
const std::vector<Workload> &workloads();

RepResult runRankFig08(const RepContext &ctx);
RepResult runRemotePool(const RepContext &ctx);
RepResult runL2Fabric(const RepContext &ctx);
RepResult runChaosL2(const RepContext &ctx);
RepResult runServingOverload(const RepContext &ctx);

/** A metric's identity: name, unit, and which direction is better. */
struct MetricSpec {
    const char *name;
    const char *unit;
    const char *better;
};

/** End-to-end metrics (reported by untraced runs). */
const std::vector<MetricSpec> &endToEndMetrics();
/** Per-layer metrics (reported by traced runs). */
const std::vector<MetricSpec> &perLayerMetrics();

// --- helpers shared by the workloads ---

/** Kernel counts (sim.*) summed over @p queues. */
void addQueueCounts(RepResult &res,
                    const std::vector<const sim::EventQueue *> &queues);

/**
 * Fabric counts (net.switch.*, net.nic.*, ltl.*, router.*, fpga.*,
 * obs.paths) summed over every probe and counter of @p regs.
 */
void addRegistryCounts(RepResult &res,
                       const std::vector<const obs::MetricsRegistry *> &regs);

/** Nearest-rank percentile @p p (in [0, 100]) of @p v; T{} if empty. */
template <class T>
T
percentile(std::vector<T> v, double p)
{
    if (v.empty())
        return T{};
    const std::size_t n = v.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    const std::size_t k = std::clamp<std::size_t>(rank, 1, n) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                     v.end());
    return v[k];
}

/** Median of plain values (0 if empty). */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

}  // namespace ccsim::bench
