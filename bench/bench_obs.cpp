/**
 * @file
 * Telemetry-overhead benchmark: the Figure 8 ranking workload run three
 * times under identical seeds —
 *
 *   off       bare simulation, no time-series rollup;
 *   windows   TimeSeriesHub rolling every registry metric into 10 ms
 *             windows, JSONL export on;
 *   slo       windows plus an SloEngine evaluating latency and
 *             throughput burn rates every window.
 *
 * Asserts the two telemetry invariants the dashboard work relies on:
 * rolling only ever *reads* simulation state and adds no events (it
 * runs at barriers of the one-partition kernel, so query and event
 * counts are identical in all three runs), and the rollup is cheap
 * (< 5% wall-clock overhead, min-of-3 runs per config). Headline
 * numbers land in BENCH_obs.json.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "bench_json.hpp"
#include "host/load_generator.hpp"
#include "host/ranking_server.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

using namespace ccsim;

namespace {

enum class Mode { kOff, kWindows, kSlo };

struct RunResult {
    double wallSeconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t queries = 0;
    std::uint64_t windows = 0;
    std::uint64_t tsLines = 0;
    std::uint64_t alerts = 0;
};

RunResult
runWorkload(Mode mode, double settle_s, double measure_s)
{
    sim::ShardedEventQueue sq;  // one partition: a single-queue simulation
    sim::EventQueue &eq = sq.partition(0);
    obs::Observability hub;
    auto accel = std::make_unique<host::LocalFpgaAccelerator>(eq);
    host::RankingServer server(eq, host::RankingServiceParams{},
                               accel.get(), 21);
    server.attachObservability(&hub);
    // Heavy FPGA-backed load: the base simulation must dominate wall
    // time or the overhead ratio measures the hub against an idle loop.
    host::PoissonLoadGenerator gen(eq, 50000.0,
                                   [&] { server.submitQuery(); }, 23);

    std::unique_ptr<obs::TimeSeriesHub> ts;
    std::unique_ptr<obs::SloEngine> slo;
    std::ostringstream jsonl;
    if (mode != Mode::kOff) {
        ts = std::make_unique<obs::TimeSeriesHub>(
            obs::TimeSeriesConfig{.window = 10 * sim::kMillisecond});
        ts->watchRegistry(&hub.registry);
        ts->registerSelfProbes(hub.registry);
        ts->exportTo(&jsonl);
        ts->startSampling(sq);
    }
    if (mode == Mode::kSlo) {
        slo = std::make_unique<obs::SloEngine>(*ts);
        slo->addObjective(
            {.name = "rank_p999", .series = "host.rank.latency_ms",
             .stat = obs::SloStat::kP999, .cmp = obs::SloCmp::kLt,
             .threshold = 12.0, .errorBudget = 0.05, .longWindows = 60,
             .shortWindows = 5, .burnThreshold = 4.0});
        slo->addObjective(
            {.name = "rank_goodput", .series = "host.rank.latency_ms",
             .stat = obs::SloStat::kRate, .cmp = obs::SloCmp::kGt,
             .threshold = 100.0, .errorBudget = 0.10, .longWindows = 60,
             .shortWindows = 5, .burnThreshold = 4.0});
        slo->attachObservability(hub.registry);
    }

    const auto t0 = std::chrono::steady_clock::now();
    gen.start();
    sq.runFor(sim::fromSeconds(settle_s + measure_s));
    gen.stop();
    sq.runAll();

    RunResult r;
    r.wallSeconds = bench::wallSeconds(t0);
    r.events = eq.eventsExecuted();
    r.queries = server.latencyMs().count();
    if (ts) {
        r.windows = ts->windowsClosed();
        r.tsLines = ts->exportedLines();
    }
    if (slo)
        r.alerts = slo->alertsFired();
    return r;
}

const char *
modeName(Mode m)
{
    switch (m) {
    case Mode::kOff:
        return "off";
    case Mode::kWindows:
        return "windows";
    case Mode::kSlo:
        return "windows+slo";
    }
    return "?";
}

}  // namespace

int
main(int argc, char **argv)
{
    const bool quick = bench::Flags(argc, argv, {{"--quick"}}).has("--quick");
    const double settle_s = quick ? 0.3 : 0.5;
    const double measure_s = quick ? 1.5 : 4.0;

    std::printf("=== Telemetry overhead: fig08 ranking workload x "
                "{off, windows, windows+slo} ===\n\n");
    std::printf("  %.1f s simulated per run, 10 ms windows, min of 3 "
                "runs per config\n\n", settle_s + measure_s);

    // Min-of-3 wall time per config is robust to scheduler noise; the
    // simulated workload itself is identical in every run.
    RunResult best[3];
    for (int rep = 0; rep < 3; ++rep) {
        for (Mode m : {Mode::kOff, Mode::kWindows, Mode::kSlo}) {
            const RunResult r = runWorkload(m, settle_s, measure_s);
            RunResult &b = best[static_cast<int>(m)];
            if (rep == 0 || r.wallSeconds < b.wallSeconds)
                b = r;
        }
    }

    std::printf("  %-12s %10s %12s %10s %10s %8s\n", "config", "wall s",
                "events/s", "windows", "ts lines", "alerts");
    for (Mode m : {Mode::kOff, Mode::kWindows, Mode::kSlo}) {
        const RunResult &r = best[static_cast<int>(m)];
        std::printf("  %-12s %10.2f %12.0f %10llu %10llu %8llu\n",
                    modeName(m), r.wallSeconds,
                    static_cast<double>(r.events) / r.wallSeconds,
                    static_cast<unsigned long long>(r.windows),
                    static_cast<unsigned long long>(r.tsLines),
                    static_cast<unsigned long long>(r.alerts));
    }

    // Rolling must not perturb the simulation: same queries completed,
    // and not a single event added (telemetry runs at barriers).
    const RunResult &off = best[0], &win = best[1], &wslo = best[2];
    if (win.queries != off.queries || wslo.queries != off.queries)
        sim::fatalf("bench_obs: telemetry perturbed the workload (",
                    off.queries, " / ", win.queries, " / ", wslo.queries,
                    " queries completed)");
    if (win.events != off.events || wslo.events != off.events)
        sim::fatalf("bench_obs: telemetry added events (", off.events,
                    " / ", win.events, " / ", wslo.events,
                    " events executed)");
    std::printf("\nworkload invariance: OK (%llu queries, %llu events in "
                "every config)\n",
                static_cast<unsigned long long>(off.queries),
                static_cast<unsigned long long>(off.events));

    const double overheadWin = win.wallSeconds / off.wallSeconds - 1.0;
    const double overheadSlo = wslo.wallSeconds / off.wallSeconds - 1.0;
    std::printf("rollup overhead: windows %+.2f%%, windows+slo %+.2f%% "
                "(budget < 5%%)\n", 100.0 * overheadWin,
                100.0 * overheadSlo);
    if (overheadWin >= 0.05 || overheadSlo >= 0.05)
        sim::fatalf("bench_obs: telemetry overhead exceeds the 5% "
                    "budget (windows ", 100.0 * overheadWin,
                    "%, windows+slo ", 100.0 * overheadSlo, "%)");

    const std::string prefix =
        quick ? "bench_obs_quick." : "bench_obs.";
    bench::BenchValues out;
    out[prefix + "off_events_per_s"] =
        static_cast<double>(off.events) / off.wallSeconds;
    out[prefix + "windows_events_per_s"] =
        static_cast<double>(win.events) / win.wallSeconds;
    out[prefix + "slo_events_per_s"] =
        static_cast<double>(wslo.events) / wslo.wallSeconds;
    out[prefix + "windows_overhead_pct"] = 100.0 * overheadWin;
    out[prefix + "slo_overhead_pct"] = 100.0 * overheadSlo;
    out[prefix + "windows_closed"] = static_cast<double>(win.windows);
    out[prefix + "ts_lines"] = static_cast<double>(win.tsLines);
    bench::mergeBenchJson("BENCH_obs.json", out);
    std::printf("wrote BENCH_obs.json (%s*)\n", prefix.c_str());
    return 0;
}
