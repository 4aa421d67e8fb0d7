/**
 * @file
 * ccsim_bench: the simulator benchmark driver.
 *
 *   ccsim_bench --workload NAME [--seed N] [--seconds S] [--trace DIR]
 *               [--out DIR] [--smoke]
 *   ccsim_bench --all [same options]   (one child process per workload)
 *
 * One invocation measures one workload. Its inputs come from the master
 * seed (each workload derives its own with Rng::forStream). The first
 * repetition runs cold and gives the peak RSS; the workload is then set up
 * several times without running (the set-up time is the median of those
 * and of every repetition's set-up), and run again from fresh objects with
 * the same seed until at least three repetitions and --seconds of host
 * time are done. Host times are medians over the repetitions, calibrated
 * against the Calibrator's kernel. Simulated outputs must fingerprint
 * identically in every repetition. With --trace, untraced and traced
 * repetitions alternate: the traced ones give the per-layer numbers and
 * the trace files, the untraced ones the tracing overhead.
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed, and the end-to-end metrics (untraced) or the
 * per-layer metrics (--trace). Any correctness violation exits 1.
 */
#include <sys/wait.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"

#ifndef CCSIM_BENCH_COMPILER
#define CCSIM_BENCH_COMPILER "unknown"
#endif
#ifndef CCSIM_BENCH_BUILD_TYPE
#define CCSIM_BENCH_BUILD_TYPE "unknown"
#endif

using namespace ccsim;
using namespace ccsim::bench;

namespace {

constexpr std::uint64_t kDefaultSeed = 20161015;
constexpr int kMinReps = 3;
/** Set-up-only passes: at least this many, and this much host time. */
constexpr int kMinSetups = 3;
constexpr double kSetupBudgetS = 0.5;
constexpr int kMaxSetups = 200;

struct Options {
    std::string workload;
    bool all = false;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    std::string traceDir;
    std::string outDir;
    bool smoke = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "ccsim_bench: %s\nusage: ccsim_bench (--workload NAME | "
                 "--all) [--seed N] [--seconds S] [--trace DIR] [--out DIR] "
                 "[--smoke]\nworkloads:",
                 why.c_str());
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--all")
                o.all = true;
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.traceDir = value();
            else if (a == "--out")
                o.outDir = value();
            else if (a == "--smoke")
                o.smoke = true;
            else
                usage("unknown flag " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.all == !o.workload.empty())
        usage("give exactly one of --workload and --all");
    if (!(o.seconds >= 0.0) || o.seconds > 3600.0)
        usage("--seconds must be in [0, 3600]");
    if (o.smoke)
        o.seconds = 0.0;
    return o;
}

/** Shortest round-trip decimal form of @p v (finite values only). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

/** A memory line of /proc/self/status ("VmRSS:", "VmHWM:"), in MiB. */
double
statusMb(const std::string &key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0)
            return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    return 0.0;
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string first;
    in >> first;
    return first.empty() ? "unknown" : first;
}

/** Ordered (name -> value) metrics of one output section. */
using Values = std::map<std::string, double>;

std::string
metricsJson(const std::vector<MetricSpec> &specs, const Values &v)
{
    std::string s = "{";
    for (const MetricSpec &m : specs) {
        if (s.size() > 1)
            s += ", ";
        const auto it = v.find(m.name);
        s += '"';
        s += m.name;
        s += "\": {\"value\": ";
        s += num(it == v.end() ? 0.0 : it->second);
        s += ", \"unit\": \"";
        s += m.unit;
        s += "\"}";
    }
    return s + "}";
}

void
printMetrics(const char *title, const std::vector<MetricSpec> &specs,
             const Values &v)
{
    std::printf("%s:\n", title);
    for (const MetricSpec &m : specs) {
        const auto it = v.find(m.name);
        if (it != v.end())
            std::printf("  %-34s %16.6g %s\n", m.name, it->second, m.unit);
    }
}

/** Host-time per-layer metrics of one traced repetition. */
Values
hostTimeLayers(const Tracer &tr)
{
    Values v;
    for (const auto &[layer, s] : tr.selfSeconds())
        v[layer + ".self_s"] = s;
    const auto total = [&](const char *layer, const char *op) {
        double t = 0;
        for (const double d : tr.durations(layer, op))
            t += d;
        return t;
    };
    const auto p50 = [&](const char *layer, const char *op) {
        return median(tr.durations(layer, op));
    };
    v["sim.run_s"] = total("sim", "run");
    v["core.build_s"] = total("core", "build");
    v["core.materialize_us_p50"] = p50("core", "materialize") * 1e6;
    v["core.open_ltl_us_p50"] = p50("core", "open_ltl") * 1e6;
    v["host.clear_stats_ms"] = total("host", "clear_stats") * 1e3;
    v["obs.hist_read_us_p50"] = p50("obs", "hist_read") * 1e6;
    v["obs.snapshot_ms"] = total("obs", "snapshot") * 1e3;
    v["net.fluid.set_rate_ms_p50"] = p50("net.fluid", "set_rate") * 1e3;
    v["net.fluid.boundary_ms"] = total("net.fluid", "boundary") * 1e3;
    v["net.fluid.verify_ms"] = total("net.fluid", "verify") * 1e3;
    v["haas.deploy_ms"] = total("haas", "deploy") * 1e3;
    v["haas.acquire_us_p50"] = p50("haas", "acquire") * 1e6;
    v["haas.release_us_p50"] = p50("haas", "release") * 1e6;
    v["fault.inject_ms"] = total("fault", "inject") * 1e3;
    v["serving.submit_ns_p50"] = p50("serving", "submit") * 1e9;
    const std::vector<double> windows = tr.samples("window_us");
    v["sim.shard.window_us_p50"] = percentile(windows, 50.0);
    v["sim.shard.window_us_p99"] = percentile(windows, 99.0);
    v["trace.spans"] = static_cast<double>(tr.spanCount());
    return v;
}

/** Median of each key across @p runs. */
Values
medianOf(const std::vector<Values> &runs)
{
    std::map<std::string, std::vector<double>> cols;
    for (const Values &r : runs)
        for (const auto &[k, x] : r)
            cols[k].push_back(x);
    Values out;
    for (auto &[k, xs] : cols)
        out[k] = median(std::move(xs));
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o + "\"";
}

int
runOne(const Options &o, const Workload &w, std::size_t index)
{
    const std::uint64_t wseed = sim::Rng::forStream(o.seed, index).next();
    const bool tracing = !o.traceDir.empty();
    Tracer tracer;
    RepContext ctx;
    ctx.seed = wseed;
    ctx.smoke = o.smoke;
    ctx.tracer = &tracer;

    std::printf("== ccsim_bench %s: seed %llu (workload seed %llu)%s%s ==\n",
                w.name, static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(wseed),
                o.smoke ? ", smoke" : "", tracing ? ", traced" : "");
    std::fflush(stdout);

    // Host times are kept as measured and calibrated: divided by the mean
    // calibration pass of their interval, times kCalibrationNominalS.
    std::vector<RepResult> plain, withTrace;
    std::vector<double> walls, setups, passes, plainCal, tracedCal, setupCal;
    std::vector<Values> layerTimes;
    const auto r0 = Clock::now();

    // The calibration kernel's memory stays resident from here on; it is
    // taken back out of the peak RSS.
    const double baseMb = statusMb("VmRSS:");
    Calibrator cal;
    const double calibratorMb = statusMb("VmRSS:") - baseMb;
    ctx.calibrator = &cal;

    // One measured repetition; calibration passes inside its run calls
    // are taken out of its wall time.
    const auto repetition = [&](bool traced) {
        tracer.reset(traced);
        cal.begin();
        RepResult r = w.run(ctx);
        const double inside = cal.spentS();
        passes.push_back(cal.end());
        return std::make_pair(std::move(r), inside);
    };
    const auto untraced = [&] {
        auto [r, inside] = repetition(false);
        plain.push_back(std::move(r));
        const double k = kCalibrationNominalS / passes.back();
        walls.push_back(plain.back().wallS - inside);
        setups.push_back(plain.back().setupS);
        plainCal.push_back(walls.back() * k);
        setupCal.push_back(plain.back().setupS * k);
    };

    // The first repetition runs cold in the fresh process: its peak RSS
    // carries the cold cost without the allocator history of later ones.
    untraced();
    const double rssMb = statusMb("VmHWM:") - calibratorMb;

    // Set-up only, several times: set-up time is a median, not one cold
    // sample.
    tracer.reset(false);
    ctx.setupOnly = true;
    std::vector<double> setupOnly;
    cal.begin();
    const auto s0 = Clock::now();
    const int minSetups = o.smoke ? 2 : kMinSetups;
    while (static_cast<int>(setupOnly.size()) < minSetups ||
           (!o.smoke && secondsSince(s0) < kSetupBudgetS &&
            static_cast<int>(setupOnly.size()) < kMaxSetups)) {
        setupOnly.push_back(w.run(ctx).setupS);
        cal.tick();
    }
    ctx.setupOnly = false;
    passes.push_back(cal.end());
    for (const double s : setupOnly) {
        setups.push_back(s);
        setupCal.push_back(s * kCalibrationNominalS / passes.back());
    }

    // Measured repetitions; with tracing, untraced and traced alternate.
    while (static_cast<int>(walls.size()) < kMinReps ||
           secondsSince(r0) < o.seconds) {
        untraced();
        if (!tracing)
            continue;
        auto [t, tInside] = repetition(true);
        withTrace.push_back(std::move(t));
        tracedCal.push_back((withTrace.back().wallS - tInside) *
                            kCalibrationNominalS / passes.back());
        layerTimes.push_back(hostTimeLayers(tracer));
    }

    // --- correctness: gates, and one fingerprint across repetitions ---
    std::vector<std::string> violations;
    const std::uint64_t fp = plain.front().fingerprint();
    for (const auto *reps : {&plain, &withTrace})
        for (const RepResult &r : *reps) {
            violations.insert(violations.end(), r.violations.begin(),
                              r.violations.end());
            if (r.fingerprint() != fp)
                violations.push_back(
                    std::string(reps == &plain ? "an untraced" : "a traced") +
                    " repetition's simulated outputs differ from the first");
        }
    std::sort(violations.begin(), violations.end());
    violations.erase(std::unique(violations.begin(), violations.end()),
                     violations.end());
    const RepResult &first = plain.front();
    const std::size_t n = first.latencies.size();
    if (!o.smoke && n * 0.01 < 10.0)
        violations.push_back("fewer than 10 samples beyond p99");
    const bool correct = violations.empty();

    // --- end-to-end metrics (untraced repetitions) ---
    const double wall = median(walls);
    Values e2e;
    e2e["wall_s"] = median(plainCal);
    e2e["setup_s"] = median(setupCal);
    e2e["rss_peak_mb"] = rssMb;
    e2e["sim_lat_p50_us"] = sim::toMicros(percentile(first.latencies, 50.0));
    e2e["sim_lat_p99_us"] = sim::toMicros(percentile(first.latencies, 99.0));
    e2e["sim_lat_samples"] = static_cast<double>(n);
    e2e["ops"] = static_cast<double>(first.ops);

    // --- per-layer metrics (traced repetitions) ---
    Values layers;
    if (tracing) {
        layers = withTrace.back().layers;
        for (const auto &[k, x] : medianOf(layerTimes))
            layers[k] = x;
        layers["trace.overhead_pct"] =
            (median(tracedCal) / median(plainCal) - 1.0) * 100.0;
        const double events = static_cast<double>(first.events);
        layers["sim.events_per_s"] = events / wall;
        layers["sim.ns_per_event"] = events > 0 ? wall * 1e9 / events : 0.0;
        const double queries = layers["host.queries"];
        layers["host.events_per_query"] = queries > 0 ? events / queries : 0.0;
        for (const auto &[k, x] : layers) {
            const auto &specs = perLayerMetrics();
            if (std::none_of(specs.begin(), specs.end(),
                             [&](const MetricSpec &m) { return k == m.name; }))
                sim::panicf("ccsim_bench: undeclared per-layer metric ", k);
        }

        std::filesystem::create_directories(o.traceDir);
        const std::string base = o.traceDir + "/" + w.name;
        std::ofstream traceOut(base + ".trace.json");
        tracer.writeChromeTrace(traceOut);
        std::ofstream layersOut(base + ".layers.json");
        layersOut << "{\"workload\": " << jsonString(w.name)
                  << ",\n \"self_s\": {";
        bool firstKey = true;
        for (const auto &[layer, s] : tracer.selfSeconds()) {
            layersOut << (firstKey ? "" : ", ") << jsonString(layer) << ": "
                      << num(s);
            firstKey = false;
        }
        layersOut << "},\n \"per_layer\": "
                  << metricsJson(perLayerMetrics(), layers)
                  << ",\n \"registry\": "
                  << (withTrace.back().snapshot.empty()
                          ? std::string("{}")
                          : withTrace.back().snapshot)
                  << "}\n";
        if (!traceOut || !layersOut)
            sim::fatalf("ccsim_bench: cannot write trace files under ",
                        o.traceDir);
    }

    // --- report ---
    std::printf("repetitions: %zu untraced (the first cold), %zu traced; "
                "%zu set-ups; "
                "fingerprint %016llx\n",
                walls.size(), withTrace.size(), setups.size(),
                static_cast<unsigned long long>(fp));
    std::printf("host time as measured: cold wall %.6g s, wall %.6g s, "
                "set-up %.6g s; calibration pass %.6g s (nominal %.6g s)\n"
                "wall per repetition (s, as measured/calibrated):",
                walls.front(), wall, median(setups), median(passes),
                kCalibrationNominalS);
    for (std::size_t i = 0; i < walls.size(); ++i)
        std::printf(" %.4f/%.4f", walls[i], plainCal[i]);
    std::printf("\n");
    printMetrics("end-to-end", endToEndMetrics(), e2e);
    if (tracing)
        printMetrics("per-layer", perLayerMetrics(), layers);
    std::printf("ops %llu, failed %llu\n",
                static_cast<unsigned long long>(first.ops),
                static_cast<unsigned long long>(first.opsFailed));
    for (const std::string &v : violations)
        std::printf("VIOLATION: %s\n", v.c_str());
    std::printf("correctness: %s\n", correct ? "OK" : "FAILED");

    const std::string line =
        "{\"correct\": " + std::string(correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(first.ops) +
        ", \"failed\": " + std::to_string(first.opsFailed) +
        ", \"metrics\": " +
        (tracing ? metricsJson(perLayerMetrics(), layers)
                 : metricsJson(endToEndMetrics(), e2e)) +
        "}";
    if (!o.outDir.empty()) {
        std::filesystem::create_directories(o.outDir);
        std::ofstream out(o.outDir + "/" + w.name +
                          (tracing ? ".traced.json" : ".json"));
        out << "{\"workload\": " << jsonString(w.name)
            << ", \"seed\": " << o.seed << ", \"workload_seed\": " << wseed
            << ", \"smoke\": " << (o.smoke ? "true" : "false")
            << ", \"repetitions\": " << walls.size()
            << ", \"traced_repetitions\": " << withTrace.size()
            << ", \"fingerprint\": \"" << std::hex << fp << std::dec
            << "\", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << first.ops
            << ", \"failed\": " << first.opsFailed
            << ", \"measured_cold_wall_s\": " << num(walls.front())
            << ", \"measured_wall_s\": " << num(wall)
            << ", \"measured_setup_s\": " << num(median(setups))
            << ", \"calibration_pass_s\": " << num(median(passes))
            << ",\n \"end_to_end\": " << metricsJson(endToEndMetrics(), e2e)
            << ",\n \"per_layer\": "
            << (tracing ? metricsJson(perLayerMetrics(), layers)
                        : std::string("{}"))
            << ",\n \"provenance\": {\"build_type\": "
            << jsonString(CCSIM_BENCH_BUILD_TYPE)
            << ", \"compiler\": " << jsonString(CCSIM_BENCH_COMPILER)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"loadavg\": " << jsonString(loadAverage()) << "}}\n";
        if (!out)
            sim::fatalf("ccsim_bench: cannot write results under ", o.outDir);
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

std::string
shellQuote(const std::string &s)
{
    std::string o = "'";
    for (const char c : s)
        o += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return o + "'";
}

/** Run every workload in its own child process, one at a time. */
int
runAll(const Options &o)
{
    const std::string self =
        std::filesystem::read_symlink("/proc/self/exe").string();
    int failures = 0;
    for (const Workload &w : workloads()) {
        std::string cmd = shellQuote(self) + " --workload " + w.name +
                          " --seed " + std::to_string(o.seed) +
                          " --seconds " + num(o.seconds);
        if (!o.traceDir.empty())
            cmd += " --trace " + shellQuote(o.traceDir);
        if (!o.outDir.empty())
            cmd += " --out " + shellQuote(o.outDir);
        if (o.smoke)
            cmd += " --smoke";
        std::fflush(stdout);
        const int status = std::system(cmd.c_str());
        const bool ok = status != -1 && WIFEXITED(status) &&
                        WEXITSTATUS(status) == 0;
        if (!ok) {
            ++failures;
            std::printf("ccsim_bench --all: %s FAILED\n\n", w.name);
        } else {
            std::printf("\n");
        }
    }
    std::printf("ccsim_bench --all: %zu/%zu workloads passed\n",
                workloads().size() - static_cast<std::size_t>(failures),
                workloads().size());
    return failures == 0 ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    // Chaos phases and convictions log at warning level; keep the report
    // readable and the timed region free of console writes.
    sim::Logger::setLevel(sim::LogLevel::kError);
    if (o.all)
        return runAll(o);
    const auto &list = workloads();
    for (std::size_t i = 0; i < list.size(); ++i)
        if (o.workload == list[i].name)
            return runOne(o, list[i], i);
    usage("unknown workload " + o.workload);
}
