#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "obs/json_util.hpp"
#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::obs {

void
MetricsRegistry::checkNewPath(const std::string &path, const char *kind) const
{
    if (path.empty())
        sim::panic("MetricsRegistry: empty metric path");
    const bool taken =
        (counters.count(path) && std::string_view(kind) != "counter") ||
        (gauges.count(path) && std::string_view(kind) != "gauge") ||
        (histograms.count(path) && std::string_view(kind) != "histogram") ||
        (probes.count(path) && std::string_view(kind) != "probe");
    if (taken)
        sim::panicf("MetricsRegistry: path '", path,
                    "' already registered as a different metric kind");
}

sim::Counter &
MetricsRegistry::counter(const std::string &path)
{
    auto it = counters.find(path);
    if (it == counters.end()) {
        checkNewPath(path, "counter");
        it = counters.try_emplace(path, path).first;
        ++mutations;
    }
    return it->second;
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    auto it = gauges.find(path);
    if (it == gauges.end()) {
        checkNewPath(path, "gauge");
        it = gauges.try_emplace(path).first;
        ++mutations;
    }
    return it->second;
}

sim::LogHistogram &
MetricsRegistry::histogram(const std::string &path, double min_value,
                           int bins_per_octave)
{
    auto it = histograms.find(path);
    if (it == histograms.end()) {
        checkNewPath(path, "histogram");
        it = histograms.try_emplace(path, min_value, bins_per_octave).first;
        ++mutations;
    }
    return it->second;
}

void
MetricsRegistry::registerProbe(const std::string &path,
                               std::function<double()> fn)
{
    if (!fn)
        sim::panicf("MetricsRegistry: null probe for '", path, "'");
    checkNewPath(path, "probe");
    probes[path].fn = std::move(fn);
    ++mutations;
}

const sim::Counter *
MetricsRegistry::findCounter(const std::string &path) const
{
    auto it = counters.find(path);
    return it == counters.end() ? nullptr : &it->second;
}

const Gauge *
MetricsRegistry::findGauge(const std::string &path) const
{
    auto it = gauges.find(path);
    return it == gauges.end() ? nullptr : &it->second;
}

const sim::LogHistogram *
MetricsRegistry::findHistogram(const std::string &path) const
{
    auto it = histograms.find(path);
    return it == histograms.end() ? nullptr : &it->second;
}

bool
MetricsRegistry::hasProbe(const std::string &path) const
{
    return probes.count(path) != 0;
}

double
MetricsRegistry::probeValue(const std::string &path) const
{
    auto it = probes.find(path);
    if (it == probes.end())
        sim::panicf("MetricsRegistry: no probe at '", path, "'");
    return it->second.fn();
}

double
MetricsRegistry::probeTimeAverage(const std::string &path) const
{
    auto it = probes.find(path);
    if (it == probes.end())
        sim::panicf("MetricsRegistry: no probe at '", path, "'");
    return it->second.tw.average();
}

std::vector<std::string>
MetricsRegistry::paths() const
{
    std::vector<std::string> all;
    all.reserve(counters.size() + gauges.size() + histograms.size() +
                probes.size());
    for (const auto &[p, _] : counters)
        all.push_back(p);
    for (const auto &[p, _] : gauges)
        all.push_back(p);
    for (const auto &[p, _] : histograms)
        all.push_back(p);
    for (const auto &[p, _] : probes)
        all.push_back(p);
    std::sort(all.begin(), all.end());
    return all;
}

std::vector<std::string>
MetricsRegistry::children(const std::string &prefix) const
{
    const std::string want = prefix.empty() ? "" : prefix + ".";
    std::vector<std::string> kids;
    for (const auto &path : paths()) {
        if (path.size() <= want.size() ||
            path.compare(0, want.size(), want) != 0)
            continue;
        const auto rest = path.substr(want.size());
        kids.push_back(rest.substr(0, rest.find('.')));
    }
    std::sort(kids.begin(), kids.end());
    kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
    return kids;
}

void
MetricsRegistry::writeSnapshot(std::ostream &os) const
{
    writeMergedSnapshot(os, {this});
}

namespace {

/**
 * Merge the @p kind maps of several registries into one sorted view,
 * panicking on a duplicate path (components must shard disjointly).
 */
template <typename Map>
std::map<std::string, const typename Map::mapped_type *>
mergeMaps(const std::vector<const Map *> &maps, const char *kind)
{
    std::map<std::string, const typename Map::mapped_type *> merged;
    for (const Map *m : maps) {
        for (const auto &[path, v] : *m) {
            if (!merged.emplace(path, &v).second)
                sim::panicf("MetricsRegistry: ", kind, " path '", path,
                            "' registered in more than one shard");
        }
    }
    return merged;
}

}  // namespace

void
MetricsRegistry::writeMergedSnapshot(
    std::ostream &os, const std::vector<const MetricsRegistry *> &regs)
{
    using detail::jsonEscape;
    using detail::jsonNumber;

    auto key = [&os](const std::string &path, bool &first) {
        if (!first)
            os << ",";
        first = false;
        os << "\"";
        jsonEscape(os, path);
        os << "\":";
    };

    std::vector<const std::map<std::string, sim::Counter> *> cmaps;
    std::vector<const std::map<std::string, Gauge> *> gmaps;
    std::vector<const std::map<std::string, sim::LogHistogram> *> hmaps;
    std::vector<const std::map<std::string, Probe> *> pmaps;
    for (const MetricsRegistry *r : regs) {
        cmaps.push_back(&r->counters);
        gmaps.push_back(&r->gauges);
        hmaps.push_back(&r->histograms);
        pmaps.push_back(&r->probes);
    }

    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[path, c] : mergeMaps(cmaps, "counter")) {
        key(path, first);
        os << c->get();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[path, g] : mergeMaps(gmaps, "gauge")) {
        key(path, first);
        os << "{\"value\":";
        jsonNumber(os, g->value());
        os << ",\"avg\":";
        jsonNumber(os, g->timeAverage());
        os << ",\"peak\":";
        jsonNumber(os, g->peak());
        os << "}";
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[path, h] : mergeMaps(hmaps, "histogram")) {
        key(path, first);
        os << "{\"count\":" << h->count();
        if (h->count() > 0) {
            os << ",\"mean\":";
            jsonNumber(os, h->mean());
            os << ",\"min\":";
            jsonNumber(os, h->min());
            os << ",\"max\":";
            jsonNumber(os, h->max());
            for (auto [label, p] :
                 {std::pair<const char *, double>{"p50", 50.0},
                  {"p90", 90.0},
                  {"p99", 99.0},
                  {"p999", 99.9}}) {
                os << ",\"" << label << "\":";
                jsonNumber(os, h->percentile(p));
            }
        }
        os << "}";
    }
    os << "},\"probes\":{";
    first = true;
    for (const auto &[path, pr] : mergeMaps(pmaps, "probe")) {
        key(path, first);
        os << "{\"value\":";
        jsonNumber(os, pr->fn());
        os << ",\"avg\":";
        jsonNumber(os, pr->tw.average());
        os << "}";
    }
    os << "}}";
}

std::string
MetricsRegistry::mergedSnapshotJson(
    const std::vector<const MetricsRegistry *> &regs)
{
    std::ostringstream oss;
    writeMergedSnapshot(oss, regs);
    return oss.str();
}

std::string
MetricsRegistry::snapshotJson() const
{
    std::ostringstream oss;
    writeSnapshot(oss);
    return oss.str();
}

void
MetricsRegistry::startSampling(sim::ShardedEventQueue &sq, sim::TimePs period,
                               TraceWriter *trace)
{
    if (period <= 0)
        sim::fatal("MetricsRegistry::startSampling: period must be > 0");
    if (samplerStarted)
        sim::panic("MetricsRegistry::startSampling: already sampling "
                   "(barrier hooks cannot be deregistered)");
    samplerStarted = true;
    samplerTrace = trace;
    const sim::TimePs first = sq.now() + period;
    sq.atBarrier(
        [this, period, due = first](sim::TimePs e) mutable -> sim::TimePs {
            // The hook runs at every barrier; deadlines guarantee one
            // lands exactly on each sampling instant.
            if (e == due) {
                sampleAt(e);
                due += period;
            }
            return due;
        },
        first);
}

void
MetricsRegistry::sampleAt(sim::TimePs now)
{
    ++samplerTicks;
    const bool tracing = samplerTrace != nullptr && samplerTrace->enabled();
    for (auto &[path, probe] : probes) {
        const double v = probe.fn();
        probe.tw.update(now, v);
        if (tracing && (!probe.everEmitted || v != probe.lastEmitted)) {
            // Category = first dotted segment (component family).
            const auto dot = path.find('.');
            samplerTrace->counter(
                std::string_view(path).substr(0, dot), path, now, v);
            probe.everEmitted = true;
            probe.lastEmitted = v;
        }
    }
}

void
registerEventQueueProbes(MetricsRegistry &registry, const sim::EventQueue &eq)
{
    const sim::EventQueue *q = &eq;
    registry.registerProbe("sim.queue.events_per_sec", [q] {
        // Rate over *simulated* time, so same-seed runs snapshot
        // byte-identically regardless of host speed.
        if (q->now() <= 0)
            return 0.0;
        return static_cast<double>(q->eventsExecuted()) /
               (static_cast<double>(q->now()) * 1e-12);
    });
    registry.registerProbe("sim.queue.live", [q] {
        return static_cast<double>(q->size());
    });
    registry.registerProbe("sim.queue.cancelled", [q] {
        return static_cast<double>(q->eventsCancelled());
    });
    registry.registerProbe("sim.queue.wheel_overflow", [q] {
        return static_cast<double>(q->wheelOverflows());
    });
}

}  // namespace ccsim::obs
