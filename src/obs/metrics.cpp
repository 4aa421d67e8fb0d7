#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "obs/json_util.hpp"
#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::obs {

std::size_t
MetricsRegistry::indexPos(std::string_view path) const
{
    const std::size_t mask = index.size() - 1;
    std::size_t i = std::hash<std::string_view>{}(path) & mask;
    while (index[i] != kNoId && pathOf(index[i]) != path)
        i = (i + 1) & mask;
    return i;
}

MetricsRegistry::Id
MetricsRegistry::find(std::string_view path, Kind kind) const
{
    const Id id = index.empty() ? kNoId : index[indexPos(path)];
    return id != kNoId && entries[id].kind == kind ? id : kNoId;
}

std::pair<MetricsRegistry::Id, bool>
MetricsRegistry::intern(const std::string &path, Kind kind,
                        std::size_t slot)
{
    if (path.empty())
        sim::panic("MetricsRegistry: empty metric path");
    if (path.size() > UINT16_MAX)
        sim::panicf("MetricsRegistry: path '", path, "' is too long");
    // Keep the index at most 3/4 full; growing rehashes every path.
    if ((entries.size() + 1) * 4 > index.size() * 3) {
        index.assign(std::max<std::size_t>(16, index.size() * 2), kNoId);
        for (Id id = 0; id < entries.size(); ++id)
            index[indexPos(pathOf(id))] = id;
    }
    const std::size_t pos = indexPos(path);
    if (index[pos] != kNoId) {
        if (entries[index[pos]].kind != kind)
            sim::panicf("MetricsRegistry: path '", path,
                        "' already registered as a different metric kind");
        return {index[pos], false};
    }
    if (path.size() > arenaLeft) {
        // Chunks double up to 1 MiB; a path never straddles two.
        arenaLeft = std::max(path.size(),
                             std::size_t{256} << std::min<std::size_t>(
                                 arena.size(), 12));
        arena.push_back(std::make_unique_for_overwrite<char[]>(arenaLeft));
        arenaTop = arena.back().get();
    }
    std::copy(path.begin(), path.end(), arenaTop);
    const auto id = static_cast<Id>(entries.size());
    entries.emplace_back(Entry{arenaTop, static_cast<std::uint32_t>(slot),
                               static_cast<std::uint16_t>(path.size()), kind});
    arenaTop += path.size();
    arenaLeft -= path.size();
    index[pos] = id;
    return {id, true};
}

std::uint32_t
MetricsRegistry::slotOf(Id id, Kind kind) const
{
    if (id >= entries.size() || entries[id].kind != kind)
        sim::panicf("MetricsRegistry: id ", id, " is not a metric of the "
                    "requested kind");
    return entries[id].slot;
}

sim::Counter &
MetricsRegistry::counter(const std::string &path)
{
    const auto [id, created] = intern(path, Kind::kCounter, counters.size());
    return created ? counters.emplace_back() : counters[entries[id].slot];
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    const auto [id, created] = intern(path, Kind::kGauge, gauges.size());
    return created ? gauges.emplace_back() : gauges[entries[id].slot];
}

sim::LogHistogram &
MetricsRegistry::histogram(const std::string &path, double min_value,
                           int bins_per_octave)
{
    const auto [id, created] =
        intern(path, Kind::kHistogram, histograms.size());
    return created ? histograms.emplace_back(min_value, bins_per_octave)
                   : histograms[entries[id].slot];
}

void
MetricsRegistry::registerProbe(const std::string &path,
                               std::function<double()> fn)
{
    if (!fn)
        sim::panicf("MetricsRegistry: null probe for '", path, "'");
    const auto [id, created] = intern(path, Kind::kProbe, probes.size());
    if (created)
        probes.emplace_back(std::move(fn));
    else
        probes[entries[id].slot] = std::move(fn);
}

const sim::Counter *
MetricsRegistry::findCounter(const std::string &path) const
{
    const Id id = find(path, Kind::kCounter);
    return id == kNoId ? nullptr : &counters[entries[id].slot];
}

const Gauge *
MetricsRegistry::findGauge(const std::string &path) const
{
    const Id id = find(path, Kind::kGauge);
    return id == kNoId ? nullptr : &gauges[entries[id].slot];
}

const sim::LogHistogram *
MetricsRegistry::findHistogram(const std::string &path) const
{
    const Id id = find(path, Kind::kHistogram);
    return id == kNoId ? nullptr : &histograms[entries[id].slot];
}

bool
MetricsRegistry::hasProbe(const std::string &path) const
{
    return find(path, Kind::kProbe) != kNoId;
}

std::uint32_t
MetricsRegistry::probeSlot(const std::string &path) const
{
    const Id id = find(path, Kind::kProbe);
    if (id == kNoId)
        sim::panicf("MetricsRegistry: no probe at '", path, "'");
    return entries[id].slot;
}

double
MetricsRegistry::probeValue(const std::string &path) const
{
    return probes[probeSlot(path)]();
}

double
MetricsRegistry::probeTimeAverage(const std::string &path) const
{
    const std::uint32_t slot = probeSlot(path);
    return slot < sampled.size() ? sampled[slot].tw.average() : 0.0;
}

const std::vector<MetricsRegistry::Id> &
MetricsRegistry::sortedIds() const
{
    // Ids only grow: sort the ones added since the last call and merge.
    const std::size_t had = sorted.size();
    if (had == entries.size())
        return sorted;
    const auto byPath = [this](Id a, Id b) { return pathOf(a) < pathOf(b); };
    for (auto id = static_cast<Id>(had); id < entries.size(); ++id)
        sorted.push_back(id);
    const auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(had);
    std::sort(mid, sorted.end(), byPath);
    std::inplace_merge(sorted.begin(), mid, sorted.end(), byPath);
    return sorted;
}

std::vector<std::string>
MetricsRegistry::paths() const
{
    std::vector<std::string> all;
    all.reserve(entries.size());
    for (const Id id : sortedIds())
        all.emplace_back(pathOf(id));
    return all;
}

std::vector<std::string>
MetricsRegistry::children(const std::string &prefix) const
{
    const std::string want = prefix.empty() ? "" : prefix + ".";
    const std::vector<Id> &ids = sortedIds();
    auto it = std::lower_bound(
        ids.begin(), ids.end(), want,
        [this](Id id, const std::string &w) { return pathOf(id) < w; });
    std::vector<std::string> kids;
    for (; it != ids.end() && pathOf(*it).starts_with(want); ++it) {
        const std::string_view rest = pathOf(*it).substr(want.size());
        if (!rest.empty())
            kids.emplace_back(rest.substr(0, rest.find('.')));
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

void
MetricsRegistry::writeMergedSnapshot(
    std::ostream &os, const std::vector<const MetricsRegistry *> &regs)
{
    // Every path of every registry in path order: each registry's
    // sorted ids form one run, and adjacent runs merge pairwise.
    struct Ref {
        const MetricsRegistry *reg;
        Id id;
        std::string_view path() const { return reg->pathOf(id); }
    };
    std::vector<Ref> refs;
    std::vector<std::size_t> bounds{0};
    for (const MetricsRegistry *r : regs) {
        for (const Id id : r->sortedIds())
            refs.push_back({r, id});
        bounds.push_back(refs.size());
    }
    const auto byPath = [](const Ref &a, const Ref &b) {
        return a.path() < b.path();
    };
    const auto run = [&](std::size_t r) {  // start of run r; end past last
        return refs.begin() +
               static_cast<std::ptrdiff_t>(bounds[std::min(r, regs.size())]);
    };
    for (std::size_t step = 1; step < regs.size(); step *= 2)
        for (std::size_t i = 0; i + step < regs.size(); i += 2 * step)
            std::inplace_merge(run(i), run(i + step), run(i + 2 * step),
                               byPath);
    for (std::size_t i = 1; i < refs.size(); ++i) {
        if (refs[i - 1].path() == refs[i].path())
            sim::panicf("MetricsRegistry: path '", refs[i].path(),
                        "' registered in more than one shard");
    }

    // One section per kind, each in path order.
    const char *open[] = {"{\"counters\":{", "},\"gauges\":{",
                          "},\"histograms\":{", "},\"probes\":{"};
    for (const Kind kind :
         {Kind::kCounter, Kind::kGauge, Kind::kHistogram, Kind::kProbe}) {
        os << open[static_cast<int>(kind)];
        bool first = true;
        for (const Ref &r : refs) {
            if (r.reg->kindOf(r.id) != kind)
                continue;
            os << (first ? "\"" : ",\"");
            first = false;
            detail::jsonEscape(os, r.path());
            os << "\":";
            r.reg->writeValue(os, r.id);
        }
    }
    os << "}}";
}

void
MetricsRegistry::writeValue(std::ostream &os, Id id) const
{
    using detail::jsonFields;
    const std::uint32_t slot = entries[id].slot;
    switch (kindOf(id)) {
    case Kind::kCounter:
        os << counters[slot].get();
        return;
    case Kind::kGauge: {
        const Gauge &g = gauges[slot];
        os << "{";
        jsonFields(os, {{"value", g.value()},
                        {"avg", g.timeAverage()},
                        {"peak", g.peak()}});
        break;
    }
    case Kind::kHistogram: {
        const sim::LogHistogram &h = histograms[slot];
        os << "{\"count\":" << h.count();
        if (h.count() > 0)
            jsonFields(os,
                       {{"mean", h.mean()}, {"min", h.min()},
                        {"max", h.max()}, {"p50", h.percentile(50.0)},
                        {"p90", h.percentile(90.0)},
                        {"p99", h.percentile(99.0)},
                        {"p999", h.percentile(99.9)}},
                       true);
        break;
    }
    case Kind::kProbe:
        os << "{";
        jsonFields(os, {{"value", probes[slot]()},
                        {"avg", slot < sampled.size()
                                    ? sampled[slot].tw.average()
                                    : 0.0}});
        break;
    }
    os << "}";
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
    sampled.resize(probes.size());
    const bool tracing = samplerTrace != nullptr && samplerTrace->enabled();
    for (const Id id : sortedIds()) {
        if (kindOf(id) != Kind::kProbe)
            continue;
        const std::uint32_t slot = entries[id].slot;
        Sampled &s = sampled[slot];
        const double v = probes[slot]();
        s.tw.update(now, v);
        if (tracing && (!s.everEmitted || v != s.lastEmitted)) {
            // Category = first dotted segment (component family).
            const std::string_view path = pathOf(id);
            samplerTrace->counter(path.substr(0, path.find('.')), path, now,
                                  v);
            s.everEmitted = true;
            s.lastEmitted = v;
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
