#include "obs/timeseries.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "obs/json_util.hpp"
#include "obs/metric_names.hpp"
#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::obs {

// ---------------------------------------------------------------------
// TimeSeriesHub
// ---------------------------------------------------------------------

TimeSeriesHub::TimeSeriesHub(TimeSeriesConfig c) : cfg(std::move(c))
{
    if (cfg.window <= 0)
        sim::fatal("TimeSeriesHub: window must be > 0");
    for (const auto &g : cfg.include) {
        if (g.empty())
            sim::fatal("TimeSeriesHub: empty include pattern");
    }
}

void
TimeSeriesHub::watchRegistry(const MetricsRegistry *reg)
{
    if (reg == nullptr)
        sim::fatal("TimeSeriesHub::watchRegistry: null registry");
    if (std::find(regs.begin(), regs.end(), reg) != regs.end())
        sim::fatal("TimeSeriesHub::watchRegistry: registry already watched");
    regs.push_back(reg);
    regSeen.push_back(0);
}

void
TimeSeriesHub::defineAggregate(const std::string &name,
                               const std::string &pattern)
{
    if (name.empty() || pattern.empty())
        sim::fatal("TimeSeriesHub::defineAggregate: empty name or pattern");
    if (aggregates.count(name))
        sim::fatal("TimeSeriesHub::defineAggregate: duplicate aggregate");
    Aggregate agg;
    agg.key = jsonKey(name);
    agg.pattern = pattern;
    aggregates.emplace(name, std::move(agg));
}

void
TimeSeriesHub::exportTo(std::ostream *os)
{
    out = os;
    if (out == nullptr)
        return;
    std::ostringstream meta;
    meta << "{\"type\":\"meta\",\"window_us\":";
    detail::jsonNumber(meta, static_cast<double>(cfg.window) / 1e6);
    meta << "}";
    exportLine(meta.str());
}

void
TimeSeriesHub::registerSelfProbes(MetricsRegistry &reg)
{
    reg.registerProbe("ts.windows", [this] {
        return static_cast<double>(windowSeq);
    });
    reg.registerProbe("ts.series", [this] {
        return static_cast<double>(seriesCount());
    });
    reg.registerProbe("ts.exported_lines", [this] {
        return static_cast<double>(linesOut);
    });
}

void
TimeSeriesHub::addWindowObserver(WindowObserver fn)
{
    if (!fn)
        sim::fatal("TimeSeriesHub::addWindowObserver: empty observer");
    observers.push_back(std::move(fn));
}

bool
TimeSeriesHub::includes(const std::string &path) const
{
    if (cfg.include.empty())
        return true;
    for (const auto &g : cfg.include) {
        if (matchesMetricPattern(g, path))
            return true;
    }
    return false;
}

void
TimeSeriesHub::announceSeries(const std::string &name, SeriesKind kind)
{
    if (out == nullptr)
        return;
    std::ostringstream line;
    line << "{\"type\":\"series\",\"name\":\"";
    detail::jsonEscape(line, name);
    line << "\",\"kind\":\"" << kindName(kind) << "\"}";
    exportLine(line.str());
}

void
TimeSeriesHub::discover()
{
    using Id = MetricsRegistry::Id;
    for (std::size_t ri = 0; ri < regs.size(); ++ri) {
        const MetricsRegistry *reg = regs[ri];
        // Only the ids registered since the last window are new; they
        // are announced in path order, as a sorted rescan would.
        if (regSeen[ri] == reg->size())
            continue;
        const std::vector<Id> fresh =
            reg->idsInPathOrder(static_cast<Id>(regSeen[ri]));
        regSeen[ri] = reg->size();
        for (const Id id : fresh) {
            const std::string path = reg->pathOf(id);
            if (series.count(path) || !includes(path))
                continue;
            if (aggregates.count(path))
                sim::panicf("TimeSeriesHub: registry path ", path,
                            " collides with an aggregate series");
            Series s;
            s.key = jsonKey(path);
            s.kind = reg->kindOf(id);
            s.reg = reg;
            s.id = id;
            announceSeries(path, s.kind);
            series.emplace(path, std::move(s));
        }
    }
}

void
TimeSeriesHub::refreshAggregate(const std::string &name, Aggregate &agg)
{
    if (agg.seenSeries == series.size())
        return;
    agg.seenSeries = series.size();
    agg.members.clear();
    for (const auto &[path, s] : series) {
        if (!matchesMetricPattern(agg.pattern, path))
            continue;
        if (agg.members.empty()) {
            agg.kind = s.kind;
        } else if (s.kind != agg.kind) {
            sim::panicf("TimeSeriesHub: aggregate ", name,
                        " mixes metric kinds (", kindName(agg.kind), " vs ",
                        kindName(s.kind), " at ", path, ")");
        }
        if (s.kind == SeriesKind::kHistogram && !agg.members.empty()) {
            const auto a = agg.members.front()->hist().binning();
            const auto b = s.hist().binning();
            if (a.minValue != b.minValue ||
                a.binsPerOctave != b.binsPerOctave)
                sim::panicf("TimeSeriesHub: aggregate ", name,
                            " mixes histogram binnings at ", path);
        }
        agg.members.push_back(&s);
    }
    if (!agg.members.empty() && !agg.announced) {
        announceSeries(name, agg.kind);
        agg.announced = true;
    }
}

namespace {

/** True when a cumulative histogram shrank — the component was cleared. */
bool
binsDecreased(const std::vector<std::uint64_t> &cur,
              const std::vector<std::uint64_t> &prev)
{
    if (cur.size() < prev.size())
        return true;
    for (std::size_t i = 0; i < prev.size(); ++i)
        if (cur[i] < prev[i])
            return true;
    return false;
}

}  // namespace

TsPoint
TimeSeriesHub::scalarPoint(sim::TimePs now, double cur, SeriesKind kind,
                           double span, Rollup &r)
{
    TsPoint p;
    p.t = now;
    p.value = cur;
    p.delta = cur - r.prevValue;
    r.prevValue = cur;
    // Counter-reset rule: a monotonic count that decreased means the
    // component restarted; the window's delta is everything accumulated
    // since the reset.
    if (kind == SeriesKind::kCounter && p.delta < 0.0)
        p.delta = p.value;
    if (kind != SeriesKind::kGauge)
        p.rate = p.delta / span;
    return p;
}

TsPoint
TimeSeriesHub::histogramPoint(sim::TimePs now,
                              sim::LogHistogram::Binning binning,
                              std::vector<std::uint64_t> bins, double sum,
                              std::uint64_t count, double span,
                              Rollup &r)
{
    // Same reset rule for histograms: a component clearing its stats
    // mid-run (fig08 does per-load-step clearStats) must restart the
    // window delta from zero, not panic.
    if (binsDecreased(bins, r.prevBins)) {
        r.prevBins.clear();
        r.prevSum = 0.0;
    }
    // After the reset check every previous bin exists and is <= now.
    std::vector<std::uint64_t> window = bins;
    for (std::size_t i = 0; i < r.prevBins.size(); ++i)
        window[i] -= r.prevBins[i];
    const sim::LogHistogram w = sim::LogHistogram::fromBins(
        binning, std::move(window), sum - r.prevSum);
    r.prevBins = std::move(bins);
    r.prevSum = sum;
    TsPoint p;
    p.t = now;
    p.value = static_cast<double>(count);
    p.count = w.count();
    p.delta = static_cast<double>(w.count());
    p.rate = p.delta / span;
    p.mean = w.mean();
    p.p50 = w.percentile(50.0);
    p.p90 = w.percentile(90.0);
    p.p99 = w.percentile(99.0);
    p.p999 = w.percentile(99.9);
    return p;
}

double
TimeSeriesHub::Series::current() const
{
    switch (kind) {
    case SeriesKind::kCounter:
        return static_cast<double>(reg->counterAt(id).get());
    case SeriesKind::kGauge:
        return reg->gaugeAt(id).value();
    case SeriesKind::kProbe:
        return reg->probeValueAt(id);
    case SeriesKind::kHistogram:
        break;
    }
    return 0.0;
}

void
TimeSeriesHub::rollSeries(Series &s, sim::TimePs now, double span)
{
    if (s.kind != SeriesKind::kHistogram) {
        s.roll.last = scalarPoint(now, s.current(), s.kind, span, s.roll);
        return;
    }
    const sim::LogHistogram &h = s.hist();
    s.roll.last = histogramPoint(now, h.binning(), h.binCounts(), h.sum(),
                                 h.count(), span, s.roll);
}

void
TimeSeriesHub::rollAggregate(Aggregate &agg, sim::TimePs now, double span)
{
    if (agg.members.empty())
        return;
    if (agg.kind != SeriesKind::kHistogram) {
        double cur = 0.0;
        for (const Series *m : agg.members)
            cur += m->current();
        agg.roll.last = scalarPoint(now, cur, agg.kind, span, agg.roll);
        return;
    }
    // Merged cumulative bins across members; the diff against the
    // aggregate's own previous snapshot is exactly the sum of the
    // members' windowed bin counts (bin counts are integers).
    std::vector<std::uint64_t> bins;
    std::uint64_t count = 0;
    double sum = 0.0;
    for (const Series *m : agg.members) {
        const auto &mb = m->hist().binCounts();
        if (mb.size() > bins.size())
            bins.resize(mb.size(), 0);
        for (std::size_t b = 0; b < mb.size(); ++b)
            bins[b] += mb[b];
        count += m->hist().count();
        sum += m->hist().sum();
    }
    agg.roll.last =
        histogramPoint(now, agg.members.front()->hist().binning(),
                       std::move(bins), sum, count, span, agg.roll);
}

void
TimeSeriesHub::rollAt(sim::TimePs now)
{
    ++windowSeq;
    discover();
    for (auto &[name, agg] : aggregates)
        refreshAggregate(name, agg);
    const double span = static_cast<double>(cfg.window) / 1e12;
    for (auto &[name, s] : series)
        rollSeries(s, now, span);
    for (auto &[name, agg] : aggregates)
        rollAggregate(agg, now, span);
    exportWindow(now);
    traceWindow(now);
    for (const auto &fn : observers)
        fn(now, windowSeq);
    if (out != nullptr)
        out->flush();
}

namespace {

/** Serialize one window point according to the series kind. */
void
pointTo(std::string &out, SeriesKind kind, const TsPoint &p)
{
    using detail::jsonFields;
    if (kind == SeriesKind::kHistogram) {
        out += "{\"n\":";
        detail::jsonUint(out, p.count);
        jsonFields(out,
                   {{"v", p.value}, {"r", p.rate}, {"mean", p.mean},
                    {"p50", p.p50}, {"p90", p.p90}, {"p99", p.p99},
                    {"p999", p.p999}},
                   true);
    } else {
        out += '{';
        jsonFields(out, {{"v", p.value}, {"d", p.delta}});
        if (kind != SeriesKind::kGauge)
            jsonFields(out, {{"r", p.rate}}, true);
    }
    out += '}';
}

}  // namespace

void
TimeSeriesHub::exportWindow(sim::TimePs now)
{
    if (out == nullptr)
        return;
    std::string &line = lineBuf;
    line = "{\"type\":\"window\",\"seq\":";
    detail::jsonUint(line, windowSeq);
    line += ",\"t_us\":";
    detail::jsonNumber(line, static_cast<double>(now) / 1e6);
    line += ",\"series\":{";
    bool first = true;
    // Two-pointer merge over the sorted concrete and aggregate maps so
    // series appear in one global sorted order.
    auto si = series.cbegin();
    auto ai = aggregates.cbegin();
    auto emit = [&](const std::string &key, SeriesKind kind,
                    const Rollup &r) {
        if (!r.last || r.last->t != now)
            return;
        if (!first)
            line += ',';
        first = false;
        line += key;
        pointTo(line, kind, *r.last);
    };
    while (si != series.cend() || ai != aggregates.cend()) {
        if (ai == aggregates.cend() ||
            (si != series.cend() && si->first < ai->first)) {
            emit(si->second.key, si->second.kind, si->second.roll);
            ++si;
        } else {
            if (!ai->second.members.empty())
                emit(ai->second.key, ai->second.kind, ai->second.roll);
            ++ai;
        }
    }
    line += "}}";
    exportLine(line);
}

std::string
TimeSeriesHub::jsonKey(const std::string &name)
{
    std::string key = "\"";
    detail::jsonEscape(key, name);
    key += "\":";
    return key;
}

void
TimeSeriesHub::traceWindow(sim::TimePs now)
{
    if (trace == nullptr || !trace->enabled())
        return;
    // A fresh track's NaNs differ from any reading, so it draws once.
    auto draw = [&](const std::string &name, SeriesKind kind, Rollup &r) {
        if (!r.last || r.last->t != now)
            return;
        const TsPoint &p = *r.last;
        const std::string_view cat =
            std::string_view(name).substr(0, name.find('.'));
        if (kind == SeriesKind::kHistogram) {
            if (p.p50 == r.drawn[0] && p.p99 == r.drawn[1])
                return;
            trace->counterMulti(cat, name, now,
                                {{"p50", p.p50}, {"p99", p.p99}});
            r.drawn[0] = p.p50;
            r.drawn[1] = p.p99;
            return;
        }
        const double v = kind == SeriesKind::kCounter ? p.rate : p.value;
        if (v == r.drawn[0])
            return;
        trace->counter(cat, name, now, v);
        r.drawn[0] = v;
    };
    for (auto &[name, s] : series)
        draw(name, s.kind, s.roll);
    for (auto &[name, agg] : aggregates) {
        if (!agg.members.empty())
            draw(name, agg.kind, agg.roll);
    }
}

void
TimeSeriesHub::startSampling(sim::ShardedEventQueue &sq)
{
    if (sampling)
        sim::panic("TimeSeriesHub::startSampling: already sampling "
                   "(barrier hooks cannot be deregistered)");
    sampling = true;
    const sim::TimePs first = sq.now() + cfg.window;
    sq.atBarrier(
        [this, w = cfg.window, due = first](sim::TimePs e) mutable
        -> sim::TimePs {
            // Deadlines guarantee a barrier lands exactly on each
            // window end.
            if (e == due) {
                rollAt(e);
                due += w;
            }
            return due;
        },
        first);
}

std::size_t
TimeSeriesHub::seriesCount() const
{
    std::size_t n = series.size();
    for (const auto &[name, agg] : aggregates) {
        if (!agg.members.empty())
            ++n;
    }
    return n;
}

std::vector<std::string>
TimeSeriesHub::seriesNames() const
{
    std::vector<std::string> names;
    names.reserve(seriesCount());
    for (const auto &[name, s] : series)
        names.push_back(name);
    for (const auto &[name, agg] : aggregates) {
        if (!agg.members.empty())
            names.push_back(name);
    }
    return names;
}

SeriesKind
TimeSeriesHub::kindOf(const std::string &name) const
{
    if (auto it = series.find(name); it != series.end())
        return it->second.kind;
    if (auto it = aggregates.find(name);
        it != aggregates.end() && !it->second.members.empty())
        return it->second.kind;
    sim::panicf("TimeSeriesHub::kindOf: unknown series ", name);
}

const TsPoint *
TimeSeriesHub::latest(const std::string &name) const
{
    const Rollup *r = nullptr;
    if (auto it = series.find(name); it != series.end())
        r = &it->second.roll;
    else if (auto ia = aggregates.find(name); ia != aggregates.end())
        r = &ia->second.roll;
    return r == nullptr || !r->last ? nullptr : &*r->last;
}

void
TimeSeriesHub::exportLine(const std::string &json)
{
    if (out == nullptr)
        return;
    *out << json << '\n';
    ++linesOut;
}

std::string
TimeSeriesHub::envPath()
{
    const char *p = std::getenv("CCSIM_TS");
    return p ? std::string(p) : std::string();
}

const char *
TimeSeriesHub::kindName(SeriesKind k)
{
    static const char *const kNames[] = {"counter", "gauge", "histogram",
                                         "probe"};
    return kNames[static_cast<int>(k)];
}

}  // namespace ccsim::obs
