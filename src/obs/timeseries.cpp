#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/json_util.hpp"
#include "obs/metric_names.hpp"
#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::obs {

// ---------------------------------------------------------------------
// HistogramSketch
// ---------------------------------------------------------------------

HistogramSketch
HistogramSketch::diff(sim::LogHistogram::Binning binning,
                      const std::vector<std::uint64_t> &cur_bins,
                      const std::vector<std::uint64_t> &prev_bins,
                      double sum_delta)
{
    HistogramSketch s(binning.minValue, binning.binsPerOctave);
    s.bins.resize(cur_bins.size(), 0);
    for (std::size_t i = 0; i < cur_bins.size(); ++i) {
        const std::uint64_t before = i < prev_bins.size() ? prev_bins[i] : 0;
        if (cur_bins[i] < before)
            sim::panic("HistogramSketch::diff: bin count decreased "
                       "(histogram was cleared mid-window?)");
        s.bins[i] = cur_bins[i] - before;
        s.total += s.bins[i];
    }
    s.sumVal = sum_delta;
    return s;
}

HistogramSketch
HistogramSketch::since(const sim::LogHistogram &cur,
                       const std::vector<std::uint64_t> &prev_bins,
                       double prev_sum)
{
    return diff(cur.binning(), cur.binCounts(), prev_bins,
                cur.sum() - prev_sum);
}

void
HistogramSketch::merge(const HistogramSketch &other)
{
    if (minVal != other.minVal || octave != other.octave)
        sim::panic("HistogramSketch::merge: binning parameters differ");
    if (other.bins.size() > bins.size())
        bins.resize(other.bins.size(), 0);
    for (std::size_t i = 0; i < other.bins.size(); ++i)
        bins[i] += other.bins[i];
    total += other.total;
    sumVal += other.sumVal;
}

double
HistogramSketch::binLowerEdge(std::size_t idx) const
{
    if (idx == 0)
        return 0.0;
    return minVal * std::exp2(static_cast<double>(idx - 1) / octave);
}

double
HistogramSketch::percentile(double p) const
{
    if (total == 0)
        return 0.0;
    if (p < 0.0 || p > 100.0)
        sim::panicf("HistogramSketch::percentile: p=", p, " out of [0,100]");
    const auto target = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total)));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
        cum += bins[i];
        if (cum >= target && bins[i] > 0) {
            // Same geometric-midpoint rule as LogHistogram::percentile;
            // a delta sketch cannot clamp to the window's exact
            // min/max, so the bin width bounds the error instead.
            const double lo = binLowerEdge(i);
            const double hi = binLowerEdge(i + 1);
            return lo > 0.0 ? std::sqrt(lo * hi) : hi * 0.5;
        }
    }
    return binLowerEdge(bins.size());
}

void
HistogramSketch::clear()
{
    bins.clear();
    total = 0;
    sumVal = 0.0;
}

// ---------------------------------------------------------------------
// TimeSeriesHub
// ---------------------------------------------------------------------

namespace {

/** Seconds spanned by @p n base windows of width @p w. */
double
spanSeconds(int n, sim::TimePs w)
{
    return static_cast<double>(n) * static_cast<double>(w) / 1e12;
}

}  // namespace

void
TimeSeriesHub::Ring::push(const TsPoint &p)
{
    if (buf.size() < cap) {
        buf.push_back(p);
        head = buf.size() % cap;
        used = buf.size();
        return;
    }
    buf[head] = p;
    head = (head + 1) % cap;
    used = cap;
}

TimeSeriesHub::TimeSeriesHub(TimeSeriesConfig c) : cfg(std::move(c))
{
    if (cfg.window <= 0)
        sim::fatal("TimeSeriesHub: window must be > 0");
    if (cfg.levels.empty())
        sim::fatal("TimeSeriesHub: at least one retention level required");
    if (cfg.levels.front().stride != 1)
        sim::fatal("TimeSeriesHub: first level must have stride 1");
    int prev = 0;
    for (const auto &lv : cfg.levels) {
        if (lv.stride <= prev)
            sim::fatal("TimeSeriesHub: level strides must be strictly "
                       "increasing");
        if (lv.capacity < 2)
            sim::fatal("TimeSeriesHub: level capacity must be >= 2");
        prev = lv.stride;
    }
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
    // ~0 forces a first discover() even on a registry that is still empty.
    regVersions.push_back(~std::uint64_t{0});
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
    agg.pattern = pattern;
    agg.levels.resize(cfg.levels.size());
    for (std::size_t i = 0; i < cfg.levels.size(); ++i)
        agg.levels[i].ring.cap = cfg.levels[i].capacity;
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
    meta << ",\"levels\":[";
    for (std::size_t i = 0; i < cfg.levels.size(); ++i) {
        if (i)
            meta << ",";
        meta << "{\"stride\":" << cfg.levels[i].stride
             << ",\"capacity\":" << cfg.levels[i].capacity << "}";
    }
    meta << "]}";
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
    reg.registerProbe("ts.points", [this] {
        return static_cast<double>(pointsRetained());
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
    for (std::size_t ri = 0; ri < regs.size(); ++ri) {
        const MetricsRegistry *reg = regs[ri];
        // Path discovery walks every registered metric; skip it on the
        // (overwhelmingly common) windows where nothing new appeared.
        if (regVersions[ri] == reg->version())
            continue;
        regVersions[ri] = reg->version();
        for (const std::string &path : reg->paths()) {
            if (series.count(path) || !includes(path))
                continue;
            if (aggregates.count(path))
                sim::panicf("TimeSeriesHub: registry path ", path,
                            " collides with an aggregate series");
            Series s;
            s.reg = reg;
            if (const sim::Counter *c = reg->findCounter(path)) {
                s.kind = SeriesKind::kCounter;
                s.counter = c;
            } else if (const Gauge *g = reg->findGauge(path)) {
                s.kind = SeriesKind::kGauge;
                s.gauge = g;
            } else if (const sim::LogHistogram *h = reg->findHistogram(path)) {
                s.kind = SeriesKind::kHistogram;
                s.hist = h;
            } else if (reg->hasProbe(path)) {
                s.kind = SeriesKind::kProbe;
            } else {
                continue;  // unknown kind (future registry extension)
            }
            s.levels.resize(cfg.levels.size());
            for (std::size_t i = 0; i < cfg.levels.size(); ++i)
                s.levels[i].ring.cap = cfg.levels[i].capacity;
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
    agg.memberNames.clear();
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
            const auto a = agg.members.front()->hist->binning();
            const auto b = s.hist->binning();
            if (a.minValue != b.minValue ||
                a.binsPerOctave != b.binsPerOctave)
                sim::panicf("TimeSeriesHub: aggregate ", name,
                            " mixes histogram binnings at ", path);
        }
        agg.members.push_back(&s);
        agg.memberNames.push_back(path);
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
TimeSeriesHub::scalarPoint(sim::TimePs now, double cur, LevelState &lv) const
{
    TsPoint p;
    p.t = now;
    p.value = cur;
    p.delta = cur - lv.prevValue;
    lv.prevValue = cur;
    return p;
}

void
TimeSeriesHub::rollSeries(const std::string &name, Series &s, sim::TimePs now)
{
    for (std::size_t i = 0; i < cfg.levels.size(); ++i) {
        const int stride = cfg.levels[i].stride;
        if (windowSeq % static_cast<std::uint64_t>(stride) != 0)
            continue;
        LevelState &lv = s.levels[i];
        const double span = spanSeconds(stride, cfg.window);
        TsPoint p;
        switch (s.kind) {
        case SeriesKind::kCounter:
            p = scalarPoint(now, static_cast<double>(s.counter->get()), lv);
            // Counter-reset rule: a monotonic count that decreased means
            // the component restarted; the window's delta is everything
            // accumulated since the reset.
            if (p.delta < 0.0)
                p.delta = p.value;
            p.rate = p.delta / span;
            break;
        case SeriesKind::kGauge:
            p = scalarPoint(now, s.gauge->value(), lv);
            break;
        case SeriesKind::kProbe:
            p = scalarPoint(now, s.reg->probeValue(name), lv);
            p.rate = p.delta / span;
            break;
        case SeriesKind::kHistogram: {
            std::vector<std::uint64_t> cur = s.hist->binCounts();
            // Same reset rule for histograms: a component clearing its
            // stats mid-run (fig08 does per-load-step clearStats) must
            // restart the window delta from zero, not panic.
            if (binsDecreased(cur, lv.prevBins)) {
                lv.prevBins.clear();
                lv.prevSum = 0.0;
            }
            const HistogramSketch sk = HistogramSketch::diff(
                s.hist->binning(), cur, lv.prevBins,
                s.hist->sum() - lv.prevSum);
            lv.prevBins = std::move(cur);
            lv.prevSum = s.hist->sum();
            p.t = now;
            p.value = static_cast<double>(s.hist->count());
            p.count = sk.count();
            p.delta = static_cast<double>(sk.count());
            p.rate = p.delta / span;
            p.mean = sk.mean();
            p.p50 = sk.percentile(50.0);
            p.p90 = sk.percentile(90.0);
            p.p99 = sk.percentile(99.0);
            p.p999 = sk.percentile(99.9);
            break;
        }
        }
        lv.ring.push(p);
    }
}

void
TimeSeriesHub::rollAggregate(const std::string &name, Aggregate &agg,
                             sim::TimePs now)
{
    (void)name;
    if (agg.members.empty())
        return;
    for (std::size_t i = 0; i < cfg.levels.size(); ++i) {
        const int stride = cfg.levels[i].stride;
        if (windowSeq % static_cast<std::uint64_t>(stride) != 0)
            continue;
        LevelState &lv = agg.levels[i];
        const double span = spanSeconds(stride, cfg.window);
        TsPoint p;
        if (agg.kind == SeriesKind::kHistogram) {
            // Merged cumulative bins across members; the diff against the
            // aggregate's own previous snapshot is exactly the sum of the
            // members' windowed sketches (bin counts are integers).
            std::vector<std::uint64_t> bins;
            std::uint64_t cum = 0;
            double sum = 0.0;
            for (const Series *m : agg.members) {
                const auto &mb = m->hist->binCounts();
                if (mb.size() > bins.size())
                    bins.resize(mb.size(), 0);
                for (std::size_t b = 0; b < mb.size(); ++b)
                    bins[b] += mb[b];
                cum += m->hist->count();
                sum += m->hist->sum();
            }
            if (binsDecreased(bins, lv.prevBins)) {
                lv.prevBins.clear();  // member reset: restart the delta
                lv.prevSum = 0.0;
            }
            HistogramSketch sk = HistogramSketch::diff(
                agg.members.front()->hist->binning(), bins, lv.prevBins,
                sum - lv.prevSum);
            lv.prevBins = std::move(bins);
            lv.prevSum = sum;
            p.t = now;
            p.value = static_cast<double>(cum);
            p.count = sk.count();
            p.delta = static_cast<double>(sk.count());
            p.rate = p.delta / span;
            p.mean = sk.mean();
            p.p50 = sk.percentile(50.0);
            p.p90 = sk.percentile(90.0);
            p.p99 = sk.percentile(99.0);
            p.p999 = sk.percentile(99.9);
        } else {
            double cur = 0.0;
            for (std::size_t m = 0; m < agg.members.size(); ++m) {
                const Series *s = agg.members[m];
                switch (agg.kind) {
                case SeriesKind::kCounter:
                    cur += static_cast<double>(s->counter->get());
                    break;
                case SeriesKind::kGauge:
                    cur += s->gauge->value();
                    break;
                case SeriesKind::kProbe:
                    cur += s->reg->probeValue(agg.memberNames[m]);
                    break;
                case SeriesKind::kHistogram:
                    break;  // handled above
                }
            }
            p = scalarPoint(now, cur, lv);
            if (agg.kind == SeriesKind::kCounter && p.delta < 0.0)
                p.delta = p.value;  // member reset (see rollSeries)
            if (agg.kind != SeriesKind::kGauge)
                p.rate = p.delta / span;
        }
        lv.ring.push(p);
    }
}

void
TimeSeriesHub::rollAt(sim::TimePs now)
{
    ++windowSeq;
    discover();
    for (auto &[name, agg] : aggregates)
        refreshAggregate(name, agg);
    for (auto &[name, s] : series)
        rollSeries(name, s, now);
    for (auto &[name, agg] : aggregates)
        rollAggregate(name, agg, now);
    exportWindow(now);
    traceWindow(now);
    for (const auto &fn : observers)
        fn(now, windowSeq);
    if (out != nullptr)
        out->flush();
}

namespace {

/** Serialize one base-window point according to the series kind. */
void
pointTo(std::ostream &os, SeriesKind kind, const TsPoint &p)
{
    using detail::jsonNumber;
    os << "{";
    if (kind == SeriesKind::kHistogram) {
        os << "\"n\":" << p.count << ",\"v\":";
        jsonNumber(os, p.value);
        os << ",\"r\":";
        jsonNumber(os, p.rate);
        os << ",\"mean\":";
        jsonNumber(os, p.mean);
        os << ",\"p50\":";
        jsonNumber(os, p.p50);
        os << ",\"p90\":";
        jsonNumber(os, p.p90);
        os << ",\"p99\":";
        jsonNumber(os, p.p99);
        os << ",\"p999\":";
        jsonNumber(os, p.p999);
    } else {
        os << "\"v\":";
        jsonNumber(os, p.value);
        os << ",\"d\":";
        jsonNumber(os, p.delta);
        if (kind != SeriesKind::kGauge) {
            os << ",\"r\":";
            jsonNumber(os, p.rate);
        }
    }
    os << "}";
}

}  // namespace

void
TimeSeriesHub::exportWindow(sim::TimePs now)
{
    if (out == nullptr)
        return;
    std::ostringstream line;
    line << "{\"type\":\"window\",\"seq\":" << windowSeq << ",\"t_us\":";
    detail::jsonNumber(line, static_cast<double>(now) / 1e6);
    line << ",\"series\":{";
    bool first = true;
    // Two-pointer merge over the sorted concrete and aggregate maps so
    // series appear in one global sorted order.
    auto si = series.cbegin();
    auto ai = aggregates.cbegin();
    auto emit = [&](const std::string &name, SeriesKind kind,
                    const LevelState &lv) {
        const TsPoint *p = lv.ring.latestPoint();
        if (p == nullptr || p->t != now)
            return;
        if (!first)
            line << ",";
        first = false;
        line << "\"";
        detail::jsonEscape(line, name);
        line << "\":";
        pointTo(line, kind, *p);
    };
    while (si != series.cend() || ai != aggregates.cend()) {
        if (ai == aggregates.cend() ||
            (si != series.cend() && si->first < ai->first)) {
            emit(si->first, si->second.kind, si->second.levels.front());
            ++si;
        } else {
            if (!ai->second.members.empty())
                emit(ai->first, ai->second.kind, ai->second.levels.front());
            ++ai;
        }
    }
    line << "}}";
    exportLine(line.str());
}

void
TimeSeriesHub::traceWindow(sim::TimePs now)
{
    if (trace == nullptr || !trace->enabled())
        return;
    auto emit = [&](const std::string &name, SeriesKind kind,
                    const LevelState &lv) {
        const TsPoint *lp = lv.ring.latestPoint();
        if (lp == nullptr || lp->t != now)
            return;
        const TsPoint p = *lp;
        switch (kind) {
        case SeriesKind::kGauge:
            trace->counter("ts", "ts." + name, now, p.value);
            break;
        case SeriesKind::kCounter:
        case SeriesKind::kProbe:
            trace->counter("ts", "ts." + name, now, p.rate);
            break;
        case SeriesKind::kHistogram:
            trace->counterMulti("ts", "ts." + name, now,
                                {{"p50", p.p50}, {"p99", p.p99}});
            break;
        }
    };
    for (const auto &[name, s] : series)
        emit(name, s.kind, s.levels.front());
    for (const auto &[name, agg] : aggregates) {
        if (!agg.members.empty())
            emit(name, agg.kind, agg.levels.front());
    }
}

void
TimeSeriesHub::startSampling(sim::ShardedEventQueue &sq)
{
    const sim::TimePs first = sq.now() + cfg.window;
    sq.atBarrier(
        [this, w = cfg.window, due = first](sim::TimePs e) mutable
        -> sim::TimePs {
            // Deadlines guarantee a barrier lands exactly on each
            // window end (the ShardedObservability mechanism).
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
    const LevelState *lv = nullptr;
    if (auto it = series.find(name); it != series.end())
        lv = &it->second.levels.front();
    else if (auto ia = aggregates.find(name); ia != aggregates.end())
        lv = &ia->second.levels.front();
    return lv == nullptr ? nullptr : lv->ring.latestPoint();
}

std::vector<TsPoint>
TimeSeriesHub::history(const std::string &name, int level) const
{
    if (level < 0 || static_cast<std::size_t>(level) >= cfg.levels.size())
        sim::panicf("TimeSeriesHub::history: level ", level, " out of range");
    const std::vector<LevelState> *levels = nullptr;
    if (auto it = series.find(name); it != series.end())
        levels = &it->second.levels;
    else if (auto ia = aggregates.find(name); ia != aggregates.end())
        levels = &ia->second.levels;
    else
        sim::panicf("TimeSeriesHub::history: unknown series ", name);
    const Ring &r = (*levels)[static_cast<std::size_t>(level)].ring;
    std::vector<TsPoint> outv;
    outv.reserve(r.used);
    const std::size_t start = r.used < r.cap ? 0 : r.head;
    for (std::size_t i = 0; i < r.used; ++i)
        outv.push_back(r.buf[(start + i) % r.buf.size()]);
    return outv;
}

std::uint64_t
TimeSeriesHub::pointsRetained() const
{
    std::uint64_t n = 0;
    for (const auto &[name, s] : series) {
        for (const auto &lv : s.levels)
            n += lv.ring.used;
    }
    for (const auto &[name, agg] : aggregates) {
        for (const auto &lv : agg.levels)
            n += lv.ring.used;
    }
    return n;
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
    switch (k) {
    case SeriesKind::kCounter:
        return "counter";
    case SeriesKind::kGauge:
        return "gauge";
    case SeriesKind::kProbe:
        return "probe";
    case SeriesKind::kHistogram:
        return "histogram";
    }
    return "?";
}

}  // namespace ccsim::obs
