#include "obs/slo.hpp"

#include <cmath>
#include <sstream>
#include <string_view>

#include "obs/json_util.hpp"
#include "obs/metric_names.hpp"
#include "sim/logging.hpp"

namespace ccsim::obs {

SloEngine::SloEngine(TimeSeriesHub &h) : hub(h)
{
    hub.addWindowObserver(
        [this](sim::TimePs t, std::uint64_t seq) { onWindow(t, seq); });
}

SloEngine &
SloEngine::addObjective(SloObjective obj)
{
    if (obj.name.empty())
        sim::fatal("SloEngine::addObjective: empty name");
    if (obj.name.find('.') != std::string::npos)
        sim::fatal("SloEngine::addObjective: name must be a single dotted-"
                   "path segment");
    if (obj.series.empty())
        sim::fatal("SloEngine::addObjective: empty series pattern");
    if (!std::isfinite(obj.threshold))
        sim::fatal("SloEngine::addObjective: threshold must be finite");
    if (!(obj.errorBudget > 0.0 && obj.errorBudget <= 1.0))
        sim::fatal("SloEngine::addObjective: errorBudget must be in (0,1]");
    if (obj.shortWindows < 1 || obj.longWindows < obj.shortWindows)
        sim::fatal("SloEngine::addObjective: need longWindows >= "
                   "shortWindows >= 1");
    if (obj.burnThreshold <= 0.0)
        sim::fatal("SloEngine::addObjective: burnThreshold must be > 0");
    if (obj.evidenceWeight < 0.0)
        sim::fatal("SloEngine::addObjective: evidenceWeight must be >= 0");
    for (const auto &o : objectives) {
        if (o->spec.name == obj.name)
            sim::panicf("SloEngine::addObjective: duplicate objective ",
                        obj.name);
    }
    auto o = std::make_unique<Objective>();
    o->spec = std::move(obj);
    objectives.push_back(std::move(o));
    if (metrics != nullptr)
        bindMetrics(*objectives.back());
    return *this;
}

void
SloEngine::attachObservability(MetricsRegistry &reg)
{
    metrics = &reg;
    for (auto &obj : objectives)
        bindMetrics(*obj);
}

void
SloEngine::bindMetrics(Objective &obj)
{
    if (obj.alertCounter != nullptr)
        return;
    const std::string base = "slo." + obj.spec.name;
    obj.alertCounter = &metrics->counter(base + ".alerts");
    obj.resolveCounter = &metrics->counter(base + ".resolved");
    Objective *op = &obj;
    metrics->registerProbe(base + ".firing", [op] {
        double n = 0;
        for (const auto &[name, st] : op->states)
            n += st.firing ? 1 : 0;
        return n;
    });
    metrics->registerProbe(base + ".burn_long", [op] {
        double m = 0;
        for (const auto &[name, st] : op->states)
            m = std::max(m, st.burnLong);
        return m;
    });
    metrics->registerProbe(base + ".burn_short", [op] {
        double m = 0;
        for (const auto &[name, st] : op->states)
            m = std::max(m, st.burnShort);
        return m;
    });
}

double
SloEngine::statOf(const TsPoint &p, SloStat s)
{
    switch (s) {
    case SloStat::kValue:
        return p.value;
    case SloStat::kDelta:
        return p.delta;
    case SloStat::kRate:
        return p.rate;
    case SloStat::kCount:
        return static_cast<double>(p.count);
    case SloStat::kMean:
        return p.mean;
    case SloStat::kP50:
        return p.p50;
    case SloStat::kP90:
        return p.p90;
    case SloStat::kP99:
        return p.p99;
    case SloStat::kP999:
        return p.p999;
    }
    return 0.0;
}

int
SloEngine::hostFromSeries(const std::string &series)
{
    std::size_t pos = 0;
    while (pos < series.size()) {
        std::size_t dot = series.find('.', pos);
        if (dot == std::string::npos)
            dot = series.size();
        const std::string_view seg(series.data() + pos, dot - pos);
        if (seg.size() > 4 && seg.substr(0, 4) == "node") {
            int v = 0;
            bool digits = true;
            for (char c : seg.substr(4)) {
                if (c < '0' || c > '9') {
                    digits = false;
                    break;
                }
                v = v * 10 + (c - '0');
            }
            if (digits)
                return v;
        }
        pos = dot + 1;
    }
    return -1;
}

void
SloEngine::onWindow(sim::TimePs t, std::uint64_t seq)
{
    (void)seq;
    for (auto &objPtr : objectives) {
        Objective &obj = *objPtr;
        // Bind newly appeared series to this objective (hub series only
        // ever accumulate, so a count check suffices).
        if (hub.seriesCount() != obj.seenSeries) {
            obj.seenSeries = hub.seriesCount();
            for (const std::string &name : hub.seriesNames()) {
                if (matchesMetricPattern(obj.spec.series, name))
                    obj.states.try_emplace(name);
            }
        }
        for (auto &[name, st] : obj.states) {
            const TsPoint *p = hub.latest(name);
            if (p == nullptr || p->t != t)
                continue;
            evaluate(obj, name, st, *p, t);
        }
    }
}

void
SloEngine::evaluate(Objective &obj, const std::string &name, SeriesState &st,
                    const TsPoint &p, sim::TimePs t)
{
    const SloObjective &spec = obj.spec;
    // A histogram window with no samples says nothing about latency
    // percentiles: count it as in-budget rather than inventing a zero.
    bool bad = false;
    const bool histStat = spec.stat >= SloStat::kMean;
    if (!(histStat && hub.kindOf(name) == SeriesKind::kHistogram &&
          p.count == 0)) {
        const double v = statOf(p, spec.stat);
        bad = spec.cmp == SloCmp::kLt ? !(v < spec.threshold)
                                      : !(v > spec.threshold);
    }

    // Push into the trailing ring and recount both burn windows.
    const auto cap = static_cast<std::size_t>(spec.longWindows);
    if (st.bad.size() < cap) {
        st.bad.push_back(bad ? 1 : 0);
        st.used = st.bad.size();
        st.head = st.used % cap;
    } else {
        st.bad[st.head] = bad ? 1 : 0;
        st.head = (st.head + 1) % cap;
        st.used = cap;
    }
    std::size_t badLong = 0, badShort = 0;
    const auto shortN =
        std::min(st.used, static_cast<std::size_t>(spec.shortWindows));
    for (std::size_t i = 0; i < st.used; ++i) {
        // i counts back from the newest entry.
        const std::size_t idx =
            (st.head + st.bad.size() - 1 - i) % st.bad.size();
        badLong += st.bad[idx];
        if (i < shortN)
            badShort += st.bad[idx];
    }
    st.burnLong = static_cast<double>(badLong) /
                  static_cast<double>(st.used) / spec.errorBudget;
    st.burnShort = static_cast<double>(badShort) /
                   static_cast<double>(shortN) / spec.errorBudget;

    const bool burning = st.burnLong >= spec.burnThreshold &&
                         st.burnShort >= spec.burnThreshold;
    if (!st.firing && burning) {
        st.firing = true;
        ++firedCount;
        const int host = hostFromSeries(name);
        Alert a;
        a.objective = spec.name;
        a.series = name;
        a.firedAt = t;
        a.burnLong = st.burnLong;
        a.burnShort = st.burnShort;
        a.host = host;
        st.alertIdx = alerts.size();
        alerts.push_back(std::move(a));
        if (obj.alertCounter != nullptr)
            obj.alertCounter->inc();
        if (trace != nullptr && trace->enabled())
            trace->instant(trace->track("slo"), "slo",
                           spec.name + " fire: " + name, t);
        exportAlert(obj, name, st, t, true, host);
        if (evidence && spec.evidenceWeight > 0.0 && host >= 0)
            evidence(host, "slo." + spec.name, spec.evidenceWeight);
    } else if (st.firing && st.burnShort < spec.burnThreshold) {
        st.firing = false;
        ++resolvedCount;
        alerts[st.alertIdx].resolvedAt = t;
        if (obj.resolveCounter != nullptr)
            obj.resolveCounter->inc();
        if (trace != nullptr && trace->enabled())
            trace->instant(trace->track("slo"), "slo",
                           spec.name + " resolve: " + name, t);
        exportAlert(obj, name, st, t, false, hostFromSeries(name));
    }
}

void
SloEngine::exportAlert(const Objective &obj, const std::string &series,
                       const SeriesState &st, sim::TimePs t, bool fired,
                       int host)
{
    std::ostringstream line;
    line << "{\"type\":\"alert\",\"t_us\":";
    detail::jsonNumber(line, static_cast<double>(t) / 1e6);
    line << ",\"slo\":\"";
    detail::jsonEscape(line, obj.spec.name);
    line << "\",\"series\":\"";
    detail::jsonEscape(line, series);
    line << "\",\"state\":\"" << (fired ? "firing" : "resolved") << "\"";
    detail::jsonFields(
        line, {{"burn_long", st.burnLong}, {"burn_short", st.burnShort}}, true);
    line << ",\"host\":" << host << "}";
    hub.exportLine(line.str());
}

void
SloEngine::writeTimeline(std::ostream &os) const
{
    os << "{\"alerts\":[";
    for (std::size_t i = 0; i < alerts.size(); ++i) {
        const Alert &a = alerts[i];
        if (i)
            os << ",";
        os << "{\"slo\":\"";
        detail::jsonEscape(os, a.objective);
        os << "\",\"series\":\"";
        detail::jsonEscape(os, a.series);
        os << "\",\"fired_us\":";
        detail::jsonNumber(os, static_cast<double>(a.firedAt) / 1e6);
        os << ",\"resolved_us\":";
        if (a.resolvedAt == sim::kTimeNever)
            os << "null";
        else
            detail::jsonNumber(os, static_cast<double>(a.resolvedAt) / 1e6);
        detail::jsonFields(
            os, {{"burn_long", a.burnLong}, {"burn_short", a.burnShort}}, true);
        os << ",\"host\":" << a.host << "}";
    }
    os << "]}";
}

std::string
SloEngine::timelineJson() const
{
    std::ostringstream oss;
    writeTimeline(oss);
    return oss.str();
}

}  // namespace ccsim::obs
