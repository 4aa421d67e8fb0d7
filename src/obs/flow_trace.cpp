#include "obs/flow_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ccsim::obs {

namespace {

/** A span clipped to the flow window. */
struct ClippedSpan {
    sim::TimePs start;
    sim::TimePs end;
    const Span *span;
};

/**
 * Timeline sweep over [t.start, t.end): cut the window at every clipped
 * span boundary and hand each segment to @p emit together with the
 * winning span (highest priority = lowest Component ordinal, ties broken
 * by lowest span id) or nullptr when no span covers the segment. The
 * segments partition the window, which is what makes the attribution sum
 * exact by construction.
 */
template <typename Fn>
void
sweepTimeline(const FlowTrace &t, Fn &&emit)
{
    const sim::TimePs t0 = t.start;
    const sim::TimePs t1 = t.end;
    if (t1 <= t0)
        return;
    std::vector<ClippedSpan> clipped;
    std::vector<sim::TimePs> cuts;
    cuts.push_back(t0);
    cuts.push_back(t1);
    for (const Span &s : t.spans) {
        const sim::TimePs a = std::max(s.start, t0);
        const sim::TimePs b = std::min(s.end, t1);
        if (b <= a)
            continue;
        clipped.push_back(ClippedSpan{a, b, &s});
        cuts.push_back(a);
        cuts.push_back(b);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const sim::TimePs a = cuts[i];
        const sim::TimePs b = cuts[i + 1];
        const Span *best = nullptr;
        for (const ClippedSpan &c : clipped) {
            if (c.start > a || c.end < b)
                continue;
            if (best == nullptr ||
                static_cast<int>(c.span->comp) <
                    static_cast<int>(best->comp) ||
                (c.span->comp == best->comp && c.span->id < best->id))
                best = c.span;
        }
        emit(best, b - a);
    }
}

}  // namespace

const char *
componentName(Component c)
{
    switch (c) {
    case Component::kRetransmit:
        return "retransmit";
    case Component::kPfcPause:
        return "pfc_pause";
    case Component::kCompute:
        return "compute";
    case Component::kSerialization:
        return "serialization";
    case Component::kPropagation:
        return "propagation";
    case Component::kCongestionWindow:
        return "congestion_window";
    case Component::kQueueing:
        return "queueing";
    }
    return "unknown";
}

LatencyAttribution
attributeLatency(const FlowTrace &t)
{
    LatencyAttribution a;
    a.total = t.latency() < 0 ? 0 : t.latency();
    sweepTimeline(t, [&a](const Span *best, sim::TimePs dur) {
        const Component c = best ? best->comp : Component::kQueueing;
        a.byComponent[static_cast<int>(c)] += dur;
    });
    return a;
}

std::vector<HopAttribution>
attributeByHop(const FlowTrace &t)
{
    std::vector<HopAttribution> rows;
    auto row = [&rows](std::string_view hop) -> HopAttribution & {
        for (auto &r : rows)
            if (r.hop == hop)
                return r;
        rows.push_back(HopAttribution{std::string(hop), {}});
        return rows.back();
    };
    sweepTimeline(t, [&](const Span *best, sim::TimePs dur) {
        if (best) {
            row(best->hop)
                .byComponent[static_cast<int>(best->comp)] += dur;
        } else {
            row("(unattributed)")
                .byComponent[static_cast<int>(Component::kQueueing)] += dur;
        }
    });
    return rows;
}

std::string
formatAttributionTable(const FlowTrace &t)
{
    const auto rows = attributeByHop(t);
    const auto attr = attributeLatency(t);
    std::ostringstream os;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "flow %s (id %llu): total %.3f us%s\n", t.flow.c_str(),
                  static_cast<unsigned long long>(t.traceId),
                  sim::toMicros(attr.total),
                  attr.consistent() ? "" : "  [INCONSISTENT]");
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "  %-28s %9s %9s %9s %9s %9s %9s %9s %10s\n", "hop",
                  "retx", "pfc", "compute", "serial", "prop", "cwnd",
                  "queue", "total(us)");
    os << buf;
    // One row per hop, then the flow total; columns in Component order.
    auto row = [&](const std::string &hop,
                   const std::array<sim::TimePs, kNumComponents> &by,
                   sim::TimePs total) {
        std::snprintf(buf, sizeof buf, "  %-28s", hop.c_str());
        os << buf;
        for (const sim::TimePs ps : by) {
            std::snprintf(buf, sizeof buf, " %9.3f", sim::toMicros(ps));
            os << buf;
        }
        std::snprintf(buf, sizeof buf, " %10.3f\n", sim::toMicros(total));
        os << buf;
    };
    for (const auto &r : rows)
        row(r.hop, r.byComponent, r.total());
    row("(total)", attr.byComponent, attr.sum());
    return os.str();
}

// ---------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------

void
FlightRecorder::setTailCapacity(std::size_t n)
{
    tailCap = n;
    while (kept.size() > tailCap) {
        const std::size_t min_i = leastBad();
        dropSpans(kept[min_i].spans.size());
        kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(min_i));
    }
}

std::size_t
FlightRecorder::leastBad() const
{
    // Lowest latency; ties: newest.
    std::size_t min_i = 0;
    for (std::size_t i = 1; i < kept.size(); ++i) {
        if (kept[i].latency() < kept[min_i].latency() ||
            (kept[i].latency() == kept[min_i].latency() &&
             kept[i].traceId > kept[min_i].traceId))
            min_i = i;
    }
    return min_i;
}

void
FlightRecorder::bindMetrics(MetricsRegistry &reg)
{
    mSampled = &reg.counter("trace.sampled_flows");
    mDropped = &reg.counter("trace.dropped_spans");
    // Fold in anything recorded before the bind.
    if (sampledCount > mSampled->get())
        mSampled->inc(sampledCount - mSampled->get());
    if (droppedCount > mDropped->get())
        mDropped->inc(droppedCount - mDropped->get());
}

FlowTrace *
FlightRecorder::findActive(const TraceContext &ctx)
{
    auto it = active.find(ctx.traceId);
    return it == active.end() ? nullptr : &it->second;
}

void
FlightRecorder::dropSpans(std::uint64_t n)
{
    if (n == 0)
        return;
    droppedCount += n;
    if (mDropped)
        mDropped->inc(n);
}

TraceContext
FlightRecorder::beginFlow(std::string_view flow, sim::TimePs now)
{
    if (!on)
        return TraceContext{};
    ++started;
    if (decimator++ % every != 0)
        return TraceContext{};
    TraceContext ctx;
    ctx.traceId = nextTraceId++;
    ctx.sampled = true;
    FlowTrace t;
    t.traceId = ctx.traceId;
    t.flow = std::string(flow);
    t.start = now;
    t.end = now;
    active.emplace(ctx.traceId, std::move(t));
    ++sampledCount;
    if (mSampled)
        mSampled->inc();
    return ctx;
}

void
FlightRecorder::recordSpan(const TraceContext &ctx, std::string_view hop,
                           Component comp, sim::TimePs start,
                           sim::TimePs end)
{
    if (openSpan(ctx, hop, comp, start) != 0)
        findActive(ctx)->spans.back().end = end < start ? start : end;
}

std::uint32_t
FlightRecorder::openSpan(const TraceContext &ctx, std::string_view hop,
                         Component comp, sim::TimePs start)
{
    if (!ctx.sampled)
        return 0;
    FlowTrace *t = findActive(ctx);
    if (t == nullptr) {
        // Late span: the flow already completed (e.g. an ER delivery
        // racing the flow-ending ACK) or was abandoned.
        dropSpans(1);
        return 0;
    }
    if (t->spans.size() >= maxSpans) {
        ++t->droppedSpans;
        dropSpans(1);
        return 0;
    }
    Span s;
    s.id = t->nextSpanId++;
    s.parent = ctx.parentSpan;
    s.comp = comp;
    s.start = start;
    s.end = start;  // closed by closeSpan()
    s.hop = std::string(hop);
    t->spans.push_back(std::move(s));
    return t->spans.back().id;
}

void
FlightRecorder::closeSpan(const TraceContext &ctx, std::uint32_t span_id,
                          sim::TimePs end)
{
    if (!ctx.sampled || span_id == 0)
        return;
    FlowTrace *t = findActive(ctx);
    if (t == nullptr)
        return;
    // Open spans are close to the tail in practice; search backwards.
    for (auto it = t->spans.rbegin(); it != t->spans.rend(); ++it) {
        if (it->id == span_id) {
            if (end > it->start)
                it->end = end;
            return;
        }
    }
}

void
FlightRecorder::endFlow(const TraceContext &ctx, sim::TimePs end)
{
    if (!ctx.sampled)
        return;
    auto it = active.find(ctx.traceId);
    if (it == active.end())
        return;
    FlowTrace t = std::move(it->second);
    active.erase(it);
    t.end = end < t.start ? t.start : end;
    ++completedCount;
    keep(std::move(t));
}

void
FlightRecorder::abandonFlow(const TraceContext &ctx)
{
    if (!ctx.sampled)
        return;
    auto it = active.find(ctx.traceId);
    if (it == active.end())
        return;
    dropSpans(it->second.spans.size());
    active.erase(it);
}

void
FlightRecorder::keep(FlowTrace &&t)
{
    if (tailCap == 0) {
        dropSpans(t.spans.size());
        return;
    }
    if (kept.size() < tailCap) {
        kept.push_back(std::move(t));
        return;
    }
    // Tail bias: replace the least-bad exemplar only if strictly worse.
    const std::size_t min_i = leastBad();
    if (t.latency() > kept[min_i].latency()) {
        dropSpans(kept[min_i].spans.size());
        kept[min_i] = std::move(t);
    } else {
        dropSpans(t.spans.size());
    }
}

void
FlightRecorder::newWindow()
{
    kept.clear();
}

std::vector<const FlowTrace *>
FlightRecorder::worstFirst() const
{
    std::vector<const FlowTrace *> out;
    out.reserve(kept.size());
    for (const auto &t : kept)
        out.push_back(&t);
    std::sort(out.begin(), out.end(),
              [](const FlowTrace *a, const FlowTrace *b) {
                  if (a->latency() != b->latency())
                      return a->latency() > b->latency();
                  return a->traceId < b->traceId;
              });
    return out;
}

std::vector<const FlowTrace *>
FlightRecorder::byTraceId() const
{
    std::vector<const FlowTrace *> byId;
    byId.reserve(kept.size());
    for (const auto &t : kept)
        byId.push_back(&t);
    std::sort(byId.begin(), byId.end(),
              [](const FlowTrace *a, const FlowTrace *b) {
                  return a->traceId < b->traceId;
              });
    return byId;
}

void
FlightRecorder::writeSpanDump(std::ostream &os) const
{
    using I64 = std::int64_t;
    os << "{\"flows\":[";
    bool first_flow = true;
    for (const FlowTrace *t : byTraceId()) {
        os << (first_flow ? "" : ",") << "{\"id\":" << I64(t->traceId)
           << ",\"flow\":\"";
        first_flow = false;
        detail::jsonEscape(os, t->flow);
        os << "\",\"start_ps\":" << t->start << ",\"end_ps\":" << t->end
           << ",\"total_ps\":" << t->latency() << ",\"attribution\":{";
        const LatencyAttribution a = attributeLatency(*t);
        for (int c = 0; c < kNumComponents; ++c)
            os << (c > 0 ? ",\"" : "\"")
               << componentName(static_cast<Component>(c))
               << "_ps\":" << a.byComponent[c];
        os << ",\"sum_ps\":" << a.sum()
           << ",\"consistent\":" << (a.consistent() ? "true" : "false")
           << "},\"dropped_spans\":" << t->droppedSpans << ",\"spans\":[";
        bool first_span = true;
        for (const Span &s : t->spans) {
            os << (first_span ? "" : ",") << "{\"id\":" << s.id
               << ",\"parent\":" << s.parent << ",\"component\":\""
               << componentName(s.comp) << "\",\"hop\":\"";
            first_span = false;
            detail::jsonEscape(os, s.hop);
            os << "\",\"start_ps\":" << s.start << ",\"end_ps\":" << s.end
               << "}";
        }
        os << "]}";
    }
    os << "],\"flows_started\":" << I64(started)
       << ",\"flows_sampled\":" << I64(sampledCount)
       << ",\"flows_completed\":" << I64(completedCount)
       << ",\"spans_dropped\":" << I64(droppedCount) << "}";
}

std::string
FlightRecorder::spanDumpJson() const
{
    std::ostringstream oss;
    writeSpanDump(oss);
    return oss.str();
}

bool
FlightRecorder::writeSpanDumpFile(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    writeSpanDump(f);
    return static_cast<bool>(f);
}

void
FlightRecorder::exportChromeTrace(TraceWriter &tw) const
{
    for (const FlowTrace *t : byTraceId()) {
        for (std::size_t i = 0; i < t->spans.size(); ++i) {
            const Span &s = t->spans[i];
            const int tid = tw.track("flow:" + s.hop);
            tw.complete(tid, "flow", componentName(s.comp), s.start,
                        s.end - s.start);
            // Chain the spans with Chrome flow arrows carrying the id.
            const char phase = i == 0 ? 's'
                               : i + 1 == t->spans.size() ? 'f'
                                                          : 't';
            tw.flowPoint(phase, tid, "flow", t->flow, s.start, t->traceId);
        }
    }
}

std::string
FlightRecorder::envPath()
{
    const char *p = std::getenv("CCSIM_SPANS");
    return p ? std::string(p) : std::string();
}

}  // namespace ccsim::obs
