/**
 * @file
 * Causal flow tracing and tail-latency attribution (the "flight
 * recorder").
 *
 * A TraceContext is a compact causal tag carried end-to-end through the
 * simulation's data-plane objects (net::Packet, ltl::LtlHeader,
 * router::ErMessage). Components on the path record *spans* — time
 * intervals labelled with a hop name and a latency component — against
 * the flow the context identifies. Spans land in the FlightRecorder, a
 * bounded per-window store that keeps exemplar traces biased toward the
 * tail (the worst-N completed flows by latency), exportable as a
 * deterministic JSON span dump or as Chrome-trace flows via TraceWriter.
 *
 * On top of the raw spans, attributeLatency() decomposes a flow's
 * end-to-end latency into serialization / propagation / queueing /
 * PFC-pause / retransmit / congestion-window / compute components. The
 * decomposition is a timeline sweep: every instant of [start, end) is
 * attributed to exactly one component (the highest-priority span active
 * at that instant; instants covered by no span count as queueing), so
 * the components sum to the measured end-to-end latency *exactly*, in
 * integer picoseconds — a checked invariant (`consistent()`).
 *
 * Sampling is branch-cheap: instrumentation sites gate on the context's
 * `sampled` bit — a single well-predicted branch per site when tracing
 * is off — so enabling the subsystem without sampling costs nothing
 * measurable, and same-seed runs stay byte-identical (recording only
 * reads simulation state).
 */
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace ccsim::obs {

class MetricsRegistry;
class TraceWriter;

/**
 * Latency components a flow's end-to-end time decomposes into. The
 * enumerator order is also the attribution priority (lower ordinal wins
 * when spans overlap): retransmission windows outrank everything so a
 * NACK'd frame's wait shows up as `retransmit`, never as inflated
 * `queueing`; un-covered gaps always fall to `kQueueing`.
 */
enum class Component : std::uint8_t {
    kRetransmit = 0,    ///< loss detected -> retransmission handed to wire
    kPfcPause = 1,      ///< transmit blocked by an 802.1Qbb pause
    kCompute = 2,       ///< pipeline/role/switch-forwarding occupancy
    kSerialization = 3, ///< bits flowing onto a wire at line rate
    kPropagation = 4,   ///< light (well, electrons) in the cable
    kCongestionWindow = 5, ///< held by pacing / DC-QCN / send window
    kQueueing = 6,      ///< waiting in a queue (also: unattributed time)
};

inline constexpr int kNumComponents = 7;

/** Snake-case name of a component (as used in JSON dumps and tables). */
const char *componentName(Component c);

/**
 * The causal context carried by in-flight objects. 16 bytes, trivially
 * copyable. `sampled == false` (the default) is the fast path: every
 * instrumentation site tests it first and does no further work.
 */
struct TraceContext {
    std::uint64_t traceId = 0;   ///< flow id; 0 = untraced
    std::uint32_t parentSpan = 0; ///< enclosing span id, or 0 for root
    bool sampled = false;        ///< gate: one predicted branch when clear
};

/** One recorded interval of a flow's life. */
struct Span {
    std::uint32_t id = 0;       ///< per-flow span id (1-based)
    std::uint32_t parent = 0;   ///< enclosing span id, or 0
    Component comp = Component::kCompute;
    sim::TimePs start = 0;
    sim::TimePs end = 0;
    std::string hop;            ///< stage boundary, e.g. "ltl.node0.tx"
};

/** A complete (or in-flight) sampled flow. */
struct FlowTrace {
    std::uint64_t traceId = 0;
    std::string flow;           ///< flow family, e.g. "ltl.node0.msg"
    sim::TimePs start = 0;
    sim::TimePs end = 0;
    std::vector<Span> spans;
    std::uint32_t nextSpanId = 1;  ///< recorder-internal id allocator
    std::uint32_t droppedSpans = 0; ///< spans lost to the per-flow cap

    sim::TimePs latency() const { return end - start; }
};

/** Exact per-component decomposition of one flow's latency. */
struct LatencyAttribution {
    sim::TimePs total = 0;
    std::array<sim::TimePs, kNumComponents> byComponent{};

    sim::TimePs sum() const
    {
        sim::TimePs s = 0;
        for (auto v : byComponent)
            s += v;
        return s;
    }
    /** The checked invariant: components sum to the measured total. */
    bool consistent() const { return sum() == total; }

    sim::TimePs of(Component c) const
    {
        return byComponent[static_cast<int>(c)];
    }
};

/** One row of a per-hop attribution table. */
struct HopAttribution {
    std::string hop;  ///< "(unattributed)" for time covered by no span
    std::array<sim::TimePs, kNumComponents> byComponent{};

    sim::TimePs total() const
    {
        sim::TimePs s = 0;
        for (auto v : byComponent)
            s += v;
        return s;
    }
};

/**
 * Decompose @p t's end-to-end latency by component. Every instant of
 * [t.start, t.end) is attributed to the highest-priority span covering
 * it (Component order; ties broken by lowest span id), or to kQueueing
 * when no span covers it. By construction the result is consistent().
 */
LatencyAttribution attributeLatency(const FlowTrace &t);

/**
 * The same sweep, additionally split by hop. Rows appear in order of
 * first attribution (i.e. roughly time order along the flow's path); the
 * per-hop totals also sum to t.latency() exactly.
 */
std::vector<HopAttribution> attributeByHop(const FlowTrace &t);

/** Render a per-hop attribution table (fig10-style) for one flow. */
std::string formatAttributionTable(const FlowTrace &t);

/**
 * The flight recorder: allocates flow ids, collects spans, and keeps the
 * worst-N completed flows per window as exemplars.
 *
 * Like the rest of ccsim::obs the recorder is strictly read-only with
 * respect to simulation state. Flow ids come from a per-recorder counter
 * (not a process-wide one) so same-seed runs dump byte-identical spans.
 */
class FlightRecorder
{
  public:
    /** Master switch; while off, beginFlow() returns unsampled contexts. */
    void setEnabled(bool enabled) { on = enabled; }
    bool enabled() const { return on; }

    /** Sample one flow in @p n (default 1 = every flow). */
    void setSampleEvery(std::uint32_t n) { every = n == 0 ? 1 : n; }

    /** Keep the worst @p n completed flows per window (default 64). */
    void setTailCapacity(std::size_t n);

    /** Cap spans recorded per flow (overflow counted, default 512). */
    void setMaxSpansPerTrace(std::size_t n) { maxSpans = n; }

    /**
     * Start allocating flow ids at @p first (default 1; 0 is reserved
     * for "untraced"). A sharded simulation gives each partition's
     * recorder a disjoint id region (e.g. shard index << 48) so ids in
     * merged span dumps never collide across shards.
     */
    void setTraceIdStart(std::uint64_t first)
    {
        nextTraceId = first == 0 ? 1 : first;
    }

    /**
     * Create the `trace.sampled_flows` / `trace.dropped_spans` counter
     * pair in @p reg and keep them updated. @p reg must outlive this
     * recorder (or a re-bind).
     */
    void bindMetrics(MetricsRegistry &reg);

    // --- recording (hot path) ------------------------------------------

    /**
     * Start a flow at @p now. Returns a sampled context for 1-in-N calls
     * while enabled, an all-zero context otherwise. Callers gate their
     * span sites on `ctx.sampled`.
     */
    TraceContext beginFlow(std::string_view flow, sim::TimePs now);

    /** Record a completed span [start, end) against @p ctx's flow. */
    void recordSpan(const TraceContext &ctx, std::string_view hop,
                    Component comp, sim::TimePs start, sim::TimePs end);

    /** Open a span at @p start; returns its id (0 if not recorded). */
    std::uint32_t openSpan(const TraceContext &ctx, std::string_view hop,
                           Component comp, sim::TimePs start);

    /** Close a span opened with openSpan(). */
    void closeSpan(const TraceContext &ctx, std::uint32_t span_id,
                   sim::TimePs end);

    /** Complete a flow; it becomes an exemplar if it makes the worst-N. */
    void endFlow(const TraceContext &ctx, sim::TimePs end);

    /** Drop an in-flight flow without keeping it (e.g. conn failure). */
    void abandonFlow(const TraceContext &ctx);

    /** Discard the kept exemplars, starting a fresh window. */
    void newWindow();

    // --- introspection -------------------------------------------------

    std::uint64_t flowsStarted() const { return started; }
    std::uint64_t flowsSampled() const { return sampledCount; }
    /** Spans lost to per-flow caps, late arrival, or reservoir eviction. */
    std::uint64_t droppedSpans() const { return droppedCount; }

    /** Kept exemplars (completed flows), unordered. */
    const std::vector<FlowTrace> &exemplars() const { return kept; }

    /** Kept exemplars sorted worst-latency-first (ties: lower id first). */
    std::vector<const FlowTrace *> worstFirst() const;

    // --- export --------------------------------------------------------

    /**
     * Deterministic JSON span dump of the kept exemplars (sorted by flow
     * id, integer picosecond timestamps, per-flow attribution included).
     * Byte-identical across same-seed runs.
     */
    void writeSpanDump(std::ostream &os) const;
    std::string spanDumpJson() const;
    bool writeSpanDumpFile(const std::string &path) const;

    /**
     * Export kept exemplars into @p tw: one 'X' span per recorded span on
     * a per-hop track, chained with Chrome flow arrows (s/t/f events
     * carrying the flow id).
     */
    void exportChromeTrace(TraceWriter &tw) const;

    /**
     * Span-dump path requested via the CCSIM_SPANS environment variable,
     * or "" if unset (mirrors TraceWriter::envPath()).
     */
    static std::string envPath();

  private:
    bool on = false;
    std::uint32_t every = 1;
    std::uint32_t decimator = 0;
    std::uint64_t nextTraceId = 1;
    std::size_t tailCap = 64;
    std::size_t maxSpans = 512;

    std::unordered_map<std::uint64_t, FlowTrace> active;
    std::vector<FlowTrace> kept;

    std::uint64_t started = 0;
    std::uint64_t sampledCount = 0;
    std::uint64_t completedCount = 0;
    std::uint64_t droppedCount = 0;

    sim::Counter *mSampled = nullptr;  ///< registry-owned
    sim::Counter *mDropped = nullptr;  ///< registry-owned

    FlowTrace *findActive(const TraceContext &ctx);
    void keep(FlowTrace &&t);
    void dropSpans(std::uint64_t n);
    /** Index of the least-bad kept exemplar (lowest latency, newest). */
    std::size_t leastBad() const;
    /** The kept exemplars in trace-id order. */
    std::vector<const FlowTrace *> byTraceId() const;
};

}  // namespace ccsim::obs
