/**
 * @file
 * Chrome trace-event exporter.
 *
 * Records spans ("X" complete events), instants ("i") and counter series
 * ("C") in *simulated* time and serializes them as Chrome trace-event
 * JSON (the array-of-events format understood by chrome://tracing and
 * Perfetto). Timestamps are emitted in microseconds of simulated time.
 *
 * The writer is enable-gated: all record calls are no-ops while disabled,
 * so instrumented components can call unconditionally without perturbing
 * (or paying for) un-traced runs. Recording only ever *reads* simulation
 * state, which keeps traced and untraced runs bit-identical.
 */
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace ccsim::obs {

/** One recorded trace event (internal representation, pre-serialization). */
struct TraceEvent {
    char phase = 'i';        ///< 'X' complete, 'i' instant, 'C' counter,
                             ///< 's'/'t'/'f' flow start/step/finish
    int tid = 0;             ///< track id (see TraceWriter::track)
    sim::TimePs ts = 0;      ///< event start, simulated picoseconds
    sim::TimePs dur = 0;     ///< duration for 'X' events
    double value = 0.0;      ///< counter value for 'C' events
    std::uint64_t flowId = 0; ///< flow binding id for 's'/'t'/'f' events
    /** Named sub-series of a multi-value 'C' event (empty = use value). */
    std::vector<std::pair<std::string, double>> multi;
    std::string cat;         ///< category (top-level component family)
    std::string name;        ///< event name
};

/**
 * Collects trace events in memory and writes Chrome trace-event JSON.
 */
class TraceWriter
{
  public:
    TraceWriter() = default;
    /** Flushes via the auto-flush path if one is armed and dirty. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Enable or disable recording (disabled by default). */
    void setEnabled(bool on) { recording = on; }
    /** True if record calls are currently captured. */
    bool enabled() const { return recording; }

    /**
     * A stable integer track ("thread") id for a named timeline, created
     * on first use. Spans and instants on one track render as one row.
     */
    int track(const std::string &name);

    /** Record a completed span: [start, start+duration). */
    void complete(int tid, std::string_view cat, std::string_view name,
                  sim::TimePs start, sim::TimePs duration);

    /** Record an instantaneous event. */
    void instant(int tid, std::string_view cat, std::string_view name,
                 sim::TimePs ts);

    /** Record one point of a counter series. */
    void counter(std::string_view cat, std::string_view name, sim::TimePs ts,
                 double value);

    /**
     * Record one point of a *multi-value* counter series: all named
     * sub-series render stacked on one timeline row (Chrome counter
     * events carry one args entry per sub-series), e.g. p50/p99 of a
     * windowed latency series. @p values must be non-empty.
     */
    void counterMulti(std::string_view cat, std::string_view name,
                      sim::TimePs ts,
                      std::vector<std::pair<std::string, double>> values);

    /**
     * Record one point of a Chrome *flow* ('s' start, 't' step, 'f'
     * finish). Points sharing @p flow_id render as one arrow chain across
     * tracks; the finish point binds to the enclosing slice ("bp":"e").
     */
    void flowPoint(char phase, int tid, std::string_view cat,
                   std::string_view name, sim::TimePs ts,
                   std::uint64_t flow_id);

    /** Number of events recorded so far. */
    std::size_t eventCount() const { return events.size(); }

    /** Categories seen so far (sorted, deduplicated). */
    std::vector<std::string> categories() const;

    /** Drop all recorded events (track ids are retained). */
    void clear() { events.clear(); }

    /** Serialize everything as Chrome trace-event JSON. */
    void write(std::ostream &os) const;

    /** write() to a string. */
    std::string json() const;

    /** write() to a file. @return false on I/O failure. */
    bool writeFile(const std::string &path) const;

    /**
     * Arm an abnormal-termination flush: if the process exits (normally
     * or via std::exit, e.g. sim::fatal) while this writer still holds
     * unwritten events, they are flushed to @p path so truncated runs
     * yield a loadable trace. Safe against static destruction order: the
     * flush registry is a function-local static constructed before the
     * std::atexit handler is registered, and the writer deregisters
     * itself on destruction. Writing (write/writeFile/json) marks the
     * buffer clean; new record calls re-dirty it.
     */
    void autoFlushOnExit(const std::string &path);

    /** True if events were recorded since the last write. */
    bool dirty() const { return hasUnwritten; }

    /**
     * The trace output path requested via the CCSIM_TRACE environment
     * variable, or "" if unset. Benches use this to gate trace export.
     */
    static std::string envPath();

  private:
    bool recording = false;
    mutable bool hasUnwritten = false;
    std::string flushPath;  ///< non-empty while auto-flush is armed
    std::vector<TraceEvent> events;
    std::map<std::string, int> tracks;
    int nextTid = 1;

    /** Append an event with the fields every kind sets; marks it dirty. */
    TraceEvent &record(char phase, int tid, sim::TimePs ts,
                       std::string_view cat, std::string_view name);
    void flushIfDirty();
    friend void traceWriterFlushAllAtExit();
};

}  // namespace ccsim::obs
