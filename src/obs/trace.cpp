#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/json_util.hpp"

namespace ccsim::obs {

namespace {

/** Deterministic shortest-roundtrip double formatting. */
void
numberTo(std::ostream &os, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

/** Simulated picoseconds -> trace microseconds. */
double
toTraceUs(sim::TimePs ps)
{
    return static_cast<double>(ps) / 1e6;
}

/**
 * Auto-flush registry. A function-local static constructed *before* the
 * std::atexit handler is registered (see autoFlushOnExit), so the
 * handler — which runs in LIFO order relative to static destruction —
 * always sees a live vector.
 */
std::vector<TraceWriter *> &
flushRegistry()
{
    static std::vector<TraceWriter *> reg;
    return reg;
}

}  // namespace

void
traceWriterFlushAllAtExit()
{
    for (TraceWriter *w : flushRegistry())
        w->flushIfDirty();
}

TraceWriter::~TraceWriter()
{
    flushIfDirty();
    auto &reg = flushRegistry();
    reg.erase(std::remove(reg.begin(), reg.end(), this), reg.end());
}

void
TraceWriter::autoFlushOnExit(const std::string &path)
{
    auto &reg = flushRegistry();  // construct the registry static first
    static const bool installed = [] {
        std::atexit(traceWriterFlushAllAtExit);
        return true;
    }();
    (void)installed;
    flushPath = path;
    if (std::find(reg.begin(), reg.end(), this) == reg.end())
        reg.push_back(this);
}

void
TraceWriter::flushIfDirty()
{
    if (!flushPath.empty() && hasUnwritten)
        writeFile(flushPath);
}

int
TraceWriter::track(const std::string &name)
{
    auto [it, inserted] = tracks.try_emplace(name, nextTid);
    if (inserted)
        ++nextTid;
    return it->second;
}

TraceEvent &
TraceWriter::record(char phase, int tid, sim::TimePs ts, std::string_view cat,
                    std::string_view name)
{
    TraceEvent &e = events.emplace_back();
    e.phase = phase;
    e.tid = tid;
    e.ts = ts;
    e.cat = std::string(cat);
    e.name = std::string(name);
    hasUnwritten = true;
    return e;
}

void
TraceWriter::complete(int tid, std::string_view cat, std::string_view name,
                      sim::TimePs start, sim::TimePs duration)
{
    if (recording)
        record('X', tid, start, cat, name).dur = duration;
}

void
TraceWriter::instant(int tid, std::string_view cat, std::string_view name,
                     sim::TimePs ts)
{
    if (recording)
        record('i', tid, ts, cat, name);
}

void
TraceWriter::counter(std::string_view cat, std::string_view name,
                     sim::TimePs ts, double value)
{
    if (recording)
        record('C', 0, ts, cat, name).value = value;
}

void
TraceWriter::counterMulti(std::string_view cat, std::string_view name,
                          sim::TimePs ts,
                          std::vector<std::pair<std::string, double>> values)
{
    if (recording)
        record('C', 0, ts, cat, name).multi = std::move(values);
}

void
TraceWriter::flowPoint(char phase, int tid, std::string_view cat,
                       std::string_view name, sim::TimePs ts,
                       std::uint64_t flow_id)
{
    if (recording)
        record(phase, tid, ts, cat, name).flowId = flow_id;
}

std::vector<std::string>
TraceWriter::categories() const
{
    std::vector<std::string> cats;
    for (const auto &e : events)
        cats.push_back(e.cat);
    std::sort(cats.begin(), cats.end());
    cats.erase(std::unique(cats.begin(), cats.end()), cats.end());
    return cats;
}

void
TraceWriter::write(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const auto &e : events) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.tid
           << ",\"ts\":";
        numberTo(os, toTraceUs(e.ts));
        if (e.phase == 'X') {
            os << ",\"dur\":";
            numberTo(os, toTraceUs(e.dur));
        }
        os << ",\"cat\":\"";
        detail::jsonEscape(os, e.cat);
        os << "\",\"name\":\"";
        detail::jsonEscape(os, e.name);
        os << "\"";
        if (e.phase == 'i') {
            os << ",\"s\":\"t\"";
        } else if (e.phase == 'C') {
            os << ",\"args\":{";
            if (e.multi.empty()) {
                os << "\"value\":";
                numberTo(os, e.value);
            } else {
                bool firstArg = true;
                for (const auto &[k, v] : e.multi) {
                    if (!firstArg)
                        os << ",";
                    firstArg = false;
                    os << "\"";
                    detail::jsonEscape(os, k);
                    os << "\":";
                    numberTo(os, v);
                }
            }
            os << "}";
        } else if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
            os << ",\"id\":" << e.flowId;
            if (e.phase == 'f')
                os << ",\"bp\":\"e\"";
        }
        os << "}";
    }
    os << "],\"displayTimeUnit\":\"ns\"}";
    hasUnwritten = false;
}

std::string
TraceWriter::json() const
{
    std::ostringstream oss;
    write(oss);
    return oss.str();
}

bool
TraceWriter::writeFile(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    write(f);
    return static_cast<bool>(f);
}

std::string
TraceWriter::envPath()
{
    const char *p = std::getenv("CCSIM_TRACE");
    return p ? std::string(p) : std::string();
}

}  // namespace ccsim::obs
