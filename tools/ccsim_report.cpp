/**
 * @file
 * Renders a CCSIM_TS telemetry stream (the TimeSeriesHub's JSONL
 * export) as a self-contained HTML fleet dashboard, or follows it live
 * as text. No dependencies: the stream is read with the simulator's own
 * JSON reader (obs/json_util.hpp), and every chart is inline SVG.
 *
 *     ccsim_report ts.jsonl -o dashboard.html
 *     ccsim_report ts.jsonl --heatmap 'sim.shard.partition*.events'
 *     ccsim_report ts.jsonl --follow        # live text tail
 *
 * Flags:
 *   -o FILE          output HTML path (default ccsim_dashboard.html)
 *   --title S        dashboard title
 *   --heatmap GLOB   render matching series as a per-instance heatmap
 *                    (rows = series, columns = windows) instead of line
 *                    charts — e.g. per-pod event rates
 *   --max-charts N   cap on individual line charts (default 48; the
 *                    dropped count is reported, never silent)
 *   --follow         text mode: print windows/alerts as they append
 */
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_util.hpp"
#include "obs/metric_names.hpp"

namespace {

using ccsim::obs::JsonValue;

// ---------------------------------------------------------------------
// Stream model
// ---------------------------------------------------------------------

/** The timeline of one series (fields depend on the kind). */
struct SeriesData {
    std::string kind;           // counter | gauge | probe | histogram
    std::vector<double> t_us;
    std::vector<double> a;      // gauge: value; counter/probe: rate;
                                // histogram: p50
    std::vector<double> b;      // histogram: p99
};

struct AlertEvent {
    double t_us = 0.0;
    std::string slo;
    std::string series;
    bool firing = false;
    double burnLong = 0.0;
    double burnShort = 0.0;
    int host = -1;
};

/** A chaos-campaign phase marker (injected fault / detected conviction). */
struct ChaosMarker {
    double t_us = 0.0;
    std::string phase;
    std::string kind;  // "injected" | "detected"
};

struct Dashboard {
    double windowUs = 0.0;
    std::map<std::string, SeriesData> series;
    std::vector<AlertEvent> alerts;
    std::vector<ChaosMarker> chaos;
    std::size_t windows = 0;
    std::size_t badLines = 0;

    void ingest(const JsonValue &rec);
};

void
Dashboard::ingest(const JsonValue &rec)
{
    const std::string type = rec.strOr("type", "");
    if (type == "meta") {
        windowUs = rec.numOr("window_us", 0.0);
    } else if (type == "series") {
        series[rec.strOr("name", "?")].kind = rec.strOr("kind", "gauge");
    } else if (type == "window") {
        ++windows;
        const double t = rec.numOr("t_us", 0.0);
        const JsonValue *s = rec.find("series");
        if (s == nullptr)
            return;
        for (const auto &[name, pt] : s->obj) {
            SeriesData &sd = series[name];
            sd.t_us.push_back(t);
            if (sd.kind == "histogram") {
                sd.a.push_back(pt.numOr("p50", 0.0));
                sd.b.push_back(pt.numOr("p99", 0.0));
            } else if (sd.kind == "gauge") {
                sd.a.push_back(pt.numOr("v", 0.0));
            } else {
                sd.a.push_back(pt.numOr("r", 0.0));
            }
        }
    } else if (type == "alert") {
        AlertEvent a;
        a.t_us = rec.numOr("t_us", 0.0);
        a.slo = rec.strOr("slo", "?");
        a.series = rec.strOr("series", "?");
        a.firing = rec.strOr("state", "") == "firing";
        a.burnLong = rec.numOr("burn_long", 0.0);
        a.burnShort = rec.numOr("burn_short", 0.0);
        a.host = static_cast<int>(rec.numOr("host", -1.0));
        alerts.push_back(std::move(a));
    } else if (type == "chaos") {
        ChaosMarker m;
        m.t_us = rec.numOr("t_us", 0.0);
        m.phase = rec.strOr("phase", "?");
        m.kind = rec.strOr("kind", "injected");
        chaos.push_back(std::move(m));
    }
}

// ---------------------------------------------------------------------
// HTML / SVG rendering
// ---------------------------------------------------------------------

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        case '"': out += "&quot;"; break;
        default: out += c; break;
        }
    }
    return out;
}

std::string
fmtNum(double v)
{
    char buf[32];
    if (v == 0.0)
        return "0";
    const double av = std::fabs(v);
    if (av >= 1e6 || av < 1e-3)
        std::snprintf(buf, sizeof buf, "%.3g", v);
    else if (av >= 100.0)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.3g", v);
    return buf;
}

/** One polyline path scaled into the chart box. */
void
svgPolyline(std::ostream &os, const std::vector<double> &t,
            const std::vector<double> &v, double t0, double t1, double lo,
            double hi, int w, int h, const char *color, double width)
{
    os << "<polyline fill='none' stroke='" << color << "' stroke-width='"
       << width << "' points='";
    const double tspan = t1 > t0 ? t1 - t0 : 1.0;
    const double vspan = hi > lo ? hi - lo : 1.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const double x = (t[i] - t0) / tspan * (w - 8) + 4;
        const double y = h - 4 - (v[i] - lo) / vspan * (h - 8);
        os << fmtNum(x) << "," << fmtNum(y) << " ";
    }
    os << "'/>\n";
}

void
chartCard(std::ostream &os, const std::string &name, const SeriesData &sd)
{
    constexpr int kW = 320, kH = 96;
    double lo = 0.0, hi = 0.0;
    for (double v : sd.a)
        hi = std::max(hi, v);
    for (double v : sd.b)
        hi = std::max(hi, v);
    const double t0 = sd.t_us.front(), t1 = sd.t_us.back();

    const char *unit = sd.kind == "histogram" ? "p50 / p99"
                       : sd.kind == "gauge"   ? "value"
                                              : "rate /s";
    os << "<div class='card'><div class='cardtitle'>"
       << htmlEscape(name) << " <span class='kind'>" << sd.kind << " &middot; "
       << unit << "</span></div>\n";
    os << "<svg viewBox='0 0 " << kW << " " << kH << "' width='" << kW
       << "' height='" << kH << "'>";
    os << "<rect x='0' y='0' width='" << kW << "' height='" << kH
       << "' fill='#11151c'/>";
    svgPolyline(os, sd.t_us, sd.a, t0, t1, lo, hi, kW, kH, "#4fc1ff", 1.2);
    if (sd.kind == "histogram")
        svgPolyline(os, sd.t_us, sd.b, t0, t1, lo, hi, kW, kH, "#ff7a4f",
                    1.4);
    os << "</svg><div class='axis'><span>" << fmtNum(t0 / 1000.0)
       << " ms</span><span>max " << fmtNum(hi) << "</span><span>"
       << fmtNum(t1 / 1000.0) << " ms</span></div></div>\n";
}

void
heatmap(std::ostream &os, const Dashboard &db, const std::string &glob)
{
    std::vector<std::pair<std::string, const SeriesData *>> rows;
    for (const auto &[name, sd] : db.series) {
        if (!sd.t_us.empty() && ccsim::obs::matchesMetricPattern(glob, name))
            rows.emplace_back(name, &sd);
    }
    if (rows.empty()) {
        os << "<p class='note'>heatmap: no series match <code>"
           << htmlEscape(glob) << "</code></p>\n";
        return;
    }
    // Columns = the union timeline of the first row (all rows share the
    // hub cadence); cap to the last 240 windows.
    const std::size_t cols = std::min<std::size_t>(
        240, rows.front().second->t_us.size());
    double hi = 0.0;
    for (const auto &[name, sd] : rows)
        for (double v : sd->a)
            hi = std::max(hi, v);
    const int cw = 4, ch = 10;
    os << "<h2>Heatmap: <code>" << htmlEscape(glob)
       << "</code> <span class='kind'>" << rows.size()
       << " series &middot; last " << cols
       << " windows &middot; max " << fmtNum(hi) << "</span></h2>\n<svg "
          "viewBox='0 0 "
       << (cols * cw + 220) << " " << (rows.size() * (ch + 1) + 4)
       << "'>";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const SeriesData &sd = *rows[r].second;
        const std::size_t n = sd.a.size();
        const std::size_t from = n > cols ? n - cols : 0;
        for (std::size_t i = from; i < n; ++i) {
            const double x = hi > 0.0 ? sd.a[i] / hi : 0.0;
            const int shade = static_cast<int>(20 + 215 * x);
            os << "<rect x='" << ((i - from) * cw) << "' y='"
               << (r * (ch + 1)) << "' width='" << cw << "' height='" << ch
               << "' fill='rgb(" << shade << "," << (shade / 3) << ","
               << (90 - shade / 3) << ")'/>";
        }
        os << "<text x='" << (cols * cw + 6) << "' y='"
           << (r * (ch + 1) + ch - 2) << "' class='hmlabel'>"
           << htmlEscape(rows[r].first) << "</text>";
    }
    os << "</svg>\n";
}

void
alertRow(std::ostream &os, const AlertEvent &a)
{
    os << "<tr class='" << (a.firing ? "firing" : "resolved") << "'><td>"
       << fmtNum(a.t_us / 1000.0) << "</td><td>"
       << (a.firing ? "FIRING" : "resolved") << "</td><td>"
       << htmlEscape(a.slo) << "</td><td>" << htmlEscape(a.series)
       << "</td><td>" << fmtNum(a.burnLong) << " / "
       << fmtNum(a.burnShort) << "</td><td>"
       << (a.host >= 0 ? std::to_string(a.host) : std::string("-"))
       << "</td></tr>\n";
}

void
chaosRow(std::ostream &os, const ChaosMarker &m)
{
    os << "<tr class='chaos'><td>" << fmtNum(m.t_us / 1000.0)
       << "</td><td>" << (m.kind == "detected" ? "DETECTED" : "INJECTED")
       << "</td><td>chaos</td><td>" << htmlEscape(m.phase)
       << "</td><td>-</td><td>-</td></tr>\n";
}

/**
 * One merged timeline: SLO alert transitions interleaved with chaos
 * phase markers, so a campaign dashboard shows each injected fault next
 * to the alerts and domain convictions it provoked.
 */
void
alertTimeline(std::ostream &os, const Dashboard &db)
{
    os << "<h2>Alerts &amp; chaos phases <span class='kind'>"
       << db.alerts.size() << " alert transitions &middot; "
       << db.chaos.size() << " chaos markers</span></h2>\n";
    if (db.alerts.empty() && db.chaos.empty()) {
        os << "<p class='note'>no alerts fired, no chaos injected</p>\n";
        return;
    }
    os << "<table><tr><th>t (ms)</th><th>state</th><th>SLO</th>"
          "<th>series</th><th>burn long/short</th><th>host</th></tr>\n";
    // Both streams are already in emission (time) order; merge by time,
    // chaos markers first on ties so the injection reads before its
    // consequences.
    std::size_t ai = 0, ci = 0;
    while (ai < db.alerts.size() || ci < db.chaos.size()) {
        const bool chaosNext =
            ci < db.chaos.size() &&
            (ai >= db.alerts.size() ||
             db.chaos[ci].t_us <= db.alerts[ai].t_us);
        if (chaosNext)
            chaosRow(os, db.chaos[ci++]);
        else
            alertRow(os, db.alerts[ai++]);
    }
    os << "</table>\n";
}

int
writeHtml(const Dashboard &db, const std::string &path,
          const std::string &title, const std::string &heatmapGlob,
          std::size_t maxCharts)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "ccsim_report: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    os << "<!doctype html><html><head><meta charset='utf-8'><title>"
       << htmlEscape(title) << "</title><style>\n"
       << "body{background:#0b0e13;color:#dce3ea;font:14px/1.45 "
          "system-ui,sans-serif;margin:24px}\n"
          "h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n"
          ".kind{color:#8b98a5;font-weight:normal;font-size:12px}\n"
          ".grid{display:flex;flex-wrap:wrap;gap:12px}\n"
          ".card{background:#151a22;border:1px solid #232b36;"
          "border-radius:6px;padding:8px}\n"
          ".cardtitle{font-size:12px;margin-bottom:4px;max-width:320px;"
          "overflow:hidden;text-overflow:ellipsis;white-space:nowrap}\n"
          ".axis{display:flex;justify-content:space-between;"
          "color:#8b98a5;font-size:11px}\n"
          "table{border-collapse:collapse;font-size:12px}\n"
          "td,th{border:1px solid #232b36;padding:3px 8px;"
          "text-align:left}\n"
          "tr.firing td{color:#ff7a4f}tr.resolved td{color:#7ccf7c}\n"
          "tr.chaos td{color:#c792ea}\n"
          ".hmlabel{fill:#8b98a5;font-size:9px}\n"
          ".note{color:#8b98a5}code{color:#4fc1ff}\n"
       << "</style></head><body>\n<h1>" << htmlEscape(title)
       << " <span class='kind'>window " << fmtNum(db.windowUs)
       << " us &middot; " << db.windows << " windows &middot; "
       << db.series.size() << " series</span></h1>\n";

    alertTimeline(os, db);
    if (!heatmapGlob.empty())
        heatmap(os, db, heatmapGlob);

    os << "<h2>Series</h2>\n<div class='grid'>\n";
    std::size_t charted = 0, skipped = 0;
    for (const auto &[name, sd] : db.series) {
        if (sd.t_us.size() < 2) {
            ++skipped;
            continue;
        }
        if (charted >= maxCharts) {
            ++skipped;
            continue;
        }
        chartCard(os, name, sd);
        ++charted;
    }
    os << "</div>\n";
    if (skipped > 0)
        os << "<p class='note'>" << skipped
           << " series not charted (short history or over --max-charts "
           << maxCharts << ")</p>\n";
    os << "</body></html>\n";
    std::printf("ccsim_report: wrote %s (%zu charts, %zu alerts, %zu "
                "chaos markers, %zu windows)\n",
                path.c_str(), charted, db.alerts.size(), db.chaos.size(),
                db.windows);
    return 0;
}

// ---------------------------------------------------------------------
// --follow text mode
// ---------------------------------------------------------------------

void
printTextRecord(const JsonValue &rec)
{
    const std::string type = rec.strOr("type", "");
    if (type == "window") {
        const JsonValue *s = rec.find("series");
        std::printf("[%10.1f us] window seq=%.0f  %zu series\n",
                    rec.numOr("t_us", 0.0), rec.numOr("seq", 0.0),
                    s != nullptr ? s->obj.size() : 0);
    } else if (type == "alert") {
        std::printf("[%10.1f us] %s slo=%s series=%s burn=%.2f/%.2f "
                    "host=%d\n",
                    rec.numOr("t_us", 0.0),
                    rec.strOr("state", "?") == "firing" ? "ALERT  "
                                                        : "resolve",
                    rec.strOr("slo", "?").c_str(),
                    rec.strOr("series", "?").c_str(),
                    rec.numOr("burn_long", 0.0),
                    rec.numOr("burn_short", 0.0),
                    static_cast<int>(rec.numOr("host", -1.0)));
    } else if (type == "chaos") {
        std::printf("[%10.1f us] CHAOS %s phase=%s\n",
                    rec.numOr("t_us", 0.0),
                    rec.strOr("kind", "?").c_str(),
                    rec.strOr("phase", "?").c_str());
    } else if (type == "series") {
        std::printf("               new series %s (%s)\n",
                    rec.strOr("name", "?").c_str(),
                    rec.strOr("kind", "?").c_str());
    } else if (type == "meta") {
        std::printf("               stream opened, window %.1f us\n",
                    rec.numOr("window_us", 0.0));
    }
    std::fflush(stdout);
}

int
follow(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "ccsim_report: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::string line;
    while (true) {
        if (std::getline(in, line)) {
            if (line.empty())
                continue;
            if (const auto rec = ccsim::obs::parseJson(line))
                printTextRecord(*rec);
            continue;
        }
        // EOF: the producer may still be writing; poll for growth.
        in.clear();
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
}

/** Parse @p s as a whole non-negative integer into @p out. */
bool
parseCount(const std::string &s, std::size_t &out)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, out);
    return ec == std::errc() && ptr == end && !s.empty();
}

int
usage()
{
    std::fprintf(stderr, "usage: ccsim_report <ts.jsonl> [-o out.html] "
                         "[--title S] [--heatmap GLOB] [--max-charts N] "
                         "[--follow]\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string input, output = "ccsim_dashboard.html";
    std::string title = "ccsim fleet telemetry";
    std::string heatmapGlob;
    std::size_t maxCharts = 48;
    bool doFollow = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc) {
            output = argv[++i];
        } else if (arg == "--title" && i + 1 < argc) {
            title = argv[++i];
        } else if (arg == "--heatmap" && i + 1 < argc) {
            heatmapGlob = argv[++i];
        } else if (arg == "--max-charts" && i + 1 < argc) {
            if (!parseCount(argv[++i], maxCharts)) {
                std::fprintf(stderr,
                             "ccsim_report: --max-charts takes an integer "
                             ">= 0, got '%s'\n",
                             argv[i]);
                return usage();
            }
        } else if (arg == "--follow") {
            doFollow = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            input = arg;
        }
    }
    if (input.empty()) {
        std::fprintf(stderr, "ccsim_report: no input file\n");
        return 2;
    }
    if (doFollow)
        return follow(input);

    std::ifstream in(input);
    if (!in) {
        std::fprintf(stderr, "ccsim_report: cannot open %s\n",
                     input.c_str());
        return 1;
    }
    Dashboard db;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (const auto rec = ccsim::obs::parseJson(line))
            db.ingest(*rec);
        else
            ++db.badLines;
    }
    if (db.badLines > 0)
        std::fprintf(stderr, "ccsim_report: skipped %zu malformed lines\n",
                     db.badLines);
    return writeHtml(db, output, title, heatmapGlob, maxCharts);
}
