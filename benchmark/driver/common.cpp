/**
 * @file
 * The tracer, the metric catalogue, and the count helpers shared by the
 * workloads.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"

namespace ccsim::bench {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

void
Tracer::reset(bool enabled)
{
    on = enabled;
    t0 = Clock::now();
    owner = std::this_thread::get_id();
    spans.clear();
    open.clear();
    series.clear();
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
}

Tracer::Span::Span(Tracer *t, const char *layer, const char *op) : tracer(t)
{
    if (tracer == nullptr)
        return;
    if (std::this_thread::get_id() != tracer->owner)
        sim::panic("ccsim_bench: span opened off the driver thread");
    index = tracer->spans.size();
    const std::int64_t parent =
        tracer->open.empty() ? -1
                             : static_cast<std::int64_t>(tracer->open.back());
    tracer->spans.push_back({layer, op, tracer->nowNs(), -1, parent});
    tracer->open.push_back(index);
}

Tracer::Span::~Span()
{
    if (tracer == nullptr)
        return;
    tracer->spans[index].endNs = tracer->nowNs();
    tracer->open.pop_back();
}

void
Tracer::sample(const std::string &name, double value)
{
    if (on)
        series[name].push_back(value);
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const Rec &r : spans)
        if (r.parent >= 0)
            childNs[static_cast<std::size_t>(r.parent)] += r.endNs - r.startNs;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Rec &r = spans[i];
        self[r.layer] +=
            static_cast<double>(r.endNs - r.startNs - childNs[i]) * 1e-9;
    }
    return self;
}

std::vector<double>
Tracer::durations(std::string_view layer, std::string_view op) const
{
    std::vector<double> out;
    for (const Rec &r : spans)
        if (layer == r.layer && op == r.op)
            out.push_back(static_cast<double>(r.endNs - r.startNs) * 1e-9);
    return out;
}

std::vector<double>
Tracer::samples(const std::string &name) const
{
    const auto it = series.find(name);
    return it == series.end() ? std::vector<double>{} : it->second;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    char buf[256];
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Rec &r = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s:%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                      i == 0 ? "" : ",\n", r.layer, r.op, r.layer,
                      static_cast<double>(r.startNs) * 1e-3,
                      static_cast<double>(r.endNs - r.startNs) * 1e-3, i,
                      static_cast<long long>(r.parent));
        os << buf;
    }
    os << "]}\n";
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

void
RepResult::outputDouble(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    outputs.push_back(bits);
}

std::uint64_t
RepResult::fingerprint() const
{
    std::uint64_t h = mix64(events);
    h = mix64(h ^ ops);
    h = mix64(h ^ opsFailed);
    for (const sim::TimePs t : latencies)
        h = mix64(h ^ static_cast<std::uint64_t>(t));
    for (const std::uint64_t v : outputs)
        h = mix64(h ^ v);
    return h;
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"wall_s", "s", "lower"},
        {"setup_s", "s", "lower"},
        {"rss_peak_mb", "MB", "lower"},
        {"sim_lat_p50_us", "us", "lower"},
        {"sim_lat_p99_us", "us", "lower"},
        {"sim_lat_samples", "count", "higher"},
        {"ops", "count", "higher"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        // sim: the sequential kernel
        {"sim.events", "count", "lower"},
        {"sim.events_per_s", "1/s", "higher"},
        {"sim.ns_per_event", "ns", "lower"},
        {"sim.cancel_ratio", "ratio", "lower"},
        {"sim.peak_live_events", "count", "lower"},
        {"sim.wheel_overflows", "count", "lower"},
        {"sim.run_s", "s", "lower"},
        // sim.shard: the parallel kernel
        {"sim.shard.windows", "count", "lower"},
        {"sim.shard.events_per_window", "count", "higher"},
        {"sim.shard.cross_messages", "count", "lower"},
        {"sim.shard.imbalance", "ratio", "lower"},
        {"sim.shard.window_us_p50", "us", "lower"},
        {"sim.shard.window_us_p99", "us", "lower"},
        // core: cloud build and lazy materialization
        {"core.build_s", "s", "lower"},
        {"core.materialized_hosts", "count", "lower"},
        {"core.bytes_per_host", "B", "lower"},
        {"core.materialize_us_p50", "us", "lower"},
        {"core.open_ltl_us_p50", "us", "lower"},
        // host: ranking servers
        {"host.queries", "count", "higher"},
        {"host.events_per_query", "count", "lower"},
        {"host.sw_feature_queries", "count", "lower"},
        {"host.clear_stats_ms", "ms", "lower"},
        // obs: the metrics registry
        {"obs.paths", "count", "lower"},
        {"obs.hist_read_us_p50", "us", "lower"},
        {"obs.snapshot_ms", "ms", "lower"},
        // net: switches and NICs
        {"net.switch.forwarded", "count", "lower"},
        {"net.switch.dropped", "count", "lower"},
        {"net.switch.ecn_marked", "count", "lower"},
        {"net.switch.pfc_frames", "count", "lower"},
        {"net.nic.packets", "count", "lower"},
        // net.fluid: background traffic
        {"net.fluid.flows", "count", "lower"},
        {"net.fluid.set_rate_ms_p50", "ms", "lower"},
        {"net.fluid.promotions", "count", "lower"},
        {"net.fluid.boundary_ms", "ms", "lower"},
        {"net.fluid.verify_ms", "ms", "lower"},
        {"net.fluid.stall_transitions", "count", "lower"},
        // ltl: the transport
        {"ltl.frames_sent", "count", "lower"},
        {"ltl.retransmits", "count", "lower"},
        {"ltl.retransmit_ratio", "ratio", "lower"},
        {"ltl.timeouts", "count", "lower"},
        {"ltl.acks_sent", "count", "lower"},
        {"ltl.messages_delivered", "count", "higher"},
        {"ltl.frames_abandoned", "count", "lower"},
        // router, fpga: the Elastic Router and the shell's PCIe DMA
        {"router.flits_routed", "count", "lower"},
        {"router.messages_routed", "count", "lower"},
        {"router.credit_stalls", "count", "lower"},
        {"fpga.pcie_transfers", "count", "lower"},
        {"fpga.pcie_bytes", "B", "lower"},
        // haas: leases, placement, health, service managers
        {"haas.deploy_ms", "ms", "lower"},
        {"haas.acquire_us_p50", "us", "lower"},
        {"haas.release_us_p50", "us", "lower"},
        {"haas.lease_hosts", "count", "higher"},
        {"haas.placement.affinity_skips", "count", "lower"},
        {"haas.health.heartbeats", "count", "lower"},
        {"haas.health.misses", "count", "lower"},
        {"haas.health.domain_convictions", "count", "lower"},
        {"haas.health.conviction_us", "us", "lower"},
        {"haas.sm.failovers", "count", "lower"},
        {"haas.sm.migrations_queued", "count", "lower"},
        {"haas.sm.evacuation_us", "us", "lower"},
        // fault: injection and chaos phases
        {"fault.injected", "count", "lower"},
        {"fault.domain.injected", "count", "lower"},
        {"fault.chaos.phases_fired", "count", "higher"},
        {"fault.inject_ms", "ms", "lower"},
        // serving: the cluster client
        {"serving.routed", "count", "higher"},
        {"serving.admitted", "count", "higher"},
        {"serving.shed", "count", "lower"},
        {"serving.shed_ratio", "ratio", "lower"},
        {"serving.outlier.ejections", "count", "lower"},
        {"serving.submit_ns_p50", "ns", "lower"},
        // host self time per layer of the driver's calls (traced run)
        {"driver.self_s", "s", "lower"},
        {"sim.self_s", "s", "lower"},
        {"core.self_s", "s", "lower"},
        {"host.self_s", "s", "lower"},
        {"obs.self_s", "s", "lower"},
        {"net.self_s", "s", "lower"},
        {"net.fluid.self_s", "s", "lower"},
        {"ltl.self_s", "s", "lower"},
        {"fpga.self_s", "s", "lower"},
        {"haas.self_s", "s", "lower"},
        {"fault.self_s", "s", "lower"},
        {"serving.self_s", "s", "lower"},
        // the tracing itself
        {"trace.overhead_pct", "%", "lower"},
        {"trace.spans", "count", "lower"},
    };
    return specs;
}

const std::vector<Workload> &
workloads()
{
    // Why each workload exists, and which layers it bypasses: README.md.
    static const std::vector<Workload> list = {
        {"rank_fig08", runRankFig08},
        {"remote_pool", runRemotePool},
        {"l2_fabric", runL2Fabric},
        {"chaos_l2", runChaosL2},
        {"serving_overload", runServingOverload},
    };
    return list;
}

// ---------------------------------------------------------------------------
// Count helpers
// ---------------------------------------------------------------------------

void
addQueueCounts(RepResult &res,
               const std::vector<const sim::EventQueue *> &queues)
{
    double executed = 0, cancelled = 0, overflows = 0, peak = 0;
    for (const sim::EventQueue *q : queues) {
        executed += static_cast<double>(q->eventsExecuted());
        cancelled += static_cast<double>(q->eventsCancelled());
        overflows += static_cast<double>(q->wheelOverflows());
        peak = std::max(peak, static_cast<double>(q->peakLiveEvents()));
    }
    res.layers["sim.events"] = executed;
    res.layers["sim.cancel_ratio"] =
        executed + cancelled > 0 ? cancelled / (executed + cancelled) : 0.0;
    res.layers["sim.peak_live_events"] = peak;
    res.layers["sim.wheel_overflows"] = overflows;
}

void
addRegistryCounts(RepResult &res,
                  const std::vector<const obs::MetricsRegistry *> &regs)
{
    // Every family is "<prefix>.<instance>...<suffix>".
    struct Family {
        std::string_view prefix, suffix;
        const char *metric;
    };
    static const Family kFamilies[] = {
        {"switch.", ".forwarded", "net.switch.forwarded"},
        {"switch.", ".dropped", "net.switch.dropped"},
        {"switch.", ".ecn_marked", "net.switch.ecn_marked"},
        {"switch.", ".pfc_frames", "net.switch.pfc_frames"},
        {"nic.", ".rx_packets", "net.nic.packets"},
        {"nic.", ".tx_packets", "net.nic.packets"},
        {"ltl.", ".frames_sent", "ltl.frames_sent"},
        {"ltl.", ".retransmits", "ltl.retransmits"},
        {"ltl.", ".timeouts", "ltl.timeouts"},
        {"ltl.", ".acks_sent", "ltl.acks_sent"},
        {"ltl.", ".messages_delivered", "ltl.messages_delivered"},
        {"ltl.", ".frames_abandoned", "ltl.frames_abandoned"},
        {"router.", ".flits_routed", "router.flits_routed"},
        {"router.", ".messages_routed", "router.messages_routed"},
        {"router.", ".credit_stalls", "router.credit_stalls"},
        {"fpga.", ".pcie_transfers", "fpga.pcie_transfers"},
        {"fpga.", ".pcie_bytes", "fpga.pcie_bytes"},
    };
    double paths = 0;
    for (const obs::MetricsRegistry *r : regs) {
        const std::vector<std::string> all = r->paths();
        paths += static_cast<double>(all.size());
        for (const std::string &p : all) {
            const std::string_view v(p);
            for (const Family &f : kFamilies) {
                if (!v.starts_with(f.prefix) || !v.ends_with(f.suffix))
                    continue;
                if (r->hasProbe(p))
                    res.layers[f.metric] += r->probeValue(p);
                else if (const sim::Counter *c = r->findCounter(p))
                    res.layers[f.metric] += static_cast<double>(c->get());
            }
        }
    }
    const double sent = res.layers["ltl.frames_sent"];
    res.layers["ltl.retransmit_ratio"] =
        sent > 0 ? res.layers["ltl.retransmits"] / sent : 0.0;
    res.layers["obs.paths"] = paths;
}

}  // namespace ccsim::bench
