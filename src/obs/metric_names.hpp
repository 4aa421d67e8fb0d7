/**
 * @file
 * The canonical catalogue of every metric path the simulator registers.
 *
 * Each entry is a glob pattern (`*` matches any non-empty character
 * sequence, including dots) plus the metric kind and a one-line
 * description. `docs/METRICS.md` is generated from this table by
 * `tools/gen_metrics_md`; a registry cross-check test asserts that every
 * path a fully-instrumented cloud registers matches a documented
 * pattern, so adding a probe without documenting it fails CI.
 */
#pragma once

#include <cstddef>
#include <string_view>

namespace ccsim::obs {

/** One documented metric pattern. */
struct MetricPattern {
    /** Glob over dotted paths; `*` matches one or more characters. */
    const char *pattern;
    /** "counter", "gauge" (probe-backed), or "histogram". */
    const char *kind;
    /** One-line description for the generated reference. */
    const char *help;
};

/**
 * Every metric family, grouped by subsystem prefix. Order is the order
 * of the generated document.
 */
inline constexpr MetricPattern kMetricPatterns[] = {
    // --- sim.queue.* : DES kernel health (registerEventQueueProbes) ---
    {"sim.queue.events_per_sec", "gauge",
     "Events executed per simulated second (deterministic rate)."},
    {"sim.queue.live", "gauge",
     "Currently scheduled, uncancelled events."},
    {"sim.queue.cancelled", "gauge", "Total event cancellations."},
    {"sim.queue.wheel_overflow", "gauge",
     "Events parked at the timing wheel's top level, past its 2^60 ps span."},

    // --- sim.shard.* : parallel kernel health (registerShardProbes) ---
    {"sim.shard.partitions", "gauge",
     "Logical processes (per-pod partitions) in the sharded kernel."},
    {"sim.shard.windows", "gauge",
     "Conservative synchronization windows executed."},
    {"sim.shard.cross_messages", "gauge",
     "Cross-partition messages delivered at window barriers."},
    {"sim.shard.events", "gauge",
     "Events executed, summed over all partitions."},
    {"sim.shard.partition*.events", "gauge",
     "Events executed by one partition (load-balance view)."},

    // --- sim.mem.* : fabric memory / live-object gauges
    //     (ConfigurableCloud::registerMemoryProbes; the numbers behind
    //     fabricMemoryStats()) ---
    {"sim.mem.hosts", "gauge",
     "Host slots in the fabric, flyweight stubs included."},
    {"sim.mem.materialized_hosts", "gauge",
     "Servers whose heavy state (shell/NIC/cables/FM) exists."},
    {"sim.mem.switches", "gauge",
     "Switches in the fabric (always eagerly built)."},
    {"sim.mem.fabric_links", "gauge",
     "Live Link objects: trunks plus materialized access/NIC cables."},
    {"sim.mem.bytes_per_host", "gauge",
     "Estimated resident bytes per host slot, amortized over the fleet "
     "(sizeof-based; an order-of-magnitude gauge, not an audit)."},

    // --- ts.* : live time-series hub health
    //     (TimeSeriesHub::registerSelfProbes) ---
    {"ts.windows", "gauge", "Windows rolled by the time-series hub."},
    {"ts.series", "gauge",
     "Series tracked (concrete registry metrics plus aggregates)."},
    {"ts.exported_lines", "gauge", "JSONL lines written to the CCSIM_TS "
     "stream."},

    // --- slo.<objective>.* : the SLO burn-rate engine (SloEngine) ---
    {"slo.*.alerts", "counter",
     "Burn-rate alerts fired for one objective (all matched series)."},
    {"slo.*.resolved", "counter",
     "Alerts resolved after the short burn window recovered."},
    {"slo.*.firing", "gauge",
     "Matched series currently in the firing state."},
    {"slo.*.burn_long", "gauge",
     "Worst long-window error-budget burn rate across matched series."},
    {"slo.*.burn_short", "gauge",
     "Worst short-window error-budget burn rate across matched series."},

    // --- trace.* : flow tracing (FlightRecorder::bindMetrics) ---
    {"trace.sampled_flows", "counter",
     "Flows admitted by the 1-in-N flow sampler."},
    {"trace.dropped_spans", "counter",
     "Spans discarded: late arrivals, per-trace cap, exemplar eviction."},

    // --- ltl.node<i>.* : LTL transport engines ---
    {"ltl.*.rtt_us", "histogram",
     "Data-frame RTT, header generation to ACK receipt (microseconds)."},
    {"ltl.*.frames_sent", "gauge", "Data frames transmitted (first try)."},
    {"ltl.*.frames_acked", "gauge", "Data frames cumulatively ACKed."},
    {"ltl.*.frames_abandoned", "gauge",
     "Frames dropped with their connection at retry exhaustion."},
    {"ltl.*.frames_in_flight", "gauge",
     "Unacknowledged frames currently outstanding."},
    {"ltl.*.retransmits", "gauge", "Frame retransmissions (go-back-N)."},
    {"ltl.*.timeouts", "gauge", "Retransmission-timer expirations."},
    {"ltl.*.acks_sent", "gauge", "Cumulative ACK control frames sent."},
    {"ltl.*.nacks_sent", "gauge", "NACK control frames sent."},
    {"ltl.*.cnps_sent", "gauge",
     "Congestion-notification packets sent (ECN echo)."},
    {"ltl.*.cnps_received", "gauge",
     "Congestion-notification packets received."},
    {"ltl.*.messages_delivered", "gauge",
     "Complete messages handed to the receiving role."},
    {"ltl.*.duplicate_frames", "gauge",
     "Received frames below the cumulative-ACK point."},
    {"ltl.*.out_of_order_frames", "gauge",
     "Received frames ahead of the expected sequence."},
    {"ltl.*.conn_failures", "gauge",
     "Send connections declared failed (retry exhaustion or reject)."},
    {"ltl.*.sends_rejected", "gauge",
     "sendMessage calls refused while the engine was quiescing."},
    {"ltl.*.rejects_sent", "gauge",
     "REJECT control frames sent to peers of a quiesced engine."},
    {"ltl.*.rejects_received", "gauge",
     "REJECT control frames received (peer quiesced; conn failed fast)."},
    {"ltl.*.quiesces", "gauge",
     "Quiesce/drain cycles started on this engine."},

    // --- switch.<name>.* : fabric switches ---
    {"switch.*.forwarded", "gauge", "Packets forwarded to an output port."},
    {"switch.*.dropped", "gauge",
     "Packets dropped (full queues, admin down)."},
    {"switch.*.ecn_marked", "gauge",
     "Packets ECN-marked above the marking threshold."},
    {"switch.*.pfc_frames", "gauge",
     "Priority-flow-control pause frames emitted."},
    {"switch.*.route_misses", "gauge",
     "Packets with no matching route entry."},
    {"switch.*.brownout_drops", "gauge",
     "Packets dropped by an injected brownout fault."},
    {"switch.*.q*.depth", "gauge",
     "Aggregate egress occupancy of one traffic class (bytes)."},

    // --- router.node<i>.* : Elastic Router crossbars ---
    {"router.*.flits_routed", "gauge", "Flits moved through the crossbar."},
    {"router.*.messages_routed", "gauge",
     "Complete messages (tail flits) routed."},
    {"router.*.busy_cycles", "gauge",
     "Cycles the allocator had at least one flit buffered."},
    {"router.*.buffered_flits", "gauge", "Flits currently buffered."},
    {"router.*.peak_buffered_flits", "gauge",
     "High-water mark of buffered flits."},
    {"router.*.port*.flits_in", "counter",
     "Flits injected on one input port."},
    {"router.*.port*.flits_out", "counter",
     "Flits granted to one output port."},
    {"router.*.port*.credit_stalls", "counter",
     "Injection attempts stalled waiting for credits."},

    // --- fpga.node<i>.* : shell infrastructure ---
    {"fpga.*.pcie_bytes", "gauge", "Bytes moved over the PCIe DMA engine."},
    {"fpga.*.pcie_transfers", "gauge", "PCIe DMA transfers completed."},
    {"fpga.*.pcie_util", "gauge",
     "PCIe busy fraction (full duplex counts as 2.0)."},
    {"fpga.*.dram_bytes", "gauge", "Bytes accessed in shell DRAM."},
    {"fpga.*.dram_reads", "gauge", "DRAM read transactions."},
    {"fpga.*.dram_writes", "gauge", "DRAM write transactions."},
    {"fpga.*.dram_util", "gauge", "DRAM controller busy fraction."},

    // --- nic.node<i>.* : host NICs ---
    {"nic.*.rx_packets", "gauge", "Packets received from the FPGA side."},
    {"nic.*.tx_packets", "gauge", "Packets transmitted toward the FPGA."},

    // --- host.<node>.* : ranking servers ---
    {"host.*.latency_ms", "histogram",
     "Query sojourn time, arrival to completion (milliseconds)."},
    {"host.*.completed", "gauge", "Queries completed."},
    {"host.*.in_flight", "gauge", "Queries admitted but not completed."},
    {"host.*.queue_depth", "gauge", "Queries waiting for a free core."},
    {"host.*.sw_feature_queries", "gauge",
     "Queries whose feature stage ran in software (incl. rescues)."},
    {"host.*.shed", "gauge",
     "Queries refused by the admission gate at submission."},
    {"host.*.accel_blocked", "gauge",
     "Queries currently blocked inside the accelerator."},
    {"host.*.retry.deadline_expired", "gauge",
     "Accelerator attempts that outlived their per-attempt deadline."},
    {"host.*.retry.attempts", "gauge",
     "Retry attempts issued after a deadline expiry."},
    {"host.*.retry.hedges", "gauge",
     "Hedged duplicate requests issued to a replica."},
    {"host.*.retry.hedge_wins", "gauge",
     "Queries completed by the hedged duplicate, not the primary."},
    {"host.*.retry.sw_fallbacks", "gauge",
     "Accelerated queries that fell back to the software feature path."},
    {"host.*.retry.hedge_delay_us", "gauge",
     "Hedge delay a query dispatched now would use (microseconds)."},

    // --- haas.* : Hardware-as-a-Service resource manager ---
    {"haas.free", "gauge", "FPGAs in the free pool."},
    {"haas.allocated", "gauge", "FPGAs held by active leases."},
    {"haas.failed", "gauge", "FPGAs currently marked failed."},
    {"haas.failures", "gauge", "Total failure reports."},
    {"haas.repairs", "gauge", "Total repair completions."},
    {"haas.sm.*.instances", "gauge",
     "Healthy instances backing one managed service."},
    {"haas.sm.*.failovers", "gauge",
     "Failovers performed for one managed service."},
    {"haas.sm.*.auto_heals", "gauge",
     "Instances re-acquired by auto-heal after node repairs."},
    {"haas.sm.*.migration_queue", "gauge",
     "Failovers currently waiting behind the migration rate limit."},
    {"haas.sm.*.migrations_queued", "gauge",
     "Cumulative failovers that had to queue behind the rate limit."},

    // --- haas.placement.* : failure-domain-aware placement ---
    {"haas.placement.affinity_skips", "gauge",
     "Free candidates passed over to honor rack/pod anti-affinity caps."},
    {"haas.placement.racks_used", "gauge",
     "Distinct (service, rack) placements currently allocated."},

    // --- haas.health.* : the failure detector (HealthMonitor) ---
    {"haas.health.heartbeats", "gauge",
     "FPGA-Manager heartbeat probes issued."},
    {"haas.health.misses", "gauge", "Heartbeat probes that went unanswered."},
    {"haas.health.detections", "gauge",
     "Nodes declared failed by the detector."},
    {"haas.health.domain_convictions", "gauge",
     "Whole failure domains convicted as one correlated event."},
    {"haas.health.domains", "gauge",
     "Failure domains (racks) covered by the watch set."},
    {"haas.health.rejoins", "gauge",
     "Nodes readmitted after sustained healthy heartbeats."},
    {"haas.health.streak_reports", "gauge",
     "LTL retransmit-timeout streaks credited as passive suspicion."},
    {"haas.health.evidence_reports", "gauge",
     "Named-source evidence reports credited (idempotent per episode)."},
    {"haas.health.suspected", "gauge",
     "Nodes currently above the suspicion threshold."},
    {"haas.health.monitored", "gauge", "Nodes under health monitoring."},
    {"haas.health.node*.suspicion", "gauge",
     "Current phi-style suspicion score of one node."},

    // --- serving.<service>.* : the cluster serving layer ---
    {"serving.*.routed", "gauge",
     "Requests routed to a backend by the cluster client."},
    {"serving.*.no_backend", "gauge",
     "Requests dropped because no routable backend remained."},
    {"serving.*.avoided", "gauge",
     "Routing candidates skipped by the failure-domain avoid predicate."},
    {"serving.*.latency_ms", "histogram",
     "Routed-request sojourn time, forward to response (milliseconds)."},
    {"serving.*.outstanding", "gauge",
     "Requests in flight across the pool."},
    {"serving.*.host.*.outstanding", "gauge",
     "Requests in flight toward one backend."},
    {"serving.*.admission.admitted", "gauge",
     "Requests admitted by the token-bucket gate."},
    {"serving.*.admission.shed", "gauge",
     "Requests refused by the token-bucket gate."},
    {"serving.*.admission.tenant.*.shed", "gauge",
     "Requests shed against one tenant's rate limit."},
    {"serving.*.outlier.ejections", "gauge",
     "Outlier ejections performed (all signals)."},
    {"serving.*.outlier.ejections_errors", "gauge",
     "Ejections triggered by consecutive routed-request errors."},
    {"serving.*.outlier.ejections_latency", "gauge",
     "Ejections triggered by the latency-percentile signal."},
    {"serving.*.outlier.ejections_suppressed", "gauge",
     "Ejections suppressed by the max-ejected-fraction guard."},
    {"serving.*.outlier.errors", "gauge",
     "Routed-request errors recorded by the outlier detector."},
    {"serving.*.outlier.ejected", "gauge",
     "Backends currently ejected from the routable set."},

    // --- chaos.* : the chaos-campaign engine (fault::ChaosEngine) ---
    {"chaos.phases", "gauge", "Phases in the scripted chaos scenario."},
    {"chaos.phases_fired", "gauge", "Scenario phases fired so far."},

    // --- fault.* : live fault injection (ccsim::fault) ---
    {"fault.injected", "gauge", "Faults injected so far."},
    {"fault.recovered", "gauge", "Faults fully recovered."},
    {"fault.link_flaps", "gauge", "Link-flap faults injected."},
    {"fault.corruption_bursts", "gauge",
     "Packet-corruption bursts injected."},
    {"fault.fpga_failures", "gauge", "FPGA hard-failure faults injected."},
    {"fault.reconfig_pauses", "gauge",
     "Reconfiguration-pause faults injected."},
    {"fault.graceful_reconfigs", "gauge",
     "Graceful (quiesce-first) reconfiguration faults injected."},
    {"fault.brownouts", "gauge", "Switch brownout faults injected."},
    {"fault.domain.injected", "gauge",
     "Correlated domain-level faults injected (TOR, pod, spine, drain)."},
    {"fault.domain.tor_fails", "gauge",
     "TOR hard-death faults injected (whole rack dark at once)."},
    {"fault.domain.pod_events", "gauge",
     "Pod power events injected (staggered host deaths)."},
    {"fault.domain.gray_faults", "gauge",
     "Gray spine degradations injected (loss/latency, heartbeats alive)."},
    {"fault.domain.maintenance", "gauge",
     "Rolling maintenance drains injected."},
    {"fault.domain.tors_dead", "gauge",
     "TOR switches currently held dark by the injector."},
    {"fault.nodes_down", "gauge", "Servers currently impaired."},
    {"fault.node*.down", "gauge",
     "1 while this server is impaired (eager single-queue clouds)."},
    {"fault.node*.downtime_us", "gauge",
     "Accumulated impairment time of this server (microseconds; eager "
     "single-queue clouds)."},
};

inline constexpr std::size_t kNumMetricPatterns =
    sizeof(kMetricPatterns) / sizeof(kMetricPatterns[0]);

/**
 * True when @p path matches @p pattern, where `*` matches one or more
 * characters (including dots). Iterative glob with single-star
 * backtracking — patterns in the table only ever need one level.
 */
inline bool
matchesMetricPattern(std::string_view pattern, std::string_view path)
{
    std::size_t p = 0, s = 0;
    std::size_t starP = std::string_view::npos, starS = 0;
    while (s < path.size()) {
        if (p < pattern.size() && pattern[p] == '*') {
            starP = p++;
            starS = s + 1;  // '*' must consume at least one character
            ++s;
        } else if (p < pattern.size() && pattern[p] == path[s]) {
            ++p;
            ++s;
        } else if (starP != std::string_view::npos) {
            p = starP + 1;
            s = ++starS;
        } else {
            return false;
        }
    }
    // A leftover '*' would have to match zero characters — disallowed.
    return p == pattern.size();
}

/**
 * The first documented pattern matching @p path, or nullptr when the
 * path is undocumented.
 */
inline const MetricPattern *
findMetricPattern(std::string_view path)
{
    for (const auto &mp : kMetricPatterns) {
        if (matchesMetricPattern(mp.pattern, path))
            return &mp;
    }
    return nullptr;
}

}  // namespace ccsim::obs
