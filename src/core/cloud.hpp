/**
 * @file
 * ConfigurableCloud: the top-level public API of ccsim.
 *
 * Builds a datacenter of servers, each with a NIC and a bump-in-the-wire
 * FPGA shell spliced between the NIC and its TOR switch, wires the
 * three-tier network, registers every FPGA with the HaaS Resource
 * Manager, and provides helpers for establishing LTL channels between
 * FPGAs. This is the entry point downstream users (and the examples and
 * benches) program against.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fpga/shell.hpp"
#include "haas/haas.hpp"
#include "haas/health_monitor.hpp"
#include "ltl/ltl_engine.hpp"
#include "net/nic.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "serving/cluster_client.hpp"
#include "sim/event_queue.hpp"
#include "sim/pool.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::obs {
class ShardedObservability;
class TimeSeriesHub;
}

namespace ccsim::core {

/**
 * Datacenter configuration: a plain aggregate, set by field assignment
 * or designated initializers (every member has a default initializer,
 * so omitted members draw no -Wmissing-field-initializers).
 * ConfigurableCloud validates it at construction and reports
 * configuration errors via sim::fatal.
 */
struct CloudConfig {
    net::TopologyConfig topology{};
    /** Template applied to every server's shell (name/ip are overridden). */
    fpga::ShellConfig shellTemplate{};
    /** Build a NIC + host link per server (disable for pure-LTL studies). */
    bool createNics = true;
    /**
     * Flyweight servers: build() creates the fabric and registers every
     * host with the Resource Manager, but defers each server's heavy
     * state (shell, NIC, cables, FPGA manager — tens of KB) until the
     * host is first touched: an accessor, an LTL open, a lease deploy,
     * a heartbeat probe, or a fault injection. Untouched servers cost
     * tens of bytes, which is what lets a 250k-host L2 fabric fit in a
     * few GB. Materialization order follows touch order, so runs that
     * touch the same hosts in the same order stay byte-identical; a
     * run that eventually touches every host converges to the eager
     * build's state. A lazy cloud implies a lazy fabric: the build sets
     * topology.lazyHosts from this flag.
     */
    bool lazyHosts = false;
    /**
     * Observability hub to instrument the whole datacenter with
     * (`ltl.node<i>.*`, `router.node<i>.*`, `switch.*`, `fpga.node<i>.*`,
     * `nic.node<i>.*`, `haas.*`). Must outlive the cloud; null disables.
     */
    obs::Observability *obs = nullptr;
    /**
     * When non-zero, enable causal flow tracing on the hub's
     * FlightRecorder: 1-in-N flow sampling (1 = every flow), counters
     * bound into the registry (requires obs).
     */
    std::uint32_t flowSampleEvery = 0;
    /** Worst-N exemplar traces the recorder keeps (with flow tracing). */
    std::size_t flowTailCapacity = 64;

    /**
     * Cluster-serving defaults applied to every ClusterClient built via
     * makeClusterClient(): balancer policy, admission limits, ejection
     * thresholds, request policy. Validated at cloud construction like
     * the rest of the config.
     */
    serving::ServingConfig serving{};

    /**
     * Worker threads for the parallel kernel (sharded construction
     * only; used by shardPlan()). 0 or 1 runs the partitioned build on
     * a single thread — still byte-identical to any other thread count.
     */
    int shards = 0;
    /**
     * Per-shard observability hubs for the sharded build (one hub per
     * partition: pods + spine). Mutually exclusive with `obs`; must
     * outlive the cloud. Null disables instrumentation.
     */
    obs::ShardedObservability *shardObs = nullptr;
    /**
     * Live windowed time-series: the cloud makes the hub watch every
     * instrumented registry (the single hub, or all per-shard hubs) and
     * registers its `ts.*` self probes and trace on the first hub. The
     * owner of the kernel starts the rolls with
     * TimeSeriesHub::startSampling(sq) right after building the cloud.
     * Requires obs or shardObs; must outlive the cloud's simulation run.
     * Null disables.
     */
    obs::TimeSeriesHub *timeSeries = nullptr;
};

/**
 * A move-only RAII handle for a one-directional LTL channel between two
 * FPGAs: owns one send connection on the source engine and one receive
 * connection on the destination engine, and closes both on destruction
 * (so fault-triggered teardown cannot leak connection-table entries).
 *
 * Handles must not outlive the ConfigurableCloud that opened them.
 */
class LtlChannel
{
  public:
    /** An empty (closed) handle. */
    LtlChannel() = default;

    LtlChannel(const LtlChannel &) = delete;
    LtlChannel &operator=(const LtlChannel &) = delete;

    LtlChannel(LtlChannel &&other) noexcept { moveFrom(other); }
    LtlChannel &operator=(LtlChannel &&other) noexcept
    {
        if (this != &other) {
            close();
            moveFrom(other);
        }
        return *this;
    }

    ~LtlChannel() { close(); }

    /** The send-connection index on the source shell's engine. */
    std::uint16_t sendConn() const { return sendId; }
    /** The receive-connection index on the destination shell's engine. */
    std::uint16_t recvConn() const { return recvId; }

    /** The engine owning the send side (nullptr if closed). */
    ltl::LtlEngine *senderEngine() const { return sender; }

    /** True while the handle owns open connections. */
    bool isOpen() const { return sender != nullptr; }
    explicit operator bool() const { return isOpen(); }

    /** Convenience: send a message down this channel. */
    void send(std::uint32_t bytes, std::shared_ptr<void> payload = nullptr,
              std::uint8_t vc = 0)
    {
        if (sender)
            sender->sendMessage(sendId, bytes, std::move(payload), vc);
    }

    /** True if the send side has been declared failed by LTL. */
    bool failed() const
    {
        return sender != nullptr && sender->sendConnectionFailed(sendId);
    }

    /**
     * Re-handshake after the far end rejoined (repair or reconfiguration
     * complete): both ends rewind to sequence 0 and the send side's
     * failure flag and retry budget are cleared, as when the control
     * plane re-establishes the connection on real hardware. Any frames
     * still unaccounted for are written off.
     */
    void rehandshake()
    {
        if (sender)
            sender->resyncSend(sendId);
        if (receiver)
            receiver->resyncReceive(recvId);
    }

    /** Close both connections now (idempotent). */
    void close()
    {
        if (sender)
            sender->closeSend(sendId);
        if (receiver)
            receiver->closeReceive(recvId);
        sender = nullptr;
        receiver = nullptr;
        sendId = 0;
        recvId = 0;
    }

  private:
    friend class ConfigurableCloud;

    LtlChannel(ltl::LtlEngine *send_engine, std::uint16_t send_conn,
               ltl::LtlEngine *recv_engine, std::uint16_t recv_conn)
        : sender(send_engine), receiver(recv_engine), sendId(send_conn),
          recvId(recv_conn)
    {
    }

    void moveFrom(LtlChannel &other)
    {
        sender = other.sender;
        receiver = other.receiver;
        sendId = other.sendId;
        recvId = other.recvId;
        other.sender = nullptr;
        other.receiver = nullptr;
        other.sendId = 0;
        other.recvId = 0;
    }

    ltl::LtlEngine *sender = nullptr;
    ltl::LtlEngine *receiver = nullptr;
    std::uint16_t sendId = 0;
    std::uint16_t recvId = 0;
};

/** A constructed Configurable Cloud instance. */
class ConfigurableCloud
{
  public:
    /**
     * Single-queue construction: every device schedules on @p eq. Fault
     * injection, health monitoring and chaos campaigns run at barriers,
     * so drive such a cloud through a one-partition ShardedEventQueue
     * whose partition(0) is @p eq.
     */
    ConfigurableCloud(sim::EventQueue &eq, CloudConfig cfg);

    /**
     * Partitioned construction on the parallel kernel: pod p's servers,
     * switches, and cables live on @p sq.partition(p) and the L2 spine
     * (plus the HaaS resource manager) on partition `pods`. Build
     * @p sq from shardPlan(cfg) so the partition count matches the
     * topology. Instrumentation must come through
     * cfg.shardObs (one hub per partition) rather than cfg.obs. Health
     * monitoring and fault injection run as barrier hooks here exactly
     * as on a single-queue cloud; see fault/fault.hpp for the two fault
     * modes only a single-queue cloud supports.
     */
    ConfigurableCloud(sim::ShardedEventQueue &sq, CloudConfig cfg);

    ~ConfigurableCloud();

    /**
     * The kernel shape a sharded build of @p cfg needs: one logical
     * process per pod plus one for the spine and cfg.shards worker
     * threads. The lookahead window is derived from the trunk cables at
     * start.
     */
    static sim::ShardedEventQueue::Config shardPlan(const CloudConfig &cfg)
    {
        sim::ShardedEventQueue::Config qc;
        qc.partitions = cfg.topology.pods + 1;
        qc.threads = cfg.shards > 0 ? cfg.shards : 1;
        return qc;
    }

    ConfigurableCloud(const ConfigurableCloud &) = delete;
    ConfigurableCloud &operator=(const ConfigurableCloud &) = delete;

    int numServers() const { return topo->numHosts(); }

    /** A server's shell; touching it materializes a flyweight stub. */
    fpga::Shell &shell(int host)
    {
        materializeServer(host);
        return *hostStates[host]->shell;
    }
    net::Nic &nic(int host)
    {
        materializeServer(host);
        return *hostStates[host]->nic;
    }
    net::Topology &topology() { return *topo; }
    haas::ResourceManager &resourceManager() { return *rm; }
    haas::FpgaManager &fpgaManager(int host)
    {
        materializeServer(host);
        return *hostStates[host]->fm;
    }

    // --- flyweight servers (lazyHosts) ---

    /**
     * Create a server's heavy state now (idempotent; every host is
     * already materialized in an eager build). Construction follows the
     * exact per-host sequence of the eager build — shell, observability
     * attach, fabric splice, NIC + cable, FPGA manager, RM binding —
     * so a lazy build that touches hosts in ascending order is
     * byte-identical to the eager one.
     */
    void materializeServer(int host);

    /** True once a server's heavy state exists. */
    bool serverMaterialized(int host) const
    {
        return hostStates.at(host) != nullptr;
    }

    /** Servers whose heavy state exists (== numServers() when eager). */
    int materializedServers() const { return materializedCount; }

    /**
     * Memory telemetry for the fabric (packetPoolStats-style helper):
     * live-object counts, an estimated resident footprint per host slot
     * amortized over the whole fleet, and the thread-local allocation
     * pool's counters. The same numbers back the `sim.mem.*` gauges.
     */
    struct FabricMemoryStats {
        int hosts = 0;               ///< host slots (stubs included)
        int materializedHosts = 0;   ///< slots with heavy state
        std::size_t switches = 0;    ///< always eager
        std::size_t fabricLinks = 0; ///< trunks + materialized cables
        /** Estimated bytes of heavy state per materialized server. */
        std::size_t bytesPerServer = 0;
        /** Estimated bytes per host slot amortized over the fleet. */
        double bytesPerHost = 0.0;
        /**
         * Fabric and NIC channels that hold per-priority queue state
         * (allocated by their first packet or PFC pause; not in the
         * byte estimates). Counted by a scan over every cable.
         */
        std::size_t queueStateChannels = 0;
        sim::PoolStats pool;
    };
    FabricMemoryStats fabricMemoryStats() const;

    /**
     * Open a one-directional LTL channel from @p from_host to @p to_host:
     * allocates a receive connection on the destination (delivering into
     * ER port @p deliver_to_er_port) and a send connection on the source.
     * The returned RAII handle closes both connections when destroyed.
     */
    LtlChannel openLtl(int from_host, int to_host, int deliver_to_er_port,
                       std::uint8_t vc = 0);

    /** The IP address of a server (shared by its NIC and FPGA). */
    net::Ipv4Addr addressOf(int host) const;

    /** The host index owning @p addr, or -1 if no server has it. */
    int hostByAddress(net::Ipv4Addr addr) const;

    /**
     * Management-path reachability: true while the server's FPGA would
     * answer an FPGA-Manager probe (bridge up and FPGA<->TOR cable not
     * administratively down). This is what a HealthMonitor heartbeat
     * observes. Probing a flyweight stub materializes it (a heartbeat
     * is a management-path touch), so lazy and eager builds answer
     * identically.
     */
    bool nodeReachable(int host);

    /**
     * Wire @p hm to this cloud: installs the management-path
     * reachability probe and subscribes every shell's LTL engine so
     * retransmission-timeout streaks feed the monitor's passive
     * suspicion (remote IPs are resolved to host indices; single-queue
     * builds only). Call before hm.startSharded(); @p hm must outlive
     * the cloud's simulation run.
     */
    void attachHealthMonitor(haas::HealthMonitor &hm);

    /**
     * Build a serving facade over @p sm's lease set, configured from the
     * cloud-level CloudConfig::serving: the instance source is the
     * service manager's live instance list, the client registers
     * with the cloud's observability hub under `serving.<name>`, and —
     * when @p hm is given — every outlier ejection feeds the monitor's
     * evidence score from source "serving.<name>" (idempotent per
     * episode). Callers still register a data-plane endpoint per
     * instance. @p sm and @p hm must outlive the returned client.
     * Not yet supported on a sharded cloud (rejected like health
     * monitoring).
     */
    std::unique_ptr<serving::ClusterClient> makeClusterClient(
        haas::ServiceManager &sm, const std::string &name,
        haas::HealthMonitor *hm = nullptr);

    /** The observability hub the cloud was built with (may be null). */
    obs::Observability *observability() const { return config.obs; }

    /** True when built on the parallel (sharded) kernel. */
    bool sharded() const { return shards != nullptr; }

    /** True when servers are flyweight stubs until first touch. */
    bool lazy() const { return config.lazyHosts; }

    /**
     * The queue the control plane (resource manager, fault injector,
     * health monitor) runs on: the cloud's own queue on a single-queue
     * build, the spine partition on a sharded one.
     */
    sim::EventQueue &controlQueue() { return queue; }

    /**
     * True when @p sq drives this cloud: it is the sharded build's
     * kernel, or a one-partition kernel whose partition 0 is the
     * single-queue build's queue. Barrier-driven components (fault
     * injector, health monitor, chaos engine) require it.
     */
    bool drivenBy(const sim::ShardedEventQueue &sq) const;

    /** The sharded hubs the cloud was built with (null single-queue). */
    obs::ShardedObservability *shardedObservability() const
    {
        return config.shardObs;
    }

    /**
     * The logical process a server executes on (== its pod). Valid in
     * both modes; in the single-queue build it is informational only.
     */
    int partitionOf(int host) const
    {
        const auto &t = config.topology;
        return host / (t.racksPerPod * t.hostsPerRack);
    }

    /** The event queue a server's devices schedule on. */
    sim::EventQueue &queueFor(int host)
    {
        return shards ? shards->partition(partitionOf(host)) : queue;
    }

    // --- fault injection hooks (ccsim::fault) ---

    /** Cut / restore a server's FPGA<->TOR cable (both directions). */
    void setHostLinkDown(int host, bool down);

    /**
     * Register @p tag as this cloud's single active fault injector.
     * A second concurrent attach is a configuration error (two injectors
     * would fight over the same admin hooks).
     */
    void attachFaultInjector(const void *tag);

    /** Release the fault-injector slot (no-op if @p tag isn't attached). */
    void detachFaultInjector(const void *tag);

    /** The currently attached injector tag (nullptr when none). */
    const void *faultInjector() const { return injectorTag; }

  private:
    /**
     * A server's heavy (cold) state, allocated on first touch. The
     * flyweight split: everything class-invariant lives in the shared
     * CloudConfig (shell template, NIC policy, cable lengths); the
     * per-host warm facts (address, MAC, coordinates) live in the
     * topology's HostPort stub; this record is only born when the host
     * actually participates.
     */
    struct HostState {
        std::unique_ptr<fpga::Shell> shell;
        std::unique_ptr<net::Nic> nic;
        std::unique_ptr<net::Link> nicLink;
        std::unique_ptr<haas::FpgaManager> fm;
    };

    sim::EventQueue &queue;  ///< sharded mode: the spine partition
    CloudConfig config;
    sim::ShardedEventQueue *shards = nullptr;
    std::unique_ptr<net::Topology> topo;
    /** One slot per host; nullptr while the server is a stub. */
    std::vector<std::unique_ptr<HostState>> hostStates;
    std::unique_ptr<haas::ResourceManager> rm;
    int materializedCount = 0;
    haas::HealthMonitor *healthMon = nullptr;
    const void *injectorTag = nullptr;

    static void validate(const CloudConfig &cfg);
    void validateSharded() const;
    /** The hub components on @p partition register with (may be null). */
    obs::Observability *hubFor(int partition);
    void build();
    void registerMemoryProbes(obs::Observability *hub);
    /** fabricMemoryStats() without the cable scan (cheap for probes). */
    FabricMemoryStats memoryEstimate() const;
    void installTimeoutObserver(int host);
};

}  // namespace ccsim::core
