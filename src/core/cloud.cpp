#include "core/cloud.hpp"

#include "obs/sharded_obs.hpp"
#include "obs/timeseries.hpp"
#include "sim/logging.hpp"

namespace ccsim::core {

namespace {

/** NIC-to-FPGA cable length. */
constexpr double kNicCableMeters = 2.0;

}  // namespace

void
ConfigurableCloud::validate(const CloudConfig &cfg)
{
    const auto &t = cfg.topology;
    if (t.hostsPerRack < 1 || t.racksPerPod < 1 || t.pods < 1)
        sim::fatalf("CloudConfig: topology has no servers (hostsPerRack=",
                    t.hostsPerRack, ", racksPerPod=", t.racksPerPod,
                    ", pods=", t.pods, "); every dimension must be >= 1");
    if (t.l1PerPod < 1 || t.l2Count < 1)
        sim::fatalf("CloudConfig: need at least one switch per fabric "
                    "tier (l1PerPod=", t.l1PerPod, ", l2Count=", t.l2Count,
                    ")");
    if (cfg.flowSampleEvery > 0 && cfg.obs == nullptr &&
        cfg.shardObs == nullptr)
        sim::fatal("CloudConfig: flowSampleEvery set but no observability "
                   "hub attached; set cfg.obs or cfg.shardObs first");
    serving::validateServingConfig(cfg.serving);
    if (cfg.timeSeries != nullptr && cfg.obs == nullptr &&
        cfg.shardObs == nullptr)
        sim::fatal("CloudConfig: timeSeries set but no observability hub "
                   "attached; the hub needs registries to watch");
}

ConfigurableCloud::ConfigurableCloud(sim::EventQueue &eq, CloudConfig cfg)
    : queue(eq), config(std::move(cfg))
{
    validate(config);
    if (config.shardObs != nullptr)
        sim::fatal("CloudConfig: shardObs set on a single-queue cloud; "
                   "construct with a ShardedEventQueue (shardPlan) or set "
                   "cfg.obs instead");
    build();
}

ConfigurableCloud::ConfigurableCloud(sim::ShardedEventQueue &sq,
                                     CloudConfig cfg)
    // The spine partition doubles as the "default" queue: it hosts the
    // L2 switches and the HaaS resource manager.
    : queue(sq.partition(cfg.topology.pods)), config(std::move(cfg)),
      shards(&sq)
{
    validate(config);
    validateSharded();
    build();
}

bool
ConfigurableCloud::drivenBy(const sim::ShardedEventQueue &sq) const
{
    if (shards != nullptr)
        return shards == &sq;
    return sq.partitionCount() == 1 && &sq.partition(0) == &queue;
}

void
ConfigurableCloud::validateSharded() const
{
    if (config.obs != nullptr)
        sim::fatal("CloudConfig: a sharded cloud takes per-partition hubs "
                   "in cfg.shardObs, not cfg.obs "
                   "(one hub per worker keeps the hot path lock-free)");
    if (shards->partitionCount() != config.topology.pods + 1)
        sim::fatalf("ConfigurableCloud: sharded build needs pods + 1 = ",
                    config.topology.pods + 1, " partitions (one per pod "
                    "plus the spine), got ", shards->partitionCount(),
                    "; build the queue from shardPlan(cfg)");
    if (config.shardObs != nullptr &&
        config.shardObs->shardCount() < config.topology.pods + 1)
        sim::fatalf("ConfigurableCloud: shardObs needs at least pods + 1 "
                    "= ", config.topology.pods + 1, " hubs, got ",
                    config.shardObs->shardCount());
}

obs::Observability *
ConfigurableCloud::hubFor(int partition)
{
    if (shards == nullptr)
        return config.obs;
    return config.shardObs ? &config.shardObs->shard(partition) : nullptr;
}

void
ConfigurableCloud::build()
{
    const int spinePartition = config.topology.pods;
    // One flag governs both layers: a lazy cloud implies a lazy fabric.
    config.topology.lazyHosts = config.lazyHosts;
    if (shards == nullptr) {
        if (config.obs)
            obs::registerEventQueueProbes(config.obs->registry, queue);
        topo = std::make_unique<net::Topology>(queue, config.topology);
    } else {
        // Kernel-health probes land in shard 0's registry; they are read
        // only at barriers (a TimeSeriesHub rolls from a barrier hook),
        // where the per-partition counters are quiescent.
        if (config.shardObs)
            obs::registerShardProbes(config.shardObs->shard(0).registry,
                                     *shards);
        topo = std::make_unique<net::Topology>(*shards, config.topology);
    }
    if (hubFor(0) != nullptr) {
        std::vector<obs::Observability *> hubs;
        for (int p = 0; p <= spinePartition; ++p)
            hubs.push_back(hubFor(p));
        topo->attachObservability(std::move(hubs));
    }
    rm = std::make_unique<haas::ResourceManager>(queue);
    if (auto *hub = hubFor(spinePartition))
        rm->attachObservability(hub);
    registerMemoryProbes(hubFor(0));

    const int n = topo->numHosts();
    hostStates.resize(n);
    if (config.lazyHosts) {
        // Every host joins the RM pool as a stub so leases, failure
        // reports, and pod/rack constraints see the full fleet; the
        // first manager() touch materializes through the resolver.
        for (int host = 0; host < n; ++host) {
            const auto &hp = topo->host(host);
            rm->registerNode(host, nullptr, hp.pod,
                             hp.pod * config.topology.racksPerPod + hp.rack);
        }
        rm->setManagerResolver([this](int host) {
            materializeServer(host);
            return hostStates[host]->fm.get();
        });
    } else {
        for (int host = 0; host < n; ++host)
            materializeServer(host);
    }

    if (shards == nullptr) {
        if (config.obs && config.flowSampleEvery > 0) {
            auto &flows = config.obs->flows;
            flows.setEnabled(true);
            flows.setSampleEvery(config.flowSampleEvery);
            flows.setTailCapacity(config.flowTailCapacity);
            flows.bindMetrics(config.obs->registry);
        }
    } else if (config.shardObs) {
        if (config.flowSampleEvery > 0) {
            for (int s = 0; s < config.shardObs->shardCount(); ++s) {
                auto &flows = config.shardObs->shard(s).flows;
                flows.setEnabled(true);
                flows.setSampleEvery(config.flowSampleEvery);
                flows.setTailCapacity(config.flowTailCapacity);
                // No bindMetrics: the trace.* counter paths would
                // collide across shard registries at snapshot merge.
            }
        }
    }

    if (config.timeSeries != nullptr) {
        // Watch every partition's registry (paths are disjoint by
        // construction); self probes and the trace land on the first
        // hub, like the kernel-health probes. validate() guarantees a
        // hub; the kernel's owner starts the rolls.
        obs::TimeSeriesHub &ts = *config.timeSeries;
        const int hubs =
            shards == nullptr ? 1 : config.shardObs->shardCount();
        for (int i = 0; i < hubs; ++i)
            ts.watchRegistry(&hubFor(i)->registry);
        ts.registerSelfProbes(hubFor(0)->registry);
        ts.attachTrace(&hubFor(0)->trace);
    }
}

ConfigurableCloud::~ConfigurableCloud() = default;

void
ConfigurableCloud::materializeServer(int host)
{
    if (host < 0 || host >= topo->numHosts())
        sim::fatalf("ConfigurableCloud::materializeServer: host ", host,
                    " out of range (cloud has ", topo->numHosts(),
                    " servers)");
    if (hostStates[host] != nullptr)
        return;
    // This is the exact per-host construction sequence of the pre-
    // flyweight eager build; the eager path now calls it in ascending
    // host order from build(), keeping those runs byte-identical.
    const auto &hp = topo->host(host);
    sim::EventQueue &hq = queueFor(host);
    obs::Observability *hub = hubFor(partitionOf(host));
    auto state = std::make_unique<HostState>();

    fpga::ShellConfig sc = config.shellTemplate;
    sc.name = "shell." + std::to_string(host);
    sc.ip = hp.addr;
    state->shell = std::make_unique<fpga::Shell>(hq, sc);
    if (hub)
        state->shell->attachObservability(hub,
                                          "node" + std::to_string(host));

    // Splice the FPGA between the TOR and (optionally) the NIC.
    topo->attachHostDevice(host, state->shell->torSideSink());
    state->shell->setTorTx(&topo->hostTx(host));

    if (config.createNics) {
        auto link = std::make_unique<net::Link>(
            hq, "niclink." + std::to_string(host),
            net::kLinkGbps, kNicCableMeters);
        if (hub)
            link->setFlowRecorder(&hub->flows);
        auto nic = std::make_unique<net::Nic>(
            hq, "nic." + std::to_string(host), hp.mac, hp.addr);
        if (hub)
            nic->attachObservability(hub, "node" + std::to_string(host));
        nic->setTxChannel(&link->aToB());
        link->attachA(nic.get());
        link->attachB(state->shell->nicSideSink());
        state->shell->setNicTx(&link->bToA());
        state->nic = std::move(nic);
        state->nicLink = std::move(link);
    }

    state->fm = std::make_unique<haas::FpgaManager>(
        hq, state->shell.get(), host);
    if (config.lazyHosts)
        rm->setNodeManager(host, state->fm.get());
    else
        rm->registerNode(host, state->fm.get(), hp.pod,
                         hp.pod * config.topology.racksPerPod + hp.rack);

    hostStates[host] = std::move(state);
    ++materializedCount;
    // Passive LTL timeout observers need a single-queue cloud: on a
    // sharded one they would call into the monitor from a worker
    // mid-window; there the barrier-driven sweeps are the only detector.
    if (healthMon != nullptr && shards == nullptr)
        installTimeoutObserver(host);
}

void
ConfigurableCloud::registerMemoryProbes(obs::Observability *hub)
{
    if (hub == nullptr)
        return;
    auto &reg = hub->registry;
    reg.registerProbe("sim.mem.hosts",
                      [this] { return double(topo->numHosts()); });
    reg.registerProbe("sim.mem.materialized_hosts",
                      [this] { return double(materializedCount); });
    reg.registerProbe("sim.mem.switches", [this] {
        return double(memoryEstimate().switches);
    });
    reg.registerProbe("sim.mem.fabric_links", [this] {
        return double(memoryEstimate().fabricLinks);
    });
    reg.registerProbe("sim.mem.bytes_per_host", [this] {
        return memoryEstimate().bytesPerHost;
    });
}

ConfigurableCloud::FabricMemoryStats
ConfigurableCloud::fabricMemoryStats() const
{
    FabricMemoryStats s = memoryEstimate();
    s.queueStateChannels = static_cast<std::size_t>(
        topo->channelsHoldingQueueState());
    for (const auto &state : hostStates) {
        if (state != nullptr && state->nicLink != nullptr)
            s.queueStateChannels += static_cast<std::size_t>(
                state->nicLink->channelsHoldingQueueState());
    }
    return s;
}

ConfigurableCloud::FabricMemoryStats
ConfigurableCloud::memoryEstimate() const
{
    FabricMemoryStats s;
    const auto &t = config.topology;
    s.hosts = topo->numHosts();
    s.materializedHosts = materializedCount;
    s.switches = static_cast<std::size_t>(t.pods) *
                     (t.racksPerPod + t.l1PerPod) +
                 t.l2Count;
    // Trunks + materialized access cables + materialized NIC cables.
    s.fabricLinks = static_cast<std::size_t>(topo->numTrunkLinks()) +
                    topo->materializedHosts() +
                    (config.createNics
                         ? static_cast<std::size_t>(materializedCount)
                         : 0);
    // Empty queues own no heap (sim::Fifo allocates on its first push)
    // and a channel's per-priority queues and PFC state are born with its
    // first packet, so an idle cable (link, two channels, two PFC shims),
    // LTL connection or router VC costs its sizeof(). Tables, names and
    // buffers behind pointers are still not counted, so treat this as an
    // order-of-magnitude gauge of the growth the RSS assertions bound,
    // not an audit.
    s.bytesPerServer = sizeof(HostState) + sizeof(fpga::Shell) +
                       sizeof(haas::FpgaManager) + net::Link::idleBytes() +
                       (config.createNics
                            ? sizeof(net::Nic) + net::Link::idleBytes()
                            : 0);
    // A stub is its null access-cable pointer in the topology and its
    // null hostStates slot; coordinates and addresses are arithmetic.
    const std::size_t stub =
        sizeof(net::Link *) + sizeof(std::unique_ptr<HostState>);
    s.bytesPerHost =
        s.hosts == 0
            ? 0.0
            : (static_cast<double>(s.bytesPerServer) * materializedCount +
               static_cast<double>(stub) * s.hosts) /
                  s.hosts;
    s.pool = sim::poolStats();
    return s;
}

void
ConfigurableCloud::installTimeoutObserver(int host)
{
    ltl::LtlEngine *eng = hostStates[host]->shell->ltlEngine();
    if (eng == nullptr)
        return;
    eng->setTimeoutObserver(
        [this](std::uint16_t, int streak, net::Ipv4Addr remote) {
            const int peer = hostByAddress(remote);
            if (peer >= 0)
                healthMon->reportTimeoutStreak(peer, streak);
        });
}

LtlChannel
ConfigurableCloud::openLtl(int from_host, int to_host,
                           int deliver_to_er_port, std::uint8_t vc)
{
    fpga::Shell &src = shell(from_host);
    fpga::Shell &dst = shell(to_host);
    if (src.ltlEngine() == nullptr || dst.ltlEngine() == nullptr)
        sim::fatal("ConfigurableCloud::openLtl: shells built without LTL");
    const std::uint16_t recv_conn = dst.ltlEngine()->openReceive(vc);
    dst.bindReceiveConnection(recv_conn, deliver_to_er_port);
    const std::uint16_t send_conn =
        src.ltlEngine()->openSend(dst.ip(), recv_conn);
    return LtlChannel(src.ltlEngine(), send_conn, dst.ltlEngine(),
                      recv_conn);
}

net::Ipv4Addr
ConfigurableCloud::addressOf(int host) const
{
    return topo->host(host).addr;
}

int
ConfigurableCloud::hostByAddress(net::Ipv4Addr addr) const
{
    // Inverts Topology::hostAddr: 10 + (pod >> 8) . pod & 0xff . rack .
    // idx + 1. O(1), so passive timeout reports do not walk the fabric.
    const std::uint32_t a = addr.value;
    const int hi = static_cast<int>(a >> 24) - 10;
    const int rack = static_cast<int>((a >> 8) & 0xff);
    const int idx = static_cast<int>(a & 0xff) - 1;
    if (hi < 0 || rack >= topo->racksPerPod() || idx < 0 ||
        idx >= topo->hostsPerRack())
        return -1;
    const int pod = hi << 8 | static_cast<int>((a >> 16) & 0xff);
    if (pod >= topo->numPods())
        return -1;
    return topo->hostIndex(pod, rack, idx);
}

bool
ConfigurableCloud::nodeReachable(int host)
{
    // A heartbeat probe is a management-path touch: it materializes a
    // flyweight stub (deterministically — the probe schedule is part of
    // the simulation) rather than silently reporting on missing state.
    materializeServer(host);
    return !hostStates[host]->shell->bridge().down() &&
           !topo->hostLink(host).isAdminDown();
}

void
ConfigurableCloud::attachHealthMonitor(haas::HealthMonitor &hm)
{
    healthMon = &hm;
    hm.setProbe([this](int host) { return nodeReachable(host); });
    // Every host shares one failure domain with the whole rack behind
    // its TOR (global rack id); the monitor convicts at that granularity
    // when a rack goes fully dark (HealthMonitorConfig::domainConviction).
    const int hosts_per_rack = config.topology.hostsPerRack;
    hm.setDomainOf(
        [hosts_per_rack](int host) { return host / hosts_per_rack; });
    // Sharded clouds stop here: probes run at barriers (startSharded),
    // and passive timeout observers stay uninstalled — they would call
    // into the monitor from a worker mid-window.
    if (shards != nullptr)
        return;
    // Materialized shells subscribe now; flyweight stubs subscribe the
    // moment they materialize (installTimeoutObserver from
    // materializeServer), so passive suspicion never misses a server
    // that was born after the monitor attached.
    for (int host = 0; host < numServers(); ++host) {
        if (hostStates[host] != nullptr)
            installTimeoutObserver(host);
    }
}

std::unique_ptr<serving::ClusterClient>
ConfigurableCloud::makeClusterClient(haas::ServiceManager &sm,
                                     const std::string &name,
                                     haas::HealthMonitor *hm)
{
    if (shards != nullptr)
        sim::fatal("ConfigurableCloud::makeClusterClient: the serving "
                   "layer is not yet partition-aware; routing would read "
                   "another logical process's lease set mid-window. Use "
                   "the single-queue build for serving studies");
    auto client = std::make_unique<serving::ClusterClient>(
        queue, name, [&sm] { return sm.instances(); }, config.serving);
    if (hm != nullptr)
        client->outliers().setEvidenceSink(
            [hm, source = "serving." + name](int host, double weight) {
                hm->reportEvidence(host, source, weight);
            });
    if (config.obs != nullptr)
        client->attachObservability(config.obs);
    return client;
}

void
ConfigurableCloud::setHostLinkDown(int host, bool down)
{
    // On a sharded cloud this must be called only while the kernel is
    // quiescent (from a barrier hook or between runs) — the sharded
    // FaultInjector schedules every injection that way, so admin state
    // never changes while a worker owns the link.
    // A fault is a touch: cutting a stub's cable materializes the
    // server first so the fault lands on real state (and a later
    // accessor cannot resurrect a pristine shell behind a dead link).
    materializeServer(host);
    topo->hostLink(host).setAdminDown(down);
}

void
ConfigurableCloud::attachFaultInjector(const void *tag)
{
    if (injectorTag != nullptr && injectorTag != tag)
        sim::fatal("ConfigurableCloud: a fault injector is already "
                   "attached; detach it before attaching another");
    injectorTag = tag;
}

void
ConfigurableCloud::detachFaultInjector(const void *tag)
{
    if (injectorTag == tag)
        injectorTag = nullptr;
}

}  // namespace ccsim::core
