#include "net/topology.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::net {

namespace {

/** Cable lengths: server to TOR, TOR to L1, and L1 to L2. */
constexpr double kHostCableMeters = 5.0;
constexpr double kTorToL1Meters = 50.0;
constexpr double kL1ToL2Meters = 300.0;

}  // namespace

Topology::Topology(sim::EventQueue &eq, TopologyConfig cfg)
    : queue(eq), config(std::move(cfg))
{
    validateConfig();
    build();
}

Topology::Topology(sim::ShardedEventQueue &sq, TopologyConfig cfg)
    // The spine partition doubles as the "default" queue reference.
    : queue(sq.partition(cfg.pods)), config(std::move(cfg)), shards(&sq)
{
    validateConfig();
    build();
}

void
Topology::validateConfig() const
{
    if (config.hostsPerRack < 1 || config.hostsPerRack > 254)
        sim::fatal("Topology: hostsPerRack must be in [1, 254]");
    if (config.racksPerPod < 1 || config.racksPerPod > 255)
        sim::fatal("Topology: racksPerPod must be in [1, 255]");
    if (config.pods < 1 || config.pods > 510)
        sim::fatal("Topology: pods must be in [1, 510]");
    if (config.l1PerPod < 1 || config.l2Count < 1)
        sim::fatal("Topology: need at least one switch per fabric tier");
}

sim::EventQueue &
Topology::podQueue(int pod)
{
    return shards ? shards->partition(pod) : queue;
}

std::shared_ptr<const DelayModel>
Topology::makeJitter(const TierParams &p)
{
    if (p.jitterMean <= 0)
        return nullptr;
    auto base = std::make_unique<LognormalDelay>(p.jitterMean, p.jitterCv,
                                                 p.jitterCap);
    if (p.tailProb <= 0.0)
        return std::shared_ptr<const DelayModel>(std::move(base));
    auto tail = std::make_unique<LognormalDelay>(p.tailMean, p.tailCv,
                                                 p.tailCap);
    return std::make_shared<MixtureDelay>(p.tailProb, std::move(base),
                                          std::move(tail));
}

SwitchConfig
Topology::makeSwitchConfig(const std::string &name, const TierParams &p,
                           std::shared_ptr<const DelayModel> jitter,
                           std::uint64_t seed)
{
    SwitchConfig sc;
    sc.name = name;
    sc.forwardingLatency = p.forwardingLatency;
    sc.jitter = std::move(jitter);
    sc.seed = seed;
    return sc;
}

int
Topology::hostIndex(int pod, int rack, int idx) const
{
    return (pod * config.racksPerPod + rack) * config.hostsPerRack + idx;
}

Topology::HostPort
Topology::host(int global_index) const
{
    if (global_index < 0 || global_index >= numHosts())
        sim::fatalf("Topology::host: host ", global_index,
                    " out of range (fabric has ", numHosts(), " hosts)");
    const int rack_global = global_index / config.hostsPerRack;
    HostPort hp;
    hp.pod = rack_global / config.racksPerPod;
    hp.rack = rack_global % config.racksPerPod;
    hp.indexInRack = global_index % config.hostsPerRack;
    hp.addr = hostAddr(hp.pod, hp.rack, hp.indexInRack);
    hp.mac = MacAddr{0x020000000000ull |
                     static_cast<std::uint64_t>(hp.addr.value)};
    return hp;
}

Switch &
Topology::tor(int pod, int rack)
{
    return *tors.at(pod * config.racksPerPod + rack);
}

Switch &
Topology::l1(int pod, int idx)
{
    return *l1Switches.at(pod * config.l1PerPod + idx);
}

Switch &
Topology::l2(int idx)
{
    return *l2Switches.at(idx);
}

void
Topology::attachHostDevice(int global_index, PacketSink *device)
{
    materializeHost(global_index);
    hostLinks[global_index]->attachA(device);
}

Channel &
Topology::hostTx(int global_index)
{
    materializeHost(global_index);
    return hostLinks[global_index]->aToB();
}

Link &
Topology::hostLink(int global_index)
{
    materializeHost(global_index);
    return *hostLinks[global_index];
}

void
Topology::materializeHost(int global_index)
{
    Link *&slot = hostLinks.at(global_index);
    if (slot != nullptr)
        return;
    const HostPort hp = host(global_index);
    Switch &torsw = tor(hp.pod, hp.rack);
    auto link = std::make_unique<Link>(
        podQueue(hp.pod),
        "tor." + std::to_string(hp.pod) + "." + std::to_string(hp.rack) +
            ".host" + std::to_string(hp.indexInRack),
        kLinkGbps, kHostCableMeters);
    const int down = torsw.addPort(&link->bToA());
    link->attachB(torsw.portSink(down));
    torsw.addHostRoute(hp.addr, down);
    if (!partitionHubs.empty())
        link->setFlowRecorder(&partitionHubs[podPartition(hp.pod)]->flows);
    slot = link.get();
    linkEndPartitions.emplace_back(podPartition(hp.pod),
                                   podPartition(hp.pod));
    links.push_back(std::move(link));
    ++materialized;
}

void
Topology::build()
{
    std::uint64_t seed = config.seed;
    auto next_seed = [&seed] { return ++seed; };
    hostLinks.assign(static_cast<std::size_t>(config.pods) *
                         config.racksPerPod * config.hostsPerRack,
                     nullptr);
    // One jitter model per tier, shared by its switches: a model is
    // stateless and each switch draws from it with its own Rng.
    const auto l2_jitter = makeJitter(config.l2Params);
    const auto l1_jitter = makeJitter(config.l1Params);
    const auto tor_jitter = makeJitter(config.torParams);

    // --- L2 spine (the spine partition in sharded mode) ---
    for (int i = 0; i < config.l2Count; ++i) {
        l2Switches.push_back(std::make_unique<Switch>(
            queue, makeSwitchConfig("l2." + std::to_string(i),
                                    config.l2Params, l2_jitter,
                                    next_seed())));
    }

    // --- pods: L1 switches and TORs ---
    // Per-switch seeds advance in construction order, which is the same
    // whether or not the build is sharded: partitioning never changes a
    // switch's jitter stream.
    for (int pod = 0; pod < config.pods; ++pod) {
        for (int i = 0; i < config.l1PerPod; ++i) {
            auto name = "l1." + std::to_string(pod) + "." + std::to_string(i);
            l1Switches.push_back(std::make_unique<Switch>(
                podQueue(pod),
                makeSwitchConfig(name, config.l1Params, l1_jitter,
                                 next_seed())));
            Switch &l1sw = *l1Switches.back();

            // Uplinks: this L1 to every L2. These are the only cables
            // that cross a partition boundary in sharded mode: the
            // A end (L1 transmitter) lives on the pod's queue, the B
            // end (L2 transmitter) on the spine's, and the cable's
            // propagation delay becomes the registered lookahead.
            std::vector<int> uplinks;
            for (int j = 0; j < config.l2Count; ++j) {
                auto link = std::make_unique<Link>(
                    podQueue(pod), queue, name + "-l2." + std::to_string(j),
                    kLinkGbps, kL1ToL2Meters);
                if (shards)
                    link->setCrossShard(*shards, podPartition(pod),
                                        spinePartition());
                const int up = l1sw.addPort(&link->aToB());
                link->attachB(l2Switches[j]->portSink(
                    l2Switches[j]->addPort(&link->bToA())));
                link->attachA(l1sw.portSink(up));
                // L2 routes this pod's /16 down through this L1 (the
                // first two octets jointly encode the pod, so this
                // holds past 256 pods — see hostAddr).
                l2Switches[j]->addRoute(
                    Ipv4Addr::of(static_cast<std::uint8_t>(10 + (pod >> 8)),
                                 static_cast<std::uint8_t>(pod & 0xff), 0, 0),
                    16, l2Switches[j]->numPorts() - 1);
                uplinks.push_back(up);
                trunks.push_back(link.get());
                linkEndPartitions.emplace_back(podPartition(pod),
                                               spinePartition());
                links.push_back(std::move(link));
            }
            l1sw.setDefaultRoutes(uplinks);
        }

        for (int rack = 0; rack < config.racksPerPod; ++rack) {
            auto tor_name =
                "tor." + std::to_string(pod) + "." + std::to_string(rack);
            tors.push_back(std::make_unique<Switch>(
                podQueue(pod),
                makeSwitchConfig(tor_name, config.torParams, tor_jitter,
                                 next_seed())));
            Switch &torsw = *tors.back();

            // Uplinks: this TOR to every L1 in the pod.
            std::vector<int> uplinks;
            for (int i = 0; i < config.l1PerPod; ++i) {
                Switch &l1sw = *l1Switches[pod * config.l1PerPod + i];
                auto link = std::make_unique<Link>(
                    podQueue(pod), tor_name + "-l1", kLinkGbps,
                    kTorToL1Meters);
                const int up = torsw.addPort(&link->aToB());
                const int down = l1sw.addPort(&link->bToA());
                link->attachA(torsw.portSink(up));
                link->attachB(l1sw.portSink(down));
                // L1 routes this rack's /24 down through this port.
                l1sw.addRoute(
                    Ipv4Addr::of(static_cast<std::uint8_t>(10 + (pod >> 8)),
                                 static_cast<std::uint8_t>(pod & 0xff),
                                 static_cast<std::uint8_t>(rack), 0),
                    24, down);
                uplinks.push_back(up);
                trunks.push_back(link.get());
                linkEndPartitions.emplace_back(podPartition(pod),
                                               podPartition(pod));
                links.push_back(std::move(link));
            }
            torsw.setDefaultRoutes(uplinks);

            // Hosts in this rack: the access cable follows immediately
            // in an eager build and on first touch in a lazy one.
            if (!config.lazyHosts) {
                for (int h = 0; h < config.hostsPerRack; ++h)
                    materializeHost(hostIndex(pod, rack, h));
            }
        }
    }
}

Link &
Topology::l1ToL2Link(int pod, int l1_idx, int l2_idx)
{
    const int i = pod * trunksPerPod() + l1_idx * config.l2Count + l2_idx;
    return *trunks.at(i);
}

Link &
Topology::torToL1Link(int pod, int rack, int l1_idx)
{
    const int i = pod * trunksPerPod() + config.l1PerPod * config.l2Count +
                  rack * config.l1PerPod + l1_idx;
    return *trunks.at(i);
}

std::vector<Channel *>
Topology::fluidPath(int src, int dst)
{
    std::vector<Channel *> path;
    if (src == dst)
        return path;
    const HostPort s = host(src);
    const HostPort d = host(dst);
    if (Link *up = hostLinks[src])
        path.push_back(&up->aToB());
    if (s.pod != d.pod || s.rack != d.rack) {
        // One deterministic ECMP-style choice per (src, dst) pair:
        // splitmix64 over the endpoint indices and the topology seed.
        std::uint64_t h = (static_cast<std::uint64_t>(src) << 32) |
                          static_cast<std::uint32_t>(dst);
        h += config.seed + 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
        const int l1_up = static_cast<int>(h % config.l1PerPod);
        path.push_back(&torToL1Link(s.pod, s.rack, l1_up).aToB());
        if (s.pod != d.pod) {
            const int l2 = static_cast<int>((h >> 16) % config.l2Count);
            const int l1_down =
                static_cast<int>((h >> 32) % config.l1PerPod);
            path.push_back(&l1ToL2Link(s.pod, l1_up, l2).aToB());
            path.push_back(&l1ToL2Link(d.pod, l1_down, l2).bToA());
            path.push_back(&torToL1Link(d.pod, d.rack, l1_down).bToA());
        } else {
            path.push_back(&torToL1Link(d.pod, d.rack, l1_up).bToA());
        }
    }
    if (Link *down = hostLinks[dst])
        path.push_back(&down->bToA());
    return path;
}

int
Topology::channelsHoldingQueueState() const
{
    int n = 0;
    for (const auto &link : links)
        n += link->channelsHoldingQueueState();
    return n;
}

std::uint64_t
Topology::totalSwitchDrops() const
{
    std::uint64_t total = 0;
    for (const auto &sw : tors)
        total += sw->packetsDropped();
    for (const auto &sw : l1Switches)
        total += sw->packetsDropped();
    for (const auto &sw : l2Switches)
        total += sw->packetsDropped();
    return total;
}

void
Topology::attachSwitchTier(std::string_view tier,
                           const std::vector<std::unique_ptr<Switch>> &sws,
                           const std::function<int(std::size_t)> &partition)
{
    // The tier's switches grouped by hub, in tier order.
    std::vector<std::pair<obs::Observability *, std::vector<const Switch *>>>
        groups;
    for (std::size_t i = 0; i < sws.size(); ++i) {
        obs::Observability *hub = partitionHubs[partition(i)];
        sws[i]->attachObservability(hub);
        if (hub == nullptr)
            continue;
        // Neighbouring switches share a pod, so usually the last group.
        auto g = std::find_if(groups.rbegin(), groups.rend(),
                              [hub](const auto &p) { return p.first == hub; });
        if (g == groups.rend()) {
            groups.emplace_back(hub, std::vector<const Switch *>{});
            g = groups.rbegin();
        }
        g->second.push_back(sws[i].get());
    }
    // One family per hub: `switch.<tier>.<name after "<tier>.">.<leaf>`.
    const std::size_t skip = tier.size() + 1;
    for (auto &[hub, members] : groups) {
        const auto shared =
            std::make_shared<const std::vector<const Switch *>>(
                std::move(members));
        obs::MetricsRegistry::ProbeFamily family;
        family.stem = "switch." + std::string(tier);
        family.members = static_cast<std::uint32_t>(shared->size());
        family.name = [shared, skip](std::uint32_t m, std::string &out) {
            out += std::string_view((*shared)[m]->name()).substr(skip);
        };
        family.leaves = Switch::kProbeLeaves;
        family.value = [shared](std::uint32_t m, std::uint32_t leaf) {
            return (*shared)[m]->probeValue(leaf);
        };
        hub->registry.registerFamily(std::move(family));
    }
}

void
Topology::attachObservability(std::vector<obs::Observability *> hubs)
{
    if (hubs.size() != static_cast<std::size_t>(config.pods + 1))
        sim::fatalf("Topology::attachObservability: need ", config.pods + 1,
                    " hubs (pods + spine), got ", hubs.size());
    partitionHubs = std::move(hubs);
    attachSwitchTier("tor", tors, [this](std::size_t t) {
        return podPartition(static_cast<int>(t) / config.racksPerPod);
    });
    attachSwitchTier("l1", l1Switches, [this](std::size_t i) {
        return podPartition(static_cast<int>(i) / config.l1PerPod);
    });
    attachSwitchTier("l2", l2Switches,
                     [this](std::size_t) { return spinePartition(); });
    // Flow spans are recorded transmit-side (Channel queues, serializes,
    // and traces on its own partition), so each direction of a
    // partition-crossing trunk gets its own end's recorder.
    for (std::size_t i = 0; i < links.size(); ++i) {
        const auto [pa, pb] = linkEndPartitions[i];
        links[i]->aToB().setFlowRecorder(&partitionHubs[pa]->flows);
        links[i]->bToA().setFlowRecorder(&partitionHubs[pb]->flows);
    }
}

}  // namespace ccsim::net
