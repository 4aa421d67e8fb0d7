/**
 * @file
 * Probe families against one-path-per-probe registration.
 *
 * Switches export their probes as one registry family per tier and hub.
 * The oracle here registers the same probes the way switches did before
 * families existed — one path and one callback per probe, reading the
 * switch's public statistics — and every registry surface must agree
 * byte for byte: snapshots, merged snapshots, listings, lookups, sampled
 * averages and the CCSIM_TS JSONL stream.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cloud.hpp"
#include "fpga/null_role.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/random.hpp"
#include "sim/sharded_queue.hpp"

using namespace ccsim;
using obs::MetricsRegistry;

namespace {

/** A switch probe leaf, read through the switch's public accessors. */
struct Leaf {
    std::string name;
    std::function<double(const net::Switch &)> read;
};

std::vector<Leaf>
oracleLeaves()
{
    std::vector<Leaf> leaves = {
        {"forwarded", [](auto &s) { return double(s.packetsForwarded()); }},
        {"dropped", [](auto &s) { return double(s.packetsDropped()); }},
        {"ecn_marked", [](auto &s) { return double(s.packetsEcnMarked()); }},
        {"pfc_frames", [](auto &s) { return double(s.pfcFramesSent()); }},
        {"route_misses", [](auto &s) { return double(s.routeMisses()); }},
        {"brownout_drops", [](auto &s) { return double(s.brownoutDrops()); }},
    };
    for (std::uint8_t prio = 0; prio < net::kNumTrafficClasses; ++prio)
        leaves.push_back({"q" + std::to_string(prio) + ".depth",
                          [prio](const net::Switch &s) {
                              return double(s.egressQueuedBytes(prio));
                          }});
    return leaves;
}

/**
 * Register every switch probe of @p topo as its own path, each switch in
 * the registry of its partition (@p regs has pods + 1 entries, which may
 * repeat): the registration switches made before probe families.
 */
void
registerPerPathSwitchProbes(net::Topology &topo,
                            const std::vector<MetricsRegistry *> &regs)
{
    const auto add = [&](net::Switch &sw, int partition) {
        for (const Leaf &leaf : oracleLeaves())
            regs[partition]->registerProbe(
                "switch." + sw.name() + "." + leaf.name,
                [&sw, read = leaf.read] { return read(sw); });
    };
    for (int pod = 0; pod < topo.numPods(); ++pod) {
        for (int rack = 0; rack < topo.racksPerPod(); ++rack)
            add(topo.tor(pod, rack), topo.podPartition(pod));
        for (int i = 0; i < topo.l1PerPod(); ++i)
            add(topo.l1(pod, i), topo.podPartition(pod));
    }
    for (int i = 0; i < topo.numL2(); ++i)
        add(topo.l2(i), topo.spinePartition());
}

/**
 * Plain paths around and inside the switch namespace, but outside every
 * family's: "switch.tor" itself, and neighbours that sort just before
 * ('-') and just after ('/') the "switch.tor." block.
 */
void
addPlainPaths(MetricsRegistry &reg, bool late)
{
    if (!late) {
        reg.counter("switch.tor").inc(3);
        reg.gauge("switch.tor-1.q").set(0, 2.5);
        reg.registerProbe("switch.l1/x", [] { return 7.0; });
        reg.registerProbe("aaa", [] { return 1.0; });
    } else {
        reg.counter("switch.tor0.depth").inc();
        reg.registerProbe("switch.l2x.y", [] { return 4.0; });
        reg.histogram("switch.m").add(12.0);
        reg.registerProbe("zzz.q", [] { return 5.0; });
    }
}

/** (path, kind, value) of every id, sorted: the id-access view. */
std::vector<std::tuple<std::string, int, double>>
byId(const MetricsRegistry &reg)
{
    std::vector<std::tuple<std::string, int, double>> out;
    for (MetricsRegistry::Id id = 0; id < reg.size(); ++id) {
        const MetricsRegistry::Kind kind = reg.kindOf(id);
        const double v = kind == MetricsRegistry::Kind::kProbe
                             ? reg.probeValueAt(id)
                             : 0.0;
        out.emplace_back(reg.pathOf(id), static_cast<int>(kind), v);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Every public read of @p got must match @p want. */
void
expectSameRegistry(const MetricsRegistry &got, const MetricsRegistry &want)
{
    EXPECT_EQ(got.snapshotJson(), want.snapshotJson());
    const std::vector<std::string> paths = want.paths();
    ASSERT_EQ(got.paths(), paths);
    EXPECT_EQ(got.size(), want.size());
    for (const char *prefix :
         {"", "switch", "switch.tor", "switch.l1", "switch.l2",
          "switch.tor.0", "switch.tor.0.1", "switch.tor.0.1.q3",
          "switch.l2.0", "bogus"})
        EXPECT_EQ(got.children(prefix), want.children(prefix))
            << "prefix '" << prefix << "'";
    std::vector<std::string> probes = paths;
    for (const char *miss :
         {"switch.tor.0", "switch.tor.0.0", "switch.tor.0.0.q8.depth",
          "switch.tor.99.0.forwarded", "switch.tor.0.0.forwarded.x",
          "switch.tor..forwarded", "switch.tor.forwarded", "switch."})
        probes.push_back(miss);
    for (const std::string &p : probes) {
        ASSERT_EQ(got.hasProbe(p), want.hasProbe(p)) << p;
        EXPECT_EQ(got.findCounter(p) != nullptr,
                  want.findCounter(p) != nullptr) << p;
        if (!want.hasProbe(p))
            continue;
        EXPECT_EQ(got.probeValue(p), want.probeValue(p)) << p;
    }
    EXPECT_EQ(byId(got), byId(want));
}

struct ParityRun {
    std::vector<std::string> snapshots;  ///< per partition: families
    std::vector<std::string> oracleSnapshots;
    std::string merged, oracleMerged;
    std::string ts, oracleTs;
};

/**
 * Build a cloud (@p threads == 0: one queue; otherwise sharded with that
 * many workers), attach its topology's families to one set of
 * registries and the per-path oracle to another, run cross-pod LTL
 * traffic with both sampled and streamed, and compare every surface.
 */
ParityRun
runParity(core::CloudConfig cfg, int threads, int senders)
{
    const int parts = cfg.topology.pods + 1;
    std::optional<sim::ShardedEventQueue> sq;
    std::optional<core::ConfigurableCloud> cloud;
    if (threads == 0) {
        sq.emplace();
        cloud.emplace(sq->partition(0), cfg);
    } else {
        cfg.shards = threads;
        sq.emplace(core::ConfigurableCloud::shardPlan(cfg));
        cloud.emplace(*sq, cfg);
    }
    net::Topology &topo = cloud->topology();

    // One registry per partition when sharded, else one for all.
    const int regCount = threads == 0 ? 1 : parts;
    std::vector<std::unique_ptr<obs::Observability>> famHubs;
    std::vector<std::unique_ptr<MetricsRegistry>> oracle;
    std::vector<obs::Observability *> hubOf;
    std::vector<MetricsRegistry *> oracleOf;
    for (int r = 0; r < regCount; ++r) {
        famHubs.push_back(std::make_unique<obs::Observability>());
        oracle.push_back(std::make_unique<MetricsRegistry>());
    }
    for (int p = 0; p < parts; ++p) {
        const int r = threads == 0 ? 0 : p;
        hubOf.push_back(famHubs[r].get());
        oracleOf.push_back(oracle[r].get());
    }
    // Plain paths registered before and after the families, in the
    // registry that holds pod 0's switches.
    addPlainPaths(famHubs[0]->registry, false);
    addPlainPaths(*oracle[0], false);
    topo.attachObservability(hubOf);
    registerPerPathSwitchProbes(topo, oracleOf);
    addPlainPaths(famHubs[0]->registry, true);
    addPlainPaths(*oracle[0], true);

    constexpr sim::TimePs kPeriod = 100 * sim::kMicrosecond;
    std::ostringstream ts, oracleTs;
    obs::TimeSeriesHub tsHub(obs::TimeSeriesConfig{.window = kPeriod});
    obs::TimeSeriesHub oracleTsHub(obs::TimeSeriesConfig{.window = kPeriod});
    for (int r = 0; r < regCount; ++r) {
        tsHub.watchRegistry(&famHubs[r]->registry);
        oracleTsHub.watchRegistry(oracle[r].get());
    }
    tsHub.exportTo(&ts);
    oracleTsHub.exportTo(&oracleTs);
    tsHub.startSampling(*sq);
    oracleTsHub.startSampling(*sq);

    // Each sender pings the host one pod over.
    const int hostsPerPod =
        cfg.topology.racksPerPod * cfg.topology.hostsPerRack;
    const int hosts = hostsPerPod * cfg.topology.pods;
    std::vector<std::unique_ptr<fpga::NullRole>> sinks;
    std::vector<core::LtlChannel> channels;
    channels.reserve(static_cast<std::size_t>(senders));
    for (int i = 0; i < senders; ++i) {
        const int src = (i * 7) % hosts;
        const int dst = (src + hostsPerPod) % hosts;
        sinks.push_back(std::make_unique<fpga::NullRole>());
        EXPECT_GE(cloud->shell(dst).addRole(sinks.back().get()), 0);
        channels.push_back(cloud->openLtl(src, dst, sinks.back()->port));
        sim::Rng rng = sim::Rng::forStream(cfg.topology.seed, 100u + i);
        for (int k = 0; k < 8; ++k) {
            const sim::TimePs at =
                sim::fromMicros(1) +
                static_cast<sim::TimePs>(rng.next() % 600'000'000);
            const auto bytes = 64 + static_cast<std::uint32_t>(
                                        rng.next() % 6000);
            cloud->queueFor(src).schedule(
                at, [&channels, i, bytes] { channels[i].send(bytes); });
        }
    }
    sq->runUntil(sim::fromMicros(900));

    ParityRun run;
    std::vector<const MetricsRegistry *> fams, oracles;
    for (int r = 0; r < regCount; ++r) {
        expectSameRegistry(famHubs[r]->registry, *oracle[r]);
        run.snapshots.push_back(famHubs[r]->registry.snapshotJson());
        run.oracleSnapshots.push_back(oracle[r]->snapshotJson());
        fams.push_back(&famHubs[r]->registry);
        oracles.push_back(oracle[r].get());
    }
    run.merged = MetricsRegistry::mergedSnapshotJson(fams);
    run.oracleMerged = MetricsRegistry::mergedSnapshotJson(oracles);
    run.ts = ts.str();
    run.oracleTs = oracleTs.str();
    // The traffic moved the counters: equal-by-accident zeros would
    // hide a mislabelled leaf.
    double forwarded = 0;
    for (const MetricsRegistry *reg : oracles)
        for (const std::string &p : reg->paths())
            if (p.ends_with(".forwarded"))
                forwarded += reg->probeValue(p);
    EXPECT_GT(forwarded, 0.0);
    return run;
}

void
expectParity(const ParityRun &run)
{
    EXPECT_EQ(run.snapshots, run.oracleSnapshots);
    EXPECT_EQ(run.merged, run.oracleMerged);
    EXPECT_EQ(run.ts, run.oracleTs);
    EXPECT_NE(run.ts.find("switch.tor."), std::string::npos);
}

core::CloudConfig
smallConfig()
{
    core::CloudConfig cfg;
    cfg.topology.pods = 2;
    cfg.topology.racksPerPod = 2;
    cfg.topology.hostsPerRack = 2;
    cfg.topology.l1PerPod = 2;
    cfg.topology.l2Count = 2;
    cfg.topology.seed = 41;
    cfg.shellTemplate.ltl.maxConnections = 16;
    cfg.createNics = false;
    return cfg;
}

}  // namespace

TEST(SwitchFamilies, MatchPerPathProbesOnSmallTopology)
{
    expectParity(runParity(smallConfig(), 0, 8));
}

TEST(SwitchFamilies, MatchPerPathProbesOnLazyL2Topology)
{
    // Twelve racks per pod: member names "0.10", "0.11" sort before
    // "0.2", so family order is not member order.
    core::CloudConfig cfg = smallConfig();
    cfg.topology.pods = 3;
    cfg.topology.racksPerPod = 12;
    cfg.topology.hostsPerRack = 4;
    cfg.topology.l1PerPod = 3;
    cfg.topology.l2Count = 3;
    cfg.lazyHosts = true;
    expectParity(runParity(cfg, 0, 6));
}

TEST(SwitchFamilies, MatchPerPathProbesShardedAcrossWorkerCounts)
{
    std::optional<ParityRun> first;
    for (const int workers : {1, 2, 4}) {
        const ParityRun run = runParity(smallConfig(), workers, 8);
        expectParity(run);
        if (first) {
            EXPECT_EQ(run.merged, first->merged) << workers << " workers";
            EXPECT_EQ(run.ts, first->ts) << workers << " workers";
        } else {
            first = run;
        }
    }
}

namespace {

constexpr std::string_view kLeaves[] = {"v", "w.x"};

/** A family over @p names, with value 10 * member + leaf. */
MetricsRegistry::ProbeFamily
namedFamily(std::string stem, std::vector<std::string> names)
{
    auto shared =
        std::make_shared<const std::vector<std::string>>(std::move(names));
    MetricsRegistry::ProbeFamily f;
    f.stem = std::move(stem);
    f.members = static_cast<std::uint32_t>(shared->size());
    f.name = [shared](std::uint32_t m, std::string &out) {
        out += (*shared)[m];
    };
    f.leaves = kLeaves;
    f.value = [](std::uint32_t m, std::uint32_t l) { return 10.0 * m + l; };
    return f;
}

}  // namespace

TEST(ProbeFamilies, MemberNamesSortAsFullPaths)
{
    // Dotted names, and neighbours that sort just before ('-') and just
    // after ('/') the dot, registered out of order.
    const std::vector<std::string> names = {"a.b", "a-c", "b", "a/d"};
    MetricsRegistry fam, oracle;
    fam.registerFamily(namedFamily("f", names));
    for (std::uint32_t m = 0; m < names.size(); ++m)
        for (std::uint32_t l = 0; l < std::size(kLeaves); ++l)
            oracle.registerProbe("f." + names[m] + "." +
                                     std::string(kLeaves[l]),
                                 [m, l] { return 10.0 * m + l; });
    expectSameRegistry(fam, oracle);
}

TEST(ProbeFamiliesDeathTest, PathInBothAFamilyAndAnotherShardPanics)
{
    MetricsRegistry fam, plain;
    fam.registerFamily(namedFamily("switch.tor", {"0.0", "0.1"}));
    plain.registerProbe("switch.tor.0.1.w.x", [] { return 1.0; });
    EXPECT_DEATH(MetricsRegistry::mergedSnapshotJson({&fam, &plain}),
                 "'switch.tor.0.1.w.x' registered in more than one shard");
    EXPECT_DEATH(MetricsRegistry::mergedSnapshotJson({&plain, &fam}),
                 "'switch.tor.0.1.w.x' registered in more than one shard");
}

TEST(ProbeFamiliesDeathTest, OverlappingNamespacesPanic)
{
    const auto plainInFamily = [] {
        MetricsRegistry reg;
        reg.registerFamily(namedFamily("f", {"a"}));
        reg.counter("f.zz");
    };
    EXPECT_DEATH(plainInFamily(), "lies inside probe family 'f'");
    const auto familyOverPlain = [] {
        MetricsRegistry reg;
        reg.gauge("f.a.v");
        reg.registerFamily(namedFamily("f", {"a"}));
    };
    EXPECT_DEATH(familyOverPlain(), "covers the registered path 'f.a.v'");
    const auto nestedFamilies = [] {
        MetricsRegistry reg;
        reg.registerFamily(namedFamily("f", {"a"}));
        reg.registerFamily(namedFamily("f.g", {"a"}));
    };
    EXPECT_DEATH(nestedFamilies(), "overlaps family 'f'");
    const auto sameStemTwice = [] {
        MetricsRegistry reg;
        reg.registerFamily(namedFamily("f", {"a"}));
        reg.registerFamily(namedFamily("f", {"a"}));
    };
    EXPECT_DEATH(sameStemTwice(), "overlaps family 'f'");
    const auto duplicateMembers = [] {
        MetricsRegistry reg;
        reg.registerFamily(namedFamily("f", {"a", "a"}));
        (void)reg.paths();
    };
    EXPECT_DEATH(duplicateMembers(), "member 'a.' repeats or extends");
    const auto extendingMembers = [] {
        MetricsRegistry reg;
        reg.registerFamily(namedFamily("f", {"a.b", "a"}));
        (void)reg.snapshotJson();
    };
    EXPECT_DEATH(extendingMembers(), "member 'a.b.' repeats or extends");
}
