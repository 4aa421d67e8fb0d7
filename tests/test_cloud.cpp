/**
 * @file
 * Full-system integration tests through the ConfigurableCloud public API:
 * LTL messaging between shells across the real simulated network (L0, L1,
 * L2 tiers), bump-in-the-wire crypto between two hosts, remote ranking
 * over LTL, DNN pool with HaaS, and reconfiguration behaviour under
 * traffic.
 */
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "core/cloud.hpp"
#include "roles/crypto_role.hpp"
#include "roles/dnn_role.hpp"
#include "roles/ranking/ranking_role.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace ccsim;
using core::CloudConfig;
using core::ConfigurableCloud;
using sim::EventQueue;

// One way to configure: fields or designated initializers, no setters.
static_assert(std::is_aggregate_v<CloudConfig>);

CloudConfig
smallCloud(int hosts_per_rack = 3, int racks_per_pod = 2, int pods = 2)
{
    CloudConfig cfg;
    cfg.topology.hostsPerRack = hosts_per_rack;
    cfg.topology.racksPerPod = racks_per_pod;
    cfg.topology.l1PerPod = 2;
    cfg.topology.pods = pods;
    cfg.topology.l2Count = 2;
    // Deterministic latencies for assertions.
    cfg.topology.l1Params.jitterMean = 0;
    cfg.topology.l2Params.jitterMean = 0;
    cfg.shellTemplate.ltl.maxConnections = 32;
    return cfg;
}

/** A terminal role that records LTL deliveries. */
struct SinkRole : fpga::Role {
    fpga::Shell *shell = nullptr;
    int port = -1;
    std::vector<std::shared_ptr<fpga::LtlDelivery>> deliveries;

    std::string name() const override { return "sink"; }
    std::uint32_t areaAlms() const override { return 500; }
    void attach(fpga::Shell &s, int p) override
    {
        shell = &s;
        port = p;
    }
    void onMessage(const router::ErMessagePtr &msg) override
    {
        if (msg->srcEndpoint == fpga::kErPortLtl)
            deliveries.push_back(
                std::static_pointer_cast<fpga::LtlDelivery>(msg->payload));
    }
};

TEST(Cloud, BuildsAndRegistersAllFpgas)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    EXPECT_EQ(cloud.numServers(), 3 * 2 * 2);
    EXPECT_EQ(cloud.resourceManager().totalCount(), cloud.numServers());
    EXPECT_EQ(cloud.resourceManager().freeCount(), cloud.numServers());
}

TEST(Cloud, HostByAddressInvertsTheAddressPlan)
{
    // 260 pods: pods 256+ spill into the 11.x first octet.
    CloudConfig cfg = smallCloud(/*hosts_per_rack=*/2, /*racks_per_pod=*/3,
                                 /*pods=*/260);
    cfg.topology.l1PerPod = 1;
    cfg.topology.l2Count = 1;
    cfg.createNics = false;
    cfg.lazyHosts = true;
    EventQueue eq;
    ConfigurableCloud cloud(eq, cfg);
    ASSERT_EQ(cloud.numServers(), 2 * 3 * 260);

    // The reference: a scan over every server's address.
    const auto scan = [&](net::Ipv4Addr addr) {
        for (int h = 0; h < cloud.numServers(); ++h)
            if (cloud.addressOf(h) == addr)
                return h;
        return -1;
    };
    for (int h = 0; h < cloud.numServers(); ++h) {
        const net::Ipv4Addr addr = cloud.addressOf(h);
        ASSERT_EQ(cloud.hostByAddress(addr), scan(addr)) << addr.str();
        ASSERT_EQ(cloud.hostByAddress(addr), h);
    }
    EXPECT_EQ(cloud.addressOf(256 * 6).str(), "11.0.0.1");

    const net::Ipv4Addr outside[] = {
        net::Ipv4Addr::of(9, 0, 0, 1),    // first octet below 10
        net::Ipv4Addr::of(12, 0, 0, 1),   // first octet past the last pod
        net::Ipv4Addr::of(11, 4, 0, 1),   // pod 260 >= pods
        net::Ipv4Addr::of(10, 0, 3, 1),   // rack 3 >= racksPerPod
        net::Ipv4Addr::of(10, 0, 0, 0),   // last octet 0
        net::Ipv4Addr::of(10, 0, 0, 3),   // idx 2 >= hostsPerRack
        net::Ipv4Addr::of(192, 168, 0, 1),
    };
    for (const net::Ipv4Addr addr : outside) {
        EXPECT_EQ(scan(addr), -1) << addr.str();
        EXPECT_EQ(cloud.hostByAddress(addr), -1) << addr.str();
    }
}

TEST(Cloud, NicToNicAcrossRacksThroughBumps)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    const int src = 0, dst = 4;  // different racks
    int received = 0;
    cloud.nic(dst).setReceiveHandler([&](const net::PacketPtr &pkt) {
        EXPECT_EQ(pkt->ipSrc, cloud.addressOf(src));
        ++received;
    });
    auto pkt = net::makePacket();
    pkt->ipDst = cloud.addressOf(dst);
    pkt->payloadBytes = 900;
    cloud.nic(src).sendPacket(pkt);
    eq.runAll();
    EXPECT_EQ(received, 1);
    // The packet traversed both bumps.
    EXPECT_EQ(cloud.shell(src).bridge().forwardedNicToTor(), 1u);
    EXPECT_EQ(cloud.shell(dst).bridge().forwardedTorToNic(), 1u);
}

class LtlTier : public ::testing::TestWithParam<std::tuple<int, int, double>>
{
};

TEST_P(LtlTier, MessageAndRttAcrossTiers)
{
    auto [src, dst, max_rtt_us] = GetParam();
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());

    SinkRole sink;
    ASSERT_GE(cloud.shell(dst).addRole(&sink), 0);
    auto ch = cloud.openLtl(src, dst, sink.port);

    cloud.shell(src).ltlEngine()->sendMessage(ch.sendConn(), 64,
                                              std::make_shared<int>(5));
    eq.runUntil(sim::fromMicros(200));
    ASSERT_EQ(sink.deliveries.size(), 1u);
    EXPECT_EQ(*std::static_pointer_cast<int>(sink.deliveries[0]->appPayload),
              5);
    // The sender measured a data->ACK RTT.
    ASSERT_EQ(cloud.shell(src).ltlEngine()->rttUs().count(), 1u);
    const double rtt = cloud.shell(src).ltlEngine()->rttUs().mean();
    EXPECT_GT(rtt, 1.0);
    EXPECT_LT(rtt, max_rtt_us);
    EXPECT_EQ(cloud.shell(src).ltlEngine()->framesRetransmitted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, LtlTier,
    ::testing::Values(std::tuple{0, 1, 6.0},    // same TOR (L0)
                      std::tuple{0, 4, 12.0},   // same pod (L1)
                      std::tuple{0, 8, 30.0})); // cross-pod (L2)

TEST(Cloud, LtlBidirectionalChannels)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    SinkRole sink_a, sink_b;
    ASSERT_GE(cloud.shell(0).addRole(&sink_a), 0);
    ASSERT_GE(cloud.shell(1).addRole(&sink_b), 0);
    auto fwd = cloud.openLtl(0, 1, sink_b.port);
    auto rev = cloud.openLtl(1, 0, sink_a.port);

    cloud.shell(0).ltlEngine()->sendMessage(fwd.sendConn(), 100);
    cloud.shell(1).ltlEngine()->sendMessage(rev.sendConn(), 100);
    eq.runUntil(sim::fromMicros(100));
    EXPECT_EQ(sink_a.deliveries.size(), 1u);
    EXPECT_EQ(sink_b.deliveries.size(), 1u);
}

TEST(Cloud, LtlManyMessagesUnderLoadNoLoss)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    SinkRole sink;
    ASSERT_GE(cloud.shell(8).addRole(&sink), 0);  // cross-pod target
    auto ch = cloud.openLtl(0, 8, sink.port);
    const int kMessages = 300;
    for (int i = 0; i < kMessages; ++i)
        cloud.shell(0).ltlEngine()->sendMessage(ch.sendConn(), 1408,
                                                std::make_shared<int>(i));
    eq.runUntil(sim::fromMicros(100000));
    ASSERT_EQ(sink.deliveries.size(), static_cast<std::size_t>(kMessages));
    for (int i = 0; i < kMessages; ++i)
        EXPECT_EQ(*std::static_pointer_cast<int>(
                      sink.deliveries[i]->appPayload),
                  i);
}

TEST(Cloud, PassthroughAndLtlShareTheWire)
{
    // Ranking-style coexistence: NIC traffic flows through the bump while
    // LTL messages use the same TOR link.
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    SinkRole sink;
    ASSERT_GE(cloud.shell(1).addRole(&sink), 0);
    auto ch = cloud.openLtl(0, 1, sink.port);

    int nic_received = 0;
    cloud.nic(2).setReceiveHandler(
        [&](const net::PacketPtr &) { ++nic_received; });
    for (int i = 0; i < 50; ++i) {
        auto pkt = net::makePacket();
        pkt->ipDst = cloud.addressOf(2);
        pkt->payloadBytes = 1400;
        cloud.nic(0).sendPacket(pkt);
        cloud.shell(0).ltlEngine()->sendMessage(ch.sendConn(), 512);
    }
    eq.runUntil(sim::fromMicros(50000));
    EXPECT_EQ(nic_received, 50);
    EXPECT_EQ(sink.deliveries.size(), 50u);
}

TEST(Cloud, CryptoRoleEncryptsHostToHostTransparently)
{
    EventQueue eq;
    auto cfg = smallCloud();
    EventQueue &q = eq;
    ConfigurableCloud cloud(q, cfg);

    const int a = 0, b = 4;  // cross-rack
    roles::CryptoRoleParams params;
    params.suite = crypto::Suite::kAesGcm128;
    roles::CryptoRole crypto_a(eq, params), crypto_b(eq, params);
    ASSERT_GE(cloud.shell(a).addRole(&crypto_a), 0);
    ASSERT_GE(cloud.shell(b).addRole(&crypto_b), 0);

    crypto::Key128 key{};
    for (int i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(i * 7 + 1);
    roles::FlowKey flow{cloud.addressOf(a), cloud.addressOf(b), 555, 556,
                        17};
    crypto_a.addEncryptFlow(flow, key);
    crypto_b.addDecryptFlow(flow, key);

    const std::vector<std::uint8_t> plaintext = {'s', 'e', 'c', 'r', 'e',
                                                 't', '!', '!'};
    std::vector<std::uint8_t> received_data;
    cloud.nic(b).setReceiveHandler([&](const net::PacketPtr &pkt) {
        received_data = pkt->data;
    });

    auto pkt = net::makePacket();
    pkt->ipDst = cloud.addressOf(b);
    pkt->srcPort = 555;
    pkt->dstPort = 556;
    pkt->data = plaintext;
    pkt->payloadBytes = static_cast<std::uint32_t>(plaintext.size());
    cloud.nic(a).sendPacket(pkt);
    eq.runAll();

    // Software at B sees the original plaintext; both roles did work.
    EXPECT_EQ(received_data, plaintext);
    EXPECT_EQ(crypto_a.packetsEncrypted(), 1u);
    EXPECT_EQ(crypto_b.packetsDecrypted(), 1u);
    EXPECT_EQ(crypto_b.authFailures(), 0u);
}

TEST(Cloud, CryptoRoleDropsTamperedPackets)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    const int a = 0, b = 1;
    roles::CryptoRoleParams params;
    params.suite = crypto::Suite::kAesCbc128Sha1;
    roles::CryptoRole crypto_b(eq, params);
    ASSERT_GE(cloud.shell(b).addRole(&crypto_b), 0);

    crypto::Key128 key{};
    key[0] = 1;
    roles::FlowKey flow{cloud.addressOf(a), cloud.addressOf(b), 10, 20, 17};
    crypto_b.addDecryptFlow(flow, key);

    int received = 0;
    cloud.nic(b).setReceiveHandler(
        [&](const net::PacketPtr &) { ++received; });

    // A sends garbage that claims to be an encrypted flow packet.
    auto pkt = net::makePacket();
    pkt->ipDst = cloud.addressOf(b);
    pkt->srcPort = 10;
    pkt->dstPort = 20;
    pkt->data.assign(64, 0xAB);
    pkt->payloadBytes = 64;
    cloud.nic(a).sendPacket(pkt);
    eq.runAll();
    EXPECT_EQ(received, 0);  // dropped at the bump
    EXPECT_EQ(crypto_b.authFailures(), 1u);
}

TEST(Cloud, RemoteRankingOverLtlEndToEnd)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    const int client = 0, server = 4;

    roles::RankingRole ranking(eq);
    ASSERT_GE(cloud.shell(server).addRole(&ranking), 0);
    roles::ForwarderRole forwarder;
    ASSERT_GE(cloud.shell(client).addRole(&forwarder), 0);

    auto request_ch = cloud.openLtl(client, server, fpga::kErPortRole0);
    auto reply_ch = cloud.openLtl(server, client, forwarder.port());

    roles::RemoteRankingClient remote(eq, cloud.shell(client), forwarder,
                                      request_ch.sendConn(),
                                      reply_ch.sendConn());
    int done_count = 0;
    sim::TimePs done_at = 0;
    for (int i = 0; i < 10; ++i) {
        remote.compute(200, [&] {
            ++done_count;
            done_at = eq.now();
        });
    }
    eq.runUntil(sim::fromMicros(100000));
    EXPECT_EQ(done_count, 10);
    EXPECT_EQ(ranking.requestsServed(), 10u);
    EXPECT_EQ(remote.responsesReceived(), 10u);
    EXPECT_GT(done_at, 0);
}

TEST(Cloud, RemoteRankingComputesRealFeatures)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    const int server = 1;
    roles::RankingRole ranking(eq);
    ASSERT_GE(cloud.shell(server).addRole(&ranking), 0);

    // Build a query + candidates; the top document by the software
    // reference must match what the role returns.
    host::CorpusGenerator corpus(2000, 1.0, 9);
    auto query = std::make_shared<host::Query>(corpus.makeQuery(4));
    auto docs = std::make_shared<std::vector<host::Document>>();
    for (int i = 0; i < 20; ++i)
        docs->push_back(corpus.makeCandidateDocument(*query, 150));

    roles::RankingModel model;
    const auto expected = roles::rankDocuments(*query, *docs, model);

    auto req = std::make_shared<roles::RankingRequest>();
    req->requestId = 1;
    req->docCount = 20;
    req->replyVia = roles::ReplyVia::kPcie;
    req->query = query;
    req->docs = docs;

    std::shared_ptr<roles::RankingResponse> resp;
    cloud.shell(server).setHostRxHandler(
        [&](int, const router::ErMessagePtr &msg) {
            resp = std::static_pointer_cast<roles::RankingResponse>(
                msg->payload);
        });
    cloud.shell(server).sendFromHost(fpga::kErPortRole0, 2048, req);
    eq.runAll();
    ASSERT_NE(resp, nullptr);
    EXPECT_EQ(resp->topDocId, expected.front().docId);
    EXPECT_DOUBLE_EQ(resp->topScore, expected.front().score);
}

TEST(Cloud, DnnPoolServesRemoteClientsViaHaas)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());

    // Deploy a 2-FPGA DNN service through HaaS.
    std::vector<std::unique_ptr<roles::DnnRole>> role_storage;
    haas::ServiceManager sm(eq, cloud.resourceManager(), "dnn",
                            [&](int) -> fpga::Role * {
                                role_storage.push_back(
                                    std::make_unique<roles::DnnRole>(eq));
                                return role_storage.back().get();
                            });
    ASSERT_TRUE(sm.deploy(2));
    EXPECT_EQ(cloud.resourceManager().allocatedCount(), 2);

    // A client on another host sends requests round-robin into the pool.
    const int client_host = 5;
    roles::ForwarderRole forwarder;
    ASSERT_GE(cloud.shell(client_host).addRole(&forwarder), 0);

    struct Target {
        core::LtlChannel req, rep;
    };
    std::vector<Target> targets;
    for (int instance : sm.instances()) {
        Target t;
        t.req = cloud.openLtl(client_host, instance, fpga::kErPortRole0);
        t.rep = cloud.openLtl(instance, client_host, forwarder.port());
        targets.push_back(std::move(t));
    }

    int responses = 0;
    cloud.shell(client_host)
        .setHostRxHandler([&](int, const router::ErMessagePtr &msg) {
            auto delivery =
                std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
            if (delivery && delivery->appPayload)
                ++responses;
        });

    for (int i = 0; i < 12; ++i) {
        const int pick = i % static_cast<int>(targets.size());
        auto req = std::make_shared<roles::DnnRequest>();
        req->requestId = static_cast<std::uint64_t>(i) + 1;
        req->clientId = 0;
        req->replyConn = targets[pick].rep.sendConn();
        auto fwd = std::make_shared<roles::ForwarderRole::ForwardRequest>();
        fwd->sendConn = targets[pick].req.sendConn();
        fwd->bytes = 512;
        fwd->inner = req;
        cloud.shell(client_host)
            .sendFromHost(forwarder.port(), fwd->bytes, fwd);
    }
    eq.runUntil(sim::fromMicros(200000));
    EXPECT_EQ(responses, 12);
    std::uint64_t served = 0;
    for (auto &r : role_storage)
        served += r->requestsServed();
    EXPECT_EQ(served, 12u);
}

TEST(Cloud, DnnRoleComputesRealInference)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    roles::DnnRole dnn(eq);
    ASSERT_GE(cloud.shell(0).addRole(&dnn), 0);

    auto input = std::make_shared<std::vector<float>>(
        dnn.network().inputSize(), 0.5f);
    const auto expected = dnn.network().infer(*input);

    auto req = std::make_shared<roles::DnnRequest>();
    req->requestId = 1;
    req->replyViaPcie = true;
    req->input = input;

    std::shared_ptr<roles::DnnResponse> resp;
    cloud.shell(0).setHostRxHandler(
        [&](int, const router::ErMessagePtr &msg) {
            resp = std::static_pointer_cast<roles::DnnResponse>(msg->payload);
        });
    cloud.shell(0).sendFromHost(fpga::kErPortRole0, 512, req);
    eq.runAll();
    ASSERT_NE(resp, nullptr);
    ASSERT_NE(resp->output, nullptr);
    EXPECT_EQ(*resp->output, expected);
}

TEST(Cloud, HaasReplacesFailedInstance)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    std::vector<std::unique_ptr<roles::DnnRole>> role_storage;
    haas::ServiceManager sm(eq, cloud.resourceManager(), "dnn",
                            [&](int) -> fpga::Role * {
                                role_storage.push_back(
                                    std::make_unique<roles::DnnRole>(eq));
                                return role_storage.back().get();
                            });
    cloud.resourceManager().subscribeFailures(
        [&](int host, std::uint64_t) { sm.handleFailure(host); });
    ASSERT_TRUE(sm.deploy(3));
    const int victim = sm.instances()[0];
    cloud.resourceManager().reportFailure(victim);
    EXPECT_EQ(sm.instances().size(), 3u);  // replacement acquired
    EXPECT_EQ(sm.failovers(), 1u);
    for (int host : sm.instances())
        EXPECT_NE(host, victim);
    EXPECT_EQ(cloud.resourceManager().failedCount(), 1);
}

TEST(Cloud, FullReconfigurationOutageDropsThenRecovers)
{
    EventQueue eq;
    ConfigurableCloud cloud(eq, smallCloud());
    int received = 0;
    cloud.nic(1).setReceiveHandler(
        [&](const net::PacketPtr &) { ++received; });

    cloud.shell(0).reconfigureFull();
    auto pkt = net::makePacket();
    pkt->ipDst = cloud.addressOf(1);
    pkt->payloadBytes = 100;
    cloud.nic(0).sendPacket(pkt);  // lost: bridge down
    eq.runUntil(3 * sim::kSecond);
    EXPECT_EQ(received, 0);

    auto pkt2 = net::makePacket();
    pkt2->ipDst = cloud.addressOf(1);
    pkt2->payloadBytes = 100;
    cloud.nic(0).sendPacket(pkt2);
    eq.runAll();
    EXPECT_EQ(received, 1);
}

}  // namespace
