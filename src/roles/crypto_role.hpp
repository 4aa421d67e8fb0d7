/**
 * @file
 * Host-to-host line-rate flow encryption in the bump-in-the-wire tap
 * (Section IV).
 *
 * Software sets up per-flow keys; afterwards, every matching packet is
 * transparently encrypted on its way from the NIC to the TOR and
 * decrypted on the way in — software sees plaintext at both endpoints and
 * spends zero CPU cycles on crypto. When packets carry real payload
 * bytes, this role performs the actual AES-CBC-128 + HMAC-SHA1 or
 * AES-GCM-128 transformation (verified by tests); the added datapath
 * latency comes from the FpgaCryptoModel (e.g. the 33-packet CBC
 * interleave that makes a 1500 B packet cost 11 us).
 */
#pragma once

#include <cstdint>
#include <unordered_map>

#include "crypto/aes.hpp"
#include "crypto/crypto_timing.hpp"
#include "crypto/sha1.hpp"
#include "fpga/role.hpp"
#include "fpga/shell.hpp"
#include "net/packet.hpp"

namespace ccsim::roles {

/** 5-tuple identifying an encrypted flow. */
struct FlowKey {
    net::Ipv4Addr src;
    net::Ipv4Addr dst;
    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint8_t proto = 17;

    bool operator==(const FlowKey &) const = default;
};

struct FlowKeyHash {
    std::size_t operator()(const FlowKey &k) const noexcept
    {
        std::uint64_t h = static_cast<std::uint64_t>(k.src.value) << 32 |
                          k.dst.value;
        h ^= (static_cast<std::uint64_t>(k.srcPort) << 24) ^
             (static_cast<std::uint64_t>(k.dstPort) << 8) ^ k.proto;
        h *= 0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(h ^ (h >> 32));
    }
};

/** Where a flow's key material lives (paper: FPGA SRAM or board DRAM). */
enum class KeyStore {
    kSram,  ///< on-chip: zero extra fetch latency
    kDram,  ///< board DRAM: adds one access latency per packet
};

/** Crypto role parameters. */
struct CryptoRoleParams {
    crypto::Suite suite = crypto::Suite::kAesCbc128Sha1;
    KeyStore keyStore = KeyStore::kSram;
    crypto::FpgaCryptoModel timing;
    std::uint32_t alms = 32000;
};

/** The network-encryption role. */
class CryptoRole : public fpga::Role
{
  public:
    explicit CryptoRole(sim::EventQueue &eq, CryptoRoleParams p = {});

    std::string name() const override { return "flow-crypto"; }
    std::uint32_t areaAlms() const override { return params.alms; }
    void attach(fpga::Shell &shell, int er_port) override;
    void onMessage(const router::ErMessagePtr &msg) override;

    /**
     * Software control plane: encrypt packets of @p flow leaving this
     * host (NIC -> TOR direction) with @p key.
     */
    void addEncryptFlow(const FlowKey &flow, const crypto::Key128 &key);

    /** Decrypt packets of @p flow arriving from the network. */
    void addDecryptFlow(const FlowKey &flow, const crypto::Key128 &key);

    /** Tear down a flow in either table. */
    void removeFlow(const FlowKey &flow);

    std::uint64_t packetsEncrypted() const { return statEncrypted; }
    std::uint64_t packetsDecrypted() const { return statDecrypted; }
    std::uint64_t authFailures() const { return statAuthFailures; }

    /** Per-packet datapath latency for @p bytes under the current suite. */
    sim::TimePs packetLatency(std::uint32_t bytes) const
    {
        sim::TimePs lat = params.timing.packetLatency(params.suite, bytes);
        if (params.keyStore == KeyStore::kDram)
            lat += 200 * sim::kNanosecond;
        return lat;
    }

  private:
    struct FlowState {
        crypto::Key128 key;
        std::uint64_t packetCounter = 0;
    };

    sim::EventQueue &queue;
    CryptoRoleParams params;
    fpga::Shell *shell = nullptr;
    std::unordered_map<FlowKey, FlowState, FlowKeyHash> encryptFlows;
    std::unordered_map<FlowKey, FlowState, FlowKeyHash> decryptFlows;

    std::uint64_t statEncrypted = 0;
    std::uint64_t statDecrypted = 0;
    std::uint64_t statAuthFailures = 0;

    fpga::TapResult onTap(fpga::Direction dir, const net::PacketPtr &pkt);
    bool encryptPacket(FlowState &flow, net::Packet &pkt);
    bool decryptPacket(FlowState &flow, net::Packet &pkt);
    static FlowKey flowOf(const net::Packet &pkt);
};

/** Control message: host software configures a flow over PCIe. */
struct CryptoFlowConfig {
    bool add = true;
    bool encrypt = true;  ///< false: decrypt direction
    FlowKey flow;
    crypto::Key128 key{};
};

}  // namespace ccsim::roles
