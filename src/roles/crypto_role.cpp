#include "roles/crypto_role.hpp"

#include <cstring>

#include "sim/logging.hpp"

namespace ccsim::roles {

namespace {

/** Deterministic per-packet IV from the flow counter (CBC needs 16 B). */
crypto::Block
counterIv(std::uint64_t counter)
{
    crypto::Block iv{};
    for (int i = 0; i < 8; ++i)
        iv[i] = static_cast<std::uint8_t>(counter >> (8 * i));
    // Spread the counter into the upper half too (simple expansion).
    for (int i = 8; i < 16; ++i)
        iv[i] = static_cast<std::uint8_t>((counter * 0x9E3779B9u) >> (8 * (i - 8)));
    return iv;
}

}  // namespace

CryptoRole::CryptoRole(sim::EventQueue &eq, CryptoRoleParams p)
    : queue(eq), params(p)
{
}

void
CryptoRole::attach(fpga::Shell &sh, int)
{
    shell = &sh;
    shell->setRoleTap([this](fpga::Direction d, const net::PacketPtr &pkt) {
        return onTap(d, pkt);
    });
}

void
CryptoRole::onMessage(const router::ErMessagePtr &msg)
{
    // Control plane: host software configures flows via PCIe messages.
    auto config = std::static_pointer_cast<CryptoFlowConfig>(msg->payload);
    if (!config) {
        CCSIM_LOG(sim::LogLevel::kWarn, name(), queue.now(),
                  "message without CryptoFlowConfig payload");
        return;
    }
    if (!config->add) {
        removeFlow(config->flow);
        return;
    }
    if (config->encrypt)
        addEncryptFlow(config->flow, config->key);
    else
        addDecryptFlow(config->flow, config->key);
}

void
CryptoRole::addEncryptFlow(const FlowKey &flow, const crypto::Key128 &key)
{
    encryptFlows[flow] = FlowState{key, 0};
}

void
CryptoRole::addDecryptFlow(const FlowKey &flow, const crypto::Key128 &key)
{
    decryptFlows[flow] = FlowState{key, 0};
}

void
CryptoRole::removeFlow(const FlowKey &flow)
{
    encryptFlows.erase(flow);
    decryptFlows.erase(flow);
}

FlowKey
CryptoRole::flowOf(const net::Packet &pkt)
{
    return FlowKey{pkt.ipSrc, pkt.ipDst, pkt.srcPort, pkt.dstPort,
                   static_cast<std::uint8_t>(pkt.ipProto)};
}

fpga::TapResult
CryptoRole::onTap(fpga::Direction dir, const net::PacketPtr &pkt)
{
    if (pkt->etherType != net::EtherType::kIpv4)
        return {};
    const FlowKey flow = flowOf(*pkt);
    if (dir == fpga::Direction::kFromNic) {
        auto it = encryptFlows.find(flow);
        if (it == encryptFlows.end())
            return {};
        const std::uint32_t before = pkt->payloadBytes;
        if (encryptPacket(it->second, *pkt)) {
            ++statEncrypted;
            return fpga::TapResult{fpga::TapResult::Action::kForward,
                                   packetLatency(before)};
        }
        return {};
    }
    auto it = decryptFlows.find(flow);
    if (it == decryptFlows.end())
        return {};
    const std::uint32_t before = pkt->payloadBytes;
    if (decryptPacket(it->second, *pkt)) {
        ++statDecrypted;
        return fpga::TapResult{fpga::TapResult::Action::kForward,
                               packetLatency(before)};
    }
    // Authentication failed: drop the packet rather than hand garbage up.
    ++statAuthFailures;
    return fpga::TapResult{fpga::TapResult::Action::kConsume, 0};
}

bool
CryptoRole::encryptPacket(FlowState &flow, net::Packet &pkt)
{
    const std::uint64_t counter = flow.packetCounter++;
    if (pkt.data.empty()) {
        // Modeled payload only: account for the on-wire expansion.
        if (params.suite == crypto::Suite::kAesCbc128Sha1) {
            const std::uint32_t padded = (pkt.payloadBytes / 16 + 1) * 16;
            pkt.payloadBytes = 16 + padded + 20;  // IV + ct + HMAC tag
        } else {
            pkt.payloadBytes += 12 + 16;  // IV + GCM tag
        }
        return true;
    }

    if (params.suite == crypto::Suite::kAesCbc128Sha1) {
        // Encrypt-then-MAC: IV || CBC(pad(data)) || HMAC-SHA1 tag.
        auto padded = crypto::pkcs7Pad(pkt.data.data(), pkt.data.size());
        const crypto::Block iv = counterIv(counter);
        crypto::AesCbc cbc(flow.key, iv);
        cbc.encrypt(padded.data(), padded.size());
        std::vector<std::uint8_t> out;
        out.reserve(16 + padded.size() + 20);
        out.insert(out.end(), iv.begin(), iv.end());
        out.insert(out.end(), padded.begin(), padded.end());
        const crypto::Sha1Digest tag = crypto::hmacSha1(
            flow.key.data(), flow.key.size(), out.data(), out.size());
        out.insert(out.end(), tag.begin(), tag.end());
        pkt.data = std::move(out);
    } else {
        // AES-GCM-128: IV(12) || ct || tag(16).
        std::uint8_t iv[12];
        for (int i = 0; i < 8; ++i)
            iv[i] = static_cast<std::uint8_t>(counter >> (8 * i));
        iv[8] = iv[9] = iv[10] = iv[11] = 0xA5;
        crypto::AesGcm gcm(flow.key);
        std::vector<std::uint8_t> ct = pkt.data;
        crypto::Block tag;
        gcm.encrypt(iv, nullptr, 0, ct.data(), ct.size(), tag);
        std::vector<std::uint8_t> out;
        out.reserve(12 + ct.size() + 16);
        out.insert(out.end(), iv, iv + 12);
        out.insert(out.end(), ct.begin(), ct.end());
        out.insert(out.end(), tag.begin(), tag.end());
        pkt.data = std::move(out);
    }
    pkt.payloadBytes = static_cast<std::uint32_t>(pkt.data.size());
    return true;
}

bool
CryptoRole::decryptPacket(FlowState &flow, net::Packet &pkt)
{
    ++flow.packetCounter;
    if (pkt.data.empty()) {
        // Modeled payload: undo the expansion (approximately).
        if (params.suite == crypto::Suite::kAesCbc128Sha1) {
            if (pkt.payloadBytes < 16 + 16 + 20)
                return false;
            pkt.payloadBytes -= 16 + 20 + 8;  // IV + tag + expected pad
        } else {
            if (pkt.payloadBytes < 12 + 16)
                return false;
            pkt.payloadBytes -= 12 + 16;
        }
        return true;
    }

    if (params.suite == crypto::Suite::kAesCbc128Sha1) {
        if (pkt.data.size() < 16 + 16 + 20)
            return false;
        const std::size_t body_len = pkt.data.size() - 20;
        const crypto::Sha1Digest expect = crypto::hmacSha1(
            flow.key.data(), flow.key.size(), pkt.data.data(), body_len);
        if (std::memcmp(expect.data(), pkt.data.data() + body_len, 20) != 0)
            return false;
        crypto::Block iv;
        std::memcpy(iv.data(), pkt.data.data(), 16);
        std::vector<std::uint8_t> ct(pkt.data.begin() + 16,
                                     pkt.data.begin() + body_len);
        crypto::AesCbc cbc(flow.key, iv);
        cbc.decrypt(ct.data(), ct.size());
        const std::size_t plain_len = crypto::pkcs7Unpad(ct.data(), ct.size());
        if (plain_len == SIZE_MAX)
            return false;
        ct.resize(plain_len);
        pkt.data = std::move(ct);
    } else {
        if (pkt.data.size() < 12 + 16)
            return false;
        std::uint8_t iv[12];
        std::memcpy(iv, pkt.data.data(), 12);
        crypto::Block tag;
        std::memcpy(tag.data(), pkt.data.data() + pkt.data.size() - 16, 16);
        std::vector<std::uint8_t> ct(pkt.data.begin() + 12,
                                     pkt.data.end() - 16);
        crypto::AesGcm gcm(flow.key);
        if (!gcm.decrypt(iv, nullptr, 0, ct.data(), ct.size(), tag))
            return false;
        pkt.data = std::move(ct);
    }
    pkt.payloadBytes = static_cast<std::uint32_t>(pkt.data.size());
    return true;
}

}  // namespace ccsim::roles
