/**
 * @file
 * Reproduces the Section IV network-encryption analysis:
 *
 *  - CPU cores required for 40 Gb/s full-duplex crypto (AES-GCM-128 at
 *    Intel's published 1.26 cycles/byte => ~5 cores; AES-CBC-128-SHA1 =>
 *    >= 15 cores);
 *  - FPGA per-packet latency (CBC-SHA1 1500 B: 11 us first flit to first
 *    flit, because CBC's serial dependency forces a 33-packet
 *    interleave; GCM pipelines perfectly);
 *  - software per-packet latency (~4 us for 1500 B CBC-SHA1);
 *  - measured throughput of this repository's real AES/SHA software
 *    implementation (the functional datapath used by the crypto role).
 */
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "crypto/aes.hpp"
#include "crypto/crypto_timing.hpp"
#include "crypto/sha1.hpp"
#include "sim/time.hpp"

using namespace ccsim;

namespace {

double
measureSoftwareGcmMBps(std::size_t total_bytes)
{
    crypto::Key128 key{};
    for (int i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    crypto::AesGcm gcm(key);
    std::vector<std::uint8_t> buf(1500, 0x5A);
    std::uint8_t iv[12] = {};
    crypto::Block tag;
    const auto start = std::chrono::steady_clock::now();
    std::size_t done = 0;
    while (done < total_bytes) {
        gcm.encrypt(iv, nullptr, 0, buf.data(), buf.size(), tag);
        done += buf.size();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    return static_cast<double>(done) / 1e6 / secs;
}

double
measureSoftwareCbcSha1MBps(std::size_t total_bytes)
{
    crypto::Key128 key{};
    key[3] = 9;
    crypto::Block iv{};
    crypto::AesCbc cbc(key, iv);
    std::vector<std::uint8_t> buf(1504, 0x5A);
    const auto start = std::chrono::steady_clock::now();
    std::size_t done = 0;
    while (done < total_bytes) {
        cbc.encrypt(buf.data(), buf.size());
        (void)crypto::hmacSha1(key.data(), key.size(), buf.data(),
                               buf.size());
        done += buf.size();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(stop - start).count();
    return static_cast<double>(done) / 1e6 / secs;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    std::printf("=== Section IV: network crypto offload ===\n\n");

    crypto::CpuCryptoModel cpu;
    crypto::FpgaCryptoModel fpga;

    std::printf("-- CPU cores needed for 40 Gb/s full duplex (2.4 GHz "
                "Haswell model) --\n");
    std::printf("  %-22s %12s %16s\n", "suite", "cycles/B", "cores needed");
    std::printf("  %-22s %12.2f %16.2f   (paper: ~5)\n", "AES-GCM-128",
                cpu.gcmCyclesPerByte,
                cpu.coresForLineRate(crypto::Suite::kAesGcm128, 40.0));
    std::printf("  %-22s %12.2f %16.2f   (paper: >= 15)\n",
                "AES-CBC-128-SHA1", cpu.cbcSha1CyclesPerByte,
                cpu.coresForLineRate(crypto::Suite::kAesCbc128Sha1, 40.0));

    std::printf("\n-- Per-packet latency, 1500 B (first flit to first "
                "flit) --\n");
    std::printf("  %-22s %14s %14s\n", "suite", "FPGA (us)", "software (us)");
    std::printf("  %-22s %14.2f %14.2f   (paper: 11 us vs ~4 us)\n",
                "AES-CBC-128-SHA1",
                sim::toMicros(fpga.packetLatency(
                    crypto::Suite::kAesCbc128Sha1, 1500)),
                sim::toMicros(cpu.packetLatency(
                    crypto::Suite::kAesCbc128Sha1, 1500)));
    std::printf("  %-22s %14.2f %14.2f   (GCM pipelines perfectly)\n",
                "AES-GCM-128",
                sim::toMicros(
                    fpga.packetLatency(crypto::Suite::kAesGcm128, 1500)),
                sim::toMicros(
                    cpu.packetLatency(crypto::Suite::kAesGcm128, 1500)));

    std::printf("\n-- Packet-size sweep: FPGA CBC-SHA1 latency (33-packet "
                "interleave) --\n");
    std::printf("  %-12s %12s\n", "bytes", "latency(us)");
    for (std::uint32_t bytes : {64u, 256u, 512u, 1024u, 1500u}) {
        std::printf("  %-12u %12.2f\n", bytes,
                    sim::toMicros(fpga.packetLatency(
                        crypto::Suite::kAesCbc128Sha1, bytes)));
    }

    std::printf("\n-- FPGA sustained throughput --\n");
    std::printf("  both suites sustain line rate: %.1f Gb/s of 40 Gb/s\n",
                fpga.throughputGbps(crypto::Suite::kAesGcm128, 40.0));

    std::printf("\n-- This repo's functional (portable, table-based) "
                "software crypto --\n");
    const double gcm_mbps = measureSoftwareGcmMBps(8u << 20);
    const double cbc_mbps = measureSoftwareCbcSha1MBps(8u << 20);
    std::printf("  AES-GCM-128 encrypt:      %8.1f MB/s\n", gcm_mbps);
    std::printf("  AES-CBC-128 + HMAC-SHA1:  %8.1f MB/s\n", cbc_mbps);
    std::printf("  (reference only — the paper's CPU numbers assume "
                "AES-NI/CLMUL hardware.)\n");

    std::printf("\n  CPU cost recovered by offload at 40 Gb/s: %.1f "
                "cores (GCM) to %.1f cores (CBC-SHA1)\n",
                cpu.coresForLineRate(crypto::Suite::kAesGcm128, 40.0),
                cpu.coresForLineRate(crypto::Suite::kAesCbc128Sha1, 40.0));
    return 0;
}
