/**
 * @file
 * PCIe Gen3 x8 DMA engine model.
 *
 * The board exposes two independent PCIe Gen3 x8 connections for an
 * aggregate of 16 GB/s each direction between CPU and FPGA. Transfers are
 * serialized per direction at the aggregate bandwidth with a fixed DMA
 * round-trip setup latency.
 */
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ccsim::fpga {

/** PCIe DMA configuration. */
struct PcieConfig {
    /** Aggregate bandwidth per direction (two Gen3 x8 links). */
    double gbytesPerSec = 16.0;
    /** Fixed DMA latency (doorbell, descriptor fetch, completion). */
    sim::TimePs baseLatency = 900 * sim::kNanosecond;
};

/** A two-direction DMA engine with per-direction serialization. */
class PcieDma
{
  public:
    PcieDma(sim::EventQueue &eq, PcieConfig cfg = {})
        : queue(eq), config(cfg)
    {
    }

    /**
     * DMA @p bytes from host memory into the FPGA; @p done is the event
     * that fires at the end (an empty one still takes its event).
     */
    void hostToFpga(std::uint32_t bytes, sim::EventFn done)
    {
        transfer(h2fBusyUntil, bytes, std::move(done));
    }

    /** DMA @p bytes from the FPGA into host memory. */
    void fpgaToHost(std::uint32_t bytes, sim::EventFn done)
    {
        transfer(f2hBusyUntil, bytes, std::move(done));
    }

    std::uint64_t bytesTransferred() const { return statBytes; }
    std::uint64_t transfers() const { return statTransfers; }
    /** Cumulative link-busy time summed over both directions. */
    sim::TimePs busyTime() const { return busyAccum; }

  private:
    sim::EventQueue &queue;
    PcieConfig config;
    sim::TimePs h2fBusyUntil = 0;
    sim::TimePs f2hBusyUntil = 0;
    sim::TimePs busyAccum = 0;
    std::uint64_t statBytes = 0;
    std::uint64_t statTransfers = 0;

    void transfer(sim::TimePs &busy_until, std::uint32_t bytes,
                  sim::EventFn done)
    {
        const sim::TimePs now = queue.now();
        const double ns =
            static_cast<double>(bytes) / (config.gbytesPerSec * 1e9) * 1e9;
        const sim::TimePs start = std::max(now, busy_until);
        busy_until = start + sim::fromNanos(ns);
        busyAccum += busy_until - start;
        statBytes += bytes;
        ++statTransfers;
        if (!done)
            done = [] {};
        queue.schedule(busy_until + config.baseLatency, std::move(done));
    }
};

}  // namespace ccsim::fpga
