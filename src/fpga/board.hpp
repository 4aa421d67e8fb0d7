/**
 * @file
 * The accelerator board (Section II, Figures 2 & 3): an Altera Stratix V
 * D5 with one 4 GB DDR3-1600 channel, two PCIe Gen3 x8 connections, two
 * 40 GbE QSFP+ interfaces, and a 256 Mb configuration flash that holds a
 * known-good golden image plus one application image.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fpga/area_model.hpp"
#include "sim/time.hpp"

namespace ccsim::fpga {

/** A configuration bitstream stored in flash or loaded in the fabric. */
struct FpgaImage {
    std::string name;
    /** The golden image is loaded at power-on and rarely overwritten. */
    bool golden = false;
    /** ALMs used by role logic in this image. */
    std::uint32_t roleAlms = 0;
    /** A buggy application image can cut off network traffic when loaded. */
    bool buggy = false;
};

/** Board-level constants and power model. */
struct BoardSpec {
    std::uint32_t totalAlms = kStratixVD5Alms;
    double tdpWatts = 32.0;
    double maxElectricalWatts = 35.0;
    /** Measured with the power virus in worst-case thermal conditions. */
    double powerVirusWatts = 29.2;
    double idleWatts = 12.0;
    /** Full-chip reconfiguration time (network link is down meanwhile). */
    sim::TimePs fullReconfigTime = 2 * sim::kSecond;
    /** Partial reconfiguration of a role region (bypass stays alive). */
    sim::TimePs partialReconfigTime = 250 * sim::kMillisecond;
    double maxInletTempC = 70.0;
    double airflowLfm = 160.0;
};

/** The accelerator board: flash, loaded image, power estimation. */
class FpgaBoard
{
  public:
    explicit FpgaBoard(BoardSpec spec = {});

    const BoardSpec &spec() const { return boardSpec; }

    /** Write the application image slot. */
    void flashApplicationImage(FpgaImage image);

    /** Power-on: loads the golden image from flash. */
    void powerOn();
    /** Power-cycle via the side-channel management path (recovery). */
    void powerCycle() { powerOn(); }

    /** Load the application image (full reconfiguration). */
    bool loadApplicationImage();

    /** The image currently in the fabric, if any. */
    const std::optional<FpgaImage> &loadedImage() const { return loaded; }

    /** True if the currently loaded image is the golden image. */
    bool runningGolden() const { return loaded && loaded->golden; }

    /**
     * Estimated power draw at a given datapath utilization in [0, 1].
     * Linear between idle and the power-virus ceiling; always below the
     * 32 W TDP and the 35 W electrical limit.
     */
    double estimatePowerWatts(double utilization) const;

  private:
    BoardSpec boardSpec;
    std::optional<FpgaImage> goldenSlot;
    std::optional<FpgaImage> appSlot;
    std::optional<FpgaImage> loaded;
};

}  // namespace ccsim::fpga
