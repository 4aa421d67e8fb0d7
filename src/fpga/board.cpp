#include "fpga/board.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace ccsim::fpga {

FpgaBoard::FpgaBoard(BoardSpec spec) : boardSpec(spec)
{
    // Every manufactured board ships with a minimal golden image: bridge
    // bypass only, so a power cycle always restores reachability.
    goldenSlot = FpgaImage{"golden-bypass", true, 0, false};
}

void
FpgaBoard::flashApplicationImage(FpgaImage image)
{
    image.golden = false;
    appSlot = std::move(image);
}

void
FpgaBoard::powerOn()
{
    if (!goldenSlot)
        sim::panic("FpgaBoard: no golden image in flash");
    loaded = goldenSlot;
}

bool
FpgaBoard::loadApplicationImage()
{
    if (!appSlot)
        return false;
    loaded = appSlot;
    return true;
}

double
FpgaBoard::estimatePowerWatts(double utilization) const
{
    const double u = std::clamp(utilization, 0.0, 1.0);
    return boardSpec.idleWatts +
           u * (boardSpec.powerVirusWatts - boardSpec.idleWatts);
}

}  // namespace ccsim::fpga
