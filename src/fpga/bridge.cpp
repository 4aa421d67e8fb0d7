#include "fpga/bridge.hpp"

#include "sim/logging.hpp"

namespace ccsim::fpga {

Bridge::Bridge(sim::EventQueue &eq, BridgeConfig cfg)
    : queue(eq), config(std::move(cfg))
{
}

bool
Bridge::injectToTor(const net::PacketPtr &pkt)
{
    if (isDown) {
        ++statDownDrops;
        return false;
    }
    if (torTx == nullptr)
        return false;
    ++statInjected;
    return torTx->send(pkt);
}

void
Bridge::handle(Direction dir, const net::PacketPtr &pkt)
{
    if (isDown) {
        ++statDownDrops;
        return;
    }
    TapResult result;
    if (tap)
        result = tap(dir, pkt);
    if (result.action == TapResult::Action::kConsume) {
        ++statConsumed;
        return;
    }
    const sim::TimePs delay = config.traverseLatency + result.extraDelay;
    queue.scheduleAfter(delay, [this, dir, pkt] {
        if (isDown) {
            ++statDownDrops;
            return;
        }
        if (dir == Direction::kFromNic) {
            if (torTx && torTx->send(pkt))
                ++statNicToTor;
        } else {
            if (nicTx && nicTx->send(pkt))
                ++statTorToNic;
        }
    });
}

}  // namespace ccsim::fpga
