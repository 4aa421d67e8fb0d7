/**
 * @file
 * The bump-in-the-wire network bridge (Section II / Figure 4, top).
 *
 * The FPGA sits between the server's NIC and the TOR switch: the NIC is
 * cabled to one FPGA port and the other FPGA port to the TOR. The bridge
 * must always pass packets between the two interfaces, and provides a tap
 * for roles (and the LTL engine) to inject, inspect, and alter traffic.
 * Full reconfiguration briefly brings the link down; partial
 * reconfiguration keeps the bypass alive.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/channel.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"

namespace ccsim::fpga {

/** Direction of travel through the bridge. */
enum class Direction {
    kFromNic,  ///< host transmit path (NIC -> TOR)
    kFromTor,  ///< host receive path (TOR -> NIC)
};

/** What the tap decided about a packet. */
struct TapResult {
    enum class Action {
        kForward,  ///< pass through (possibly after mutation by the tap)
        kConsume,  ///< swallowed by the FPGA (e.g. an LTL frame)
    };
    Action action = Action::kForward;
    /** Extra processing latency before forwarding (e.g. crypto). */
    sim::TimePs extraDelay = 0;
};

/** Bridge configuration. */
struct BridgeConfig {
    std::string name = "bridge";
    /** One-way latency through MAC + bypass logic. */
    sim::TimePs traverseLatency = 120 * sim::kNanosecond;
};

/** The NIC<->TOR bypass with a role/LTL tap. */
class Bridge
{
  public:
    /**
     * Tap callback: inspect (and possibly mutate) a packet.
     * Return kConsume to take the packet out of the stream.
     */
    using TapFn = std::function<TapResult(Direction, const net::PacketPtr &)>;

    Bridge(sim::EventQueue &eq, BridgeConfig cfg);

    /** Transmit channel toward the TOR switch. */
    void setTorTx(net::Channel *tx) { torTx = tx; }
    /** Transmit channel toward the NIC. */
    void setNicTx(net::Channel *tx) { nicTx = tx; }

    /** Sink to attach at the NIC-side link (receives host transmissions). */
    net::PacketSink *nicSideSink() { return &nicSide; }
    /** Sink to attach at the TOR-side link (receives network traffic). */
    net::PacketSink *torSideSink() { return &torSide; }

    /** Install the tap (at most one; the shell multiplexes roles). */
    void setTap(TapFn fn) { tap = std::move(fn); }

    /** FPGA-generated packet toward the network (LTL, roles). */
    bool injectToTor(const net::PacketPtr &pkt);

    /**
     * Take the bridge down (full FPGA reconfiguration) or up. While down,
     * all packets are dropped, modelling the brief network outage.
     */
    void setDown(bool down) { isDown = down; }
    bool down() const { return isDown; }

    std::uint64_t forwardedNicToTor() const { return statNicToTor; }
    std::uint64_t forwardedTorToNic() const { return statTorToNic; }
    std::uint64_t consumedByTap() const { return statConsumed; }
    std::uint64_t injected() const { return statInjected; }
    std::uint64_t droppedWhileDown() const { return statDownDrops; }

  private:
    class Side : public net::PacketSink
    {
      public:
        Side(Bridge *b, Direction d) : parent(b), dir(d) {}
        void acceptPacket(const net::PacketPtr &pkt) override
        {
            parent->handle(dir, pkt);
        }

      private:
        Bridge *parent;
        Direction dir;
    };

    sim::EventQueue &queue;
    BridgeConfig config;
    net::Channel *torTx = nullptr;
    net::Channel *nicTx = nullptr;
    TapFn tap;
    Side nicSide{this, Direction::kFromNic};
    Side torSide{this, Direction::kFromTor};
    bool isDown = false;

    std::uint64_t statNicToTor = 0;
    std::uint64_t statTorToNic = 0;
    std::uint64_t statConsumed = 0;
    std::uint64_t statInjected = 0;
    std::uint64_t statDownDrops = 0;

    void handle(Direction dir, const net::PacketPtr &pkt);
};

}  // namespace ccsim::fpga
