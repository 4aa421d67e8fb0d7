/**
 * @file
 * A conventional server NIC.
 *
 * In the Configurable Cloud the NIC keeps all of its hardened offload and
 * transport functionality; the FPGA sits between the NIC and the TOR. The
 * model therefore only needs send/receive with a host-side handler — all
 * protocol processing above it is done by host software models.
 */
#pragma once

#include <functional>
#include <string>

#include "net/channel.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace ccsim::net {

/** A simple NIC endpoint. */
class Nic : public PacketSink
{
  public:
    Nic(sim::EventQueue &eq, std::string name, MacAddr mac, Ipv4Addr ip)
        : queue(eq), label(std::move(name)), macAddr(mac), ipAddr(ip)
    {
    }

    /** Channel the NIC transmits into (toward the FPGA/TOR). */
    void setTxChannel(Channel *tx) { txChannel = tx; }

    /** Callback invoked for every packet delivered to the host. */
    void setReceiveHandler(std::function<void(const PacketPtr &)> h)
    {
        handler = std::move(h);
    }

    /**
     * Transmit a packet. Unset L2/L3 source fields are stamped with this
     * NIC's addresses.
     *
     * @return false if the NIC had no attached channel or the transmit
     *         queue overflowed.
     */
    bool sendPacket(const PacketPtr &pkt);

    void acceptPacket(const PacketPtr &pkt) override;

    MacAddr mac() const { return macAddr; }
    Ipv4Addr ip() const { return ipAddr; }

    /** Export rx/tx packet counts under `nic.<node>.*`. */
    void attachObservability(obs::Observability *o, const std::string &node)
    {
        if (!o)
            return;
        o->registry.registerProbe("nic." + node + ".rx_packets",
                                  [this] { return double(rxPackets); });
        o->registry.registerProbe("nic." + node + ".tx_packets",
                                  [this] { return double(txPackets); });
    }

  private:
    sim::EventQueue &queue;
    std::string label;
    MacAddr macAddr;
    Ipv4Addr ipAddr;
    Channel *txChannel = nullptr;
    std::function<void(const PacketPtr &)> handler;
    std::uint64_t rxPackets = 0;
    std::uint64_t txPackets = 0;
};

}  // namespace ccsim::net
