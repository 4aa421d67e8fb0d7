/**
 * @file
 * The Shell: the common I/O and board-specific logic in every FPGA image
 * (Figure 4). It wires together the two 40G MACs, the NIC<->TOR bridge
 * and tap, the Elastic Router, the LTL protocol engine, the PCIe DMA
 * engines, and the DDR3 controller, and hosts one or more Roles.
 */
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fpga/area_model.hpp"
#include "fpga/board.hpp"
#include "fpga/bridge.hpp"
#include "fpga/dram.hpp"
#include "fpga/pcie.hpp"
#include "fpga/role.hpp"
#include "ltl/ltl_engine.hpp"
#include "ltl/packet_switch.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "router/elastic_router.hpp"
#include "sim/event_queue.hpp"

namespace ccsim::fpga {

/** Fixed Elastic Router port assignments in the single-role shell. */
inline constexpr int kErPortPcie = 0;
inline constexpr int kErPortDram = 1;
inline constexpr int kErPortLtl = 2;
inline constexpr int kErPortRole0 = 3;

/** VC used for request traffic; VC 1 carries responses. */
inline constexpr int kVcRequest = 0;
inline constexpr int kVcResponse = 1;

/** Payload of an ER message asking the LTL endpoint to transmit. */
struct LtlSendRequest {
    std::uint16_t conn = 0;
    std::uint32_t bytes = 0;
    std::uint8_t vc = 0;
    std::shared_ptr<void> appPayload;
    obs::TraceContext trace;  ///< flow context to continue on the wire
};

/** Payload of an ER message delivering a received LTL message to a role. */
struct LtlDelivery {
    std::uint16_t conn = 0;
    std::uint64_t msgId = 0;
    std::uint32_t bytes = 0;
    std::shared_ptr<void> appPayload;
    sim::TimePs sentAt = 0;
    obs::TraceContext trace;  ///< sender's flow context
};

/** Payload of an ER message requesting a DRAM access. */
struct DramRequest {
    std::uint32_t bytes = 0;
    bool isWrite = false;
    int replyPort = -1;
    std::uint64_t cookie = 0;
};

/** Payload of the DRAM completion message. */
struct DramReply {
    std::uint64_t cookie = 0;
};

/** Shell configuration. */
struct ShellConfig {
    std::string name = "shell";
    net::Ipv4Addr ip;
    int roleSlots = 1;
    /** Deploy the LTL block (shell versions without it free 7% area). */
    bool enableLtl = true;
    BridgeConfig bridge;
    router::ErConfig er;
    ltl::LtlConfig ltl;
    ltl::PacketSwitchConfig packetSwitch;
    PcieConfig pcie;
    DramConfig dram;
    BoardSpec board;
};

/**
 * One FPGA shell instance (one per server).
 */
class Shell
{
  public:
    /** Handler for role->host messages surfacing through PCIe DMA. */
    using HostRxFn =
        std::function<void(int role_port, const router::ErMessagePtr &)>;

    Shell(sim::EventQueue &eq, ShellConfig cfg);
    ~Shell();

    Shell(const Shell &) = delete;
    Shell &operator=(const Shell &) = delete;

    // --- wiring to the outside world -------------------------------------

    /** Sink for the TOR-side 40G interface (attach to the host link). */
    net::PacketSink *torSideSink() { return bridgeUnit.torSideSink(); }
    /** Channel the shell transmits into toward the TOR. */
    void setTorTx(net::Channel *tx) { bridgeUnit.setTorTx(tx); }
    /** Sink for the NIC-side 40G interface (attach to the NIC link). */
    net::PacketSink *nicSideSink() { return bridgeUnit.nicSideSink(); }
    /** Channel the shell transmits into toward the NIC. */
    void setNicTx(net::Channel *tx) { bridgeUnit.setNicTx(tx); }

    // --- roles ------------------------------------------------------------

    /**
     * Place a role into the next free slot.
     *
     * @return The ER port assigned, or -1 if no slot / no area remains.
     */
    int addRole(Role *role);

    /**
     * Evict the role at @p role_port: its slot and area are freed for
     * the next configuration (messages still in the ER are dropped and
     * counted as inactive drops). No-op if the slot is already empty.
     */
    void removeRole(int role_port);

    /** Role tap on the bridge (network acceleration, e.g. crypto). */
    void setRoleTap(Bridge::TapFn fn) { roleTap = std::move(fn); }

    // --- host interface (PCIe) --------------------------------------------

    /** Host software sends @p bytes to a role over PCIe DMA + ER. */
    void sendFromHost(int role_port, std::uint32_t bytes,
                      std::shared_ptr<void> payload, int vc = kVcRequest);

    /** Handler for messages a role sends to the host (ER port 0). */
    void setHostRxHandler(HostRxFn fn) { hostRx = std::move(fn); }

    /**
     * Route host-bound messages from the role at @p role_port to @p fn,
     * overriding the global handler for that port only. Lets several
     * host-side clients share one shell, each listening to its own
     * role (e.g. a forwarder pool). Pass nullptr to remove.
     */
    void setHostRxHandler(int role_port, HostRxFn fn);

    // --- remote acceleration (LTL) ------------------------------------------

    /** The LTL protocol engine (null if the shell was built without it). */
    ltl::LtlEngine *ltlEngine() { return ltlUnit.get(); }

    /**
     * Deliver messages arriving on LTL receive connection @p conn to the
     * role at @p er_port (via the ER, as on real hardware).
     */
    void bindReceiveConnection(std::uint16_t conn, int er_port);

    /**
     * Inject a role-generated raw network packet toward the TOR. It
     * passes through the LTL Packet Switch: classified onto the role
     * traffic class and bandwidth-limited by random early drop so the
     * FPGA cannot starve its host's traffic.
     *
     * @return false if policed away or the bridge is down.
     */
    bool injectRolePacket(const net::PacketPtr &pkt);

    /** The LTL packet switch (classification/policing statistics). */
    ltl::LtlPacketSwitch &packetSwitch() { return *pktSwitch; }

    // --- reconfiguration and reliability ------------------------------------

    /**
     * Full reconfiguration: the bridge goes down for the configured time
     * (most applications tolerate the brief outage).
     */
    void reconfigureFull(std::function<void()> done = {});

    /**
     * Graceful full reconfiguration: quiesce the LTL engine first (stop
     * admitting sends, drain in-flight frames, reject late arrivals),
     * then reconfigure, then reopen LTL admission. @p done fires when
     * the node is back up. Peers whose frames are rejected mid-window
     * fail over immediately instead of silently losing traffic. Without
     * an LTL block this degrades to reconfigureFull().
     */
    void reconfigureFullQuiesced(std::function<void()> done = {});

    /**
     * Flash and load an application image (full reconfiguration). If the
     * image is buggy, network traffic to the server stays cut off until
     * powerCycleViaManagementPath() reloads the known-good golden image
     * (the recovery story of Section II).
     */
    void loadApplicationImage(const FpgaImage &image,
                              std::function<void()> done = {});

    /**
     * Power-cycle the server through the side-channel management path:
     * the golden bypass image loads from flash and the server becomes
     * reachable again. Roles stay inactive until an application image
     * is reloaded.
     */
    void powerCycleViaManagementPath();

    /**
     * Partial reconfiguration of a role slot: packets keep passing
     * through; the role drops messages while being reconfigured.
     */
    void reconfigureRolePartial(int role_port,
                                std::function<void()> done = {});

    /**
     * Start periodic configuration-state scrubbing (default every 30 s).
     * Detects injected SEUs; a hang recovers via partial reconfiguration.
     */
    void startScrubbing(sim::TimePs interval = 30 * sim::kSecond);

    /** Inject a configuration-bit upset (for reliability experiments). */
    void injectSeu(bool causes_role_hang);

    // --- observability ------------------------------------------------------

    /**
     * Export this shell's statistics under `fpga.<node>.*` (PCIe/DRAM
     * byte counts and utilization probes) and cascade to the Elastic
     * Router (`router.<node>.*`) and LTL engine (`ltl.<node>.*`). Pass
     * nullptr to detach.
     */
    void attachObservability(obs::Observability *o, const std::string &node);

    // --- introspection ------------------------------------------------------

    router::ElasticRouter &elasticRouter() { return *er; }
    router::ErEndpoint &roleEndpoint(int role_port);
    Bridge &bridge() { return bridgeUnit; }
    PcieDma &pcie() { return pcieUnit; }
    DramChannel &dram() { return dramUnit; }
    FpgaBoard &board() { return fpgaBoard; }
    const AreaModel &areaModel() const { return area; }
    const ShellConfig &config() const { return cfg; }
    net::Ipv4Addr ip() const { return cfg.ip; }

    std::uint64_t seusDetected() const { return statSeusDetected; }
    std::uint64_t roleHangsRecovered() const { return statHangRecoveries; }
    std::uint64_t messagesToInactiveRole() const { return statInactiveDrops; }

  private:
    sim::EventQueue &queue;
    ShellConfig cfg;
    FpgaBoard fpgaBoard;
    Bridge bridgeUnit;
    PcieDma pcieUnit;
    DramChannel dramUnit;
    std::unique_ptr<router::ElasticRouter> er;
    std::unique_ptr<ltl::LtlEngine> ltlUnit;
    std::unique_ptr<ltl::LtlPacketSwitch> pktSwitch;
    AreaModel area;

    std::unique_ptr<router::ErEndpoint> pcieEndpoint;
    std::unique_ptr<router::ErEndpoint> dramEndpoint;
    std::unique_ptr<router::ErEndpoint> ltlEndpoint;
    std::vector<std::unique_ptr<router::ErEndpoint>> roleEndpoints;
    std::vector<Role *> roles;
    std::vector<bool> roleActive;

    Bridge::TapFn roleTap;
    HostRxFn hostRx;
    std::map<int, HostRxFn> hostRxByPort;  // per-port overrides
    std::vector<int> connToPort;  // LTL receive conn -> ER port

    // Reliability state.
    int pendingSeus = 0;
    bool pendingHang = false;
    std::uint64_t statSeusDetected = 0;
    std::uint64_t statHangRecoveries = 0;
    std::uint64_t statInactiveDrops = 0;
    sim::EventId scrubEvent = sim::kNoEvent;

    /**
     * The sink of a role slot that never held a role: it consumes what
     * is routed there and counts each message as one to an inactive
     * role, so every router port has a sink.
     */
    struct EmptySlotSink final : router::FlitSink {
        explicit EmptySlotSink(std::uint64_t &count) : drops(count) {}
        void acceptFlit(const router::Flit &) override { ++drops; }
        bool tailFlitsOnly() const override { return true; }
        std::uint64_t &drops;
    };
    EmptySlotSink emptySlotSink{statInactiveDrops};

    TapResult onTap(Direction dir, const net::PacketPtr &pkt);
    void onLtlDelivery(const ltl::LtlMessage &msg);
    void onPcieMessage(const router::ErMessagePtr &msg);
    void onDramMessage(const router::ErMessagePtr &msg);
    void onLtlEndpointMessage(const router::ErMessagePtr &msg);
    void dispatchToRole(int slot, const router::ErMessagePtr &msg);
    AreaModel buildShellArea() const;
};

}  // namespace ccsim::fpga
