#include "fpga/shell.hpp"

#include "sim/logging.hpp"
#include "sim/pool.hpp"

namespace ccsim::fpga {

Shell::Shell(sim::EventQueue &eq, ShellConfig config)
    : queue(eq), cfg(std::move(config)), fpgaBoard(cfg.board),
      bridgeUnit(eq, cfg.bridge), pcieUnit(eq, cfg.pcie),
      dramUnit(eq, cfg.dram), area(cfg.board.totalAlms)
{
    // Size the ER: PCIe + DRAM + LTL + role slots.
    router::ErConfig er_cfg = cfg.er;
    er_cfg.numPorts = kErPortRole0 + cfg.roleSlots;
    er_cfg.name = cfg.name + ".er";
    er = std::make_unique<router::ElasticRouter>(queue, er_cfg);

    pcieEndpoint = std::make_unique<router::ErEndpoint>(queue, *er,
                                                        kErPortPcie,
                                                        kErPortPcie);
    er->setOutputSink(kErPortPcie, pcieEndpoint.get());
    pcieEndpoint->setMessageHandler(
        [this](const router::ErMessagePtr &m) { onPcieMessage(m); });

    dramEndpoint = std::make_unique<router::ErEndpoint>(queue, *er,
                                                        kErPortDram,
                                                        kErPortDram);
    er->setOutputSink(kErPortDram, dramEndpoint.get());
    dramEndpoint->setMessageHandler(
        [this](const router::ErMessagePtr &m) { onDramMessage(m); });

    pktSwitch = std::make_unique<ltl::LtlPacketSwitch>(
        queue, cfg.packetSwitch, [this](const net::PacketPtr &pkt) {
            return bridgeUnit.injectToTor(pkt);
        });

    if (cfg.enableLtl) {
        ltl::LtlConfig ltl_cfg = cfg.ltl;
        ltl_cfg.localIp = cfg.ip;
        ltlUnit = std::make_unique<ltl::LtlEngine>(
            queue, ltl_cfg,
            [this](const net::PacketPtr &pkt) {
                pktSwitch->sendLtl(pkt);
            });
        ltlUnit->setDeliveryHandler(
            [this](const ltl::LtlMessage &m) { onLtlDelivery(m); });
        ltlEndpoint = std::make_unique<router::ErEndpoint>(queue, *er,
                                                           kErPortLtl,
                                                           kErPortLtl);
        er->setOutputSink(kErPortLtl, ltlEndpoint.get());
        ltlEndpoint->setMessageHandler(
            [this](const router::ErMessagePtr &m) {
                onLtlEndpointMessage(m);
            });
    }

    roleEndpoints.resize(cfg.roleSlots);
    roles.resize(cfg.roleSlots, nullptr);
    roleActive.resize(cfg.roleSlots, false);
    for (int slot = 0; slot < cfg.roleSlots; ++slot)
        er->setOutputSink(kErPortRole0 + slot, &emptySlotSink);

    bridgeUnit.setTap([this](Direction d, const net::PacketPtr &p) {
        return onTap(d, p);
    });

    area = buildShellArea();
    fpgaBoard.powerOn();
    fpgaBoard.flashApplicationImage(
        FpgaImage{cfg.name + ".app", false, 0, false});
    fpgaBoard.loadApplicationImage();
}

Shell::~Shell()
{
    if (scrubEvent != sim::kNoEvent)
        queue.cancel(scrubEvent);
}

void
Shell::attachObservability(obs::Observability *o, const std::string &node)
{
    er->attachObservability(o, node);
    if (ltlUnit)
        ltlUnit->attachObservability(o, node);
    if (!o)
        return;
    const std::string prefix = "fpga." + node;
    auto &reg = o->registry;
    reg.registerProbe(prefix + ".pcie_bytes",
                      [this] { return double(pcieUnit.bytesTransferred()); });
    reg.registerProbe(prefix + ".pcie_transfers",
                      [this] { return double(pcieUnit.transfers()); });
    reg.registerProbe(prefix + ".pcie_util", [this] {
        // Two independent directions: full duplex counts as 2.0 here.
        const sim::TimePs now = queue.now();
        return now > 0 ? double(pcieUnit.busyTime()) / double(now) : 0.0;
    });
    reg.registerProbe(prefix + ".dram_bytes",
                      [this] { return double(dramUnit.bytesAccessed()); });
    reg.registerProbe(prefix + ".dram_reads",
                      [this] { return double(dramUnit.reads()); });
    reg.registerProbe(prefix + ".dram_writes",
                      [this] { return double(dramUnit.writes()); });
    reg.registerProbe(prefix + ".dram_util", [this] {
        const sim::TimePs now = queue.now();
        return now > 0 ? double(dramUnit.busyTime()) / double(now) : 0.0;
    });
}

AreaModel
Shell::buildShellArea() const
{
    AreaModel m(cfg.board.totalAlms);
    m.addComponent({"40G MAC/PHY (TOR)", 9785, 313.0, true});
    m.addComponent({"40G MAC/PHY (NIC)", 13122, 313.0, true});
    m.addComponent({"Network Bridge / Bypass", 4685, 313.0, true});
    m.addComponent({"DDR3 Memory Controller", 13225, 200.0, true});
    m.addComponent({"Elastic Router", 3449, 156.0, true});
    if (cfg.enableLtl) {
        m.addComponent({"LTL Protocol Engine", 11839, 156.0, true});
        m.addComponent({"LTL Packet Switch", 4815, 313.0, true});
    }
    m.addComponent({"PCIe Gen 3 DMA x 2", 6817, 250.0, true});
    m.addComponent({"Other", 8273, 0.0, true});
    return m;
}

int
Shell::addRole(Role *role)
{
    for (int slot = 0; slot < cfg.roleSlots; ++slot) {
        if (roles[slot] != nullptr)
            continue;
        if (!area.addComponent({"Role: " + role->name(), role->areaAlms(),
                                role->clockMhz(), false})) {
            CCSIM_LOG(sim::LogLevel::kWarn, cfg.name, queue.now(),
                      "role ", role->name(), " does not fit (",
                      role->areaAlms(), " ALMs, ", area.freeAlms(),
                      " free)");
            return -1;
        }
        const int port = kErPortRole0 + slot;
        roles[slot] = role;
        roleActive[slot] = true;
        roleEndpoints[slot] = std::make_unique<router::ErEndpoint>(
            queue, *er, port, port);
        er->setOutputSink(port, roleEndpoints[slot].get());
        roleEndpoints[slot]->setMessageHandler(
            [this, slot](const router::ErMessagePtr &m) {
                dispatchToRole(slot, m);
            });
        role->attach(*this, port);
        return port;
    }
    CCSIM_LOG(sim::LogLevel::kWarn, cfg.name, queue.now(),
              "no free role slot for ", role->name());
    return -1;
}

void
Shell::removeRole(int role_port)
{
    const int slot = role_port - kErPortRole0;
    if (slot < 0 || slot >= cfg.roleSlots || roles[slot] == nullptr)
        return;
    area.removeComponent("Role: " + roles[slot]->name());
    roles[slot] = nullptr;
    roleActive[slot] = false;
}

router::ErEndpoint &
Shell::roleEndpoint(int role_port)
{
    const int slot = role_port - kErPortRole0;
    if (slot < 0 || slot >= cfg.roleSlots || !roleEndpoints[slot])
        sim::panicf(cfg.name, ": bad role port ", role_port);
    return *roleEndpoints[slot];
}

void
Shell::dispatchToRole(int slot, const router::ErMessagePtr &msg)
{
    if (!roleActive[slot] || roles[slot] == nullptr) {
        ++statInactiveDrops;
        return;
    }
    roles[slot]->onMessage(msg);
}

TapResult
Shell::onTap(Direction dir, const net::PacketPtr &pkt)
{
    // LTL frames addressed to this FPGA are consumed out of the stream.
    if (dir == Direction::kFromTor && ltlUnit &&
        pkt->etherType == net::EtherType::kIpv4 &&
        pkt->ipProto == net::IpProto::kUdp &&
        pkt->dstPort == cfg.ltl.udpPort && pkt->ipDst == cfg.ip &&
        pkt->meta != nullptr) {
        ltlUnit->onNetworkPacket(pkt);
        return TapResult{TapResult::Action::kConsume, 0};
    }
    if (roleTap)
        return roleTap(dir, pkt);
    return TapResult{};
}

void
Shell::sendFromHost(int role_port, std::uint32_t bytes,
                    std::shared_ptr<void> payload, int vc)
{
    pcieUnit.hostToFpga(bytes, [this, role_port, bytes, vc,
                                payload = std::move(payload)]() mutable {
        pcieEndpoint->sendMessage(role_port, vc, bytes, std::move(payload));
    });
}

void
Shell::setHostRxHandler(int role_port, HostRxFn fn)
{
    if (fn)
        hostRxByPort[role_port] = std::move(fn);
    else
        hostRxByPort.erase(role_port);
}

void
Shell::onPcieMessage(const router::ErMessagePtr &msg)
{
    // A role pushed data toward the host: DMA it up, then notify.
    pcieUnit.fpgaToHost(msg->sizeBytes, [this, msg] {
        auto it = hostRxByPort.find(msg->srcEndpoint);
        if (it != hostRxByPort.end()) {
            it->second(msg->srcEndpoint, msg);
            return;
        }
        if (hostRx)
            hostRx(msg->srcEndpoint, msg);
    });
}

void
Shell::onDramMessage(const router::ErMessagePtr &msg)
{
    auto req = std::static_pointer_cast<DramRequest>(msg->payload);
    if (!req) {
        CCSIM_LOG(sim::LogLevel::kWarn, cfg.name, queue.now(),
                  "DRAM message without DramRequest payload");
        return;
    }
    auto finish = [this, req] {
        if (req->replyPort >= 0) {
            auto reply = std::make_shared<DramReply>();
            reply->cookie = req->cookie;
            dramEndpoint->sendMessage(req->replyPort, kVcResponse,
                                      64, std::move(reply));
        }
    };
    if (req->isWrite)
        dramUnit.write(req->bytes, std::move(finish));
    else
        dramUnit.read(req->bytes, std::move(finish));
}

void
Shell::onLtlEndpointMessage(const router::ErMessagePtr &msg)
{
    auto req = std::static_pointer_cast<LtlSendRequest>(msg->payload);
    if (!req || !ltlUnit) {
        CCSIM_LOG(sim::LogLevel::kWarn, cfg.name, queue.now(),
                  "LTL endpoint message without LtlSendRequest payload");
        return;
    }
    ltlUnit->sendMessage(req->conn, req->bytes, req->appPayload, req->vc,
                         req->trace);
}

void
Shell::bindReceiveConnection(std::uint16_t conn, int er_port)
{
    if (connToPort.size() <= conn)
        connToPort.resize(conn + 1, -1);
    connToPort[conn] = er_port;
}

void
Shell::onLtlDelivery(const ltl::LtlMessage &msg)
{
    int port = -1;
    if (msg.conn < connToPort.size())
        port = connToPort[msg.conn];
    if (port < 0) {
        CCSIM_LOG(sim::LogLevel::kDebug, cfg.name, queue.now(),
                  "LTL delivery on unbound connection ", msg.conn);
        return;
    }
    auto delivery = sim::makePooled<LtlDelivery>();
    delivery->conn = msg.conn;
    delivery->msgId = msg.msgId;
    delivery->bytes = msg.bytes;
    delivery->appPayload = msg.payload;
    delivery->sentAt = msg.sentAt;
    delivery->trace = msg.trace;
    ltlEndpoint->sendMessage(port, msg.vc, msg.bytes, std::move(delivery),
                             msg.trace);
}

bool
Shell::injectRolePacket(const net::PacketPtr &pkt)
{
    if (pkt->ipSrc.value == 0)
        pkt->ipSrc = cfg.ip;
    if (pkt->createdAt == 0)
        pkt->createdAt = queue.now();
    return pktSwitch->sendRole(pkt);
}

void
Shell::loadApplicationImage(const FpgaImage &image,
                            std::function<void()> done)
{
    fpgaBoard.flashApplicationImage(image);
    bridgeUnit.setDown(true);
    for (int slot = 0; slot < cfg.roleSlots; ++slot)
        roleActive[slot] = false;
    queue.scheduleAfter(cfg.board.fullReconfigTime,
                        [this, done = std::move(done)] {
                            fpgaBoard.loadApplicationImage();
                            const bool buggy =
                                fpgaBoard.loadedImage() &&
                                fpgaBoard.loadedImage()->buggy;
                            if (!buggy) {
                                // Healthy image: restore the bypass and
                                // the roles.
                                bridgeUnit.setDown(false);
                                for (int s = 0; s < cfg.roleSlots; ++s) {
                                    if (roles[s] != nullptr)
                                        roleActive[s] = true;
                                }
                            }
                            // A buggy image leaves the bridge down: the
                            // server is cut off until a power cycle.
                            if (done)
                                done();
                        });
}

void
Shell::powerCycleViaManagementPath()
{
    fpgaBoard.powerCycle();  // golden image loads from flash
    bridgeUnit.setDown(false);
    // The golden image is bypass-only: roles are not configured.
    for (int slot = 0; slot < cfg.roleSlots; ++slot)
        roleActive[slot] = false;
}

void
Shell::reconfigureFull(std::function<void()> done)
{
    bridgeUnit.setDown(true);
    for (int slot = 0; slot < cfg.roleSlots; ++slot)
        roleActive[slot] = roles[slot] != nullptr ? false : roleActive[slot];
    queue.scheduleAfter(cfg.board.fullReconfigTime,
                        [this, done = std::move(done)] {
                            bridgeUnit.setDown(false);
                            for (int s = 0; s < cfg.roleSlots; ++s) {
                                if (roles[s] != nullptr)
                                    roleActive[s] = true;
                            }
                            if (done)
                                done();
                        });
}

void
Shell::reconfigureFullQuiesced(std::function<void()> done)
{
    if (!ltlUnit) {
        reconfigureFull(std::move(done));
        return;
    }
    ltlUnit->beginQuiesce(
        cfg.ltl.quiesceDrainTimeout, [this, done = std::move(done)] {
            reconfigureFull([this, done = std::move(done)] {
                ltlUnit->endQuiesce();
                if (done)
                    done();
            });
        });
}

void
Shell::reconfigureRolePartial(int role_port, std::function<void()> done)
{
    const int slot = role_port - kErPortRole0;
    if (slot < 0 || slot >= cfg.roleSlots)
        sim::panicf(cfg.name, ": bad role port ", role_port);
    roleActive[slot] = false;
    queue.scheduleAfter(cfg.board.partialReconfigTime,
                        [this, slot, done = std::move(done)] {
                            if (roles[slot] != nullptr)
                                roleActive[slot] = true;
                            if (done)
                                done();
                        });
}

void
Shell::startScrubbing(sim::TimePs interval)
{
    if (scrubEvent != sim::kNoEvent)
        return;
    scrubEvent = queue.scheduleAfter(interval, [this, interval] {
        scrubEvent = sim::kNoEvent;
        if (pendingSeus > 0) {
            statSeusDetected += pendingSeus;
            pendingSeus = 0;
        }
        if (pendingHang) {
            pendingHang = false;
            ++statHangRecoveries;
            // Recover the hung role via partial reconfiguration.
            if (!roles.empty() && roles[0] != nullptr)
                reconfigureRolePartial(kErPortRole0);
        }
        startScrubbing(interval);
    });
}

void
Shell::injectSeu(bool causes_role_hang)
{
    ++pendingSeus;
    if (causes_role_hang)
        pendingHang = true;
}

}  // namespace ccsim::fpga
