#include "roles/ranking/ranking_role.hpp"

#include "sim/logging.hpp"
#include "sim/pool.hpp"

namespace ccsim::roles {

RankingRole::RankingRole(sim::EventQueue &eq, RankingRoleParams p)
    : queue(eq), params(p)
{
}

void
RankingRole::attach(fpga::Shell &sh, int er_port)
{
    shell = &sh;
    erPort = er_port;
}

void
RankingRole::onMessage(const router::ErMessagePtr &msg)
{
    // Requests arrive either raw (PCIe path) or wrapped in an LtlDelivery
    // (remote path).
    std::shared_ptr<RankingRequest> req;
    if (msg->srcEndpoint == fpga::kErPortLtl) {
        auto delivery =
            std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
        if (delivery && delivery->appPayload)
            req = std::static_pointer_cast<RankingRequest>(
                delivery->appPayload);
    } else {
        req = std::static_pointer_cast<RankingRequest>(msg->payload);
    }
    if (!req) {
        CCSIM_LOG(sim::LogLevel::kWarn, name(), queue.now(),
                  "message without RankingRequest payload");
        return;
    }
    serve(req);
}

void
RankingRole::serve(const std::shared_ptr<RankingRequest> &req)
{
    const sim::TimePs now = queue.now();
    const std::uint32_t docs = std::max<std::uint32_t>(req->docCount, 1);
    const sim::TimePs occupancy = params.occupancyPerDoc * docs;
    const sim::TimePs start = std::max(now, busyUntil);
    busyUntil = start + occupancy;
    busyAccum += occupancy;

    auto resp = sim::makePooled<RankingResponse>();
    resp->requestId = req->requestId;
    resp->docCount = req->docCount;
    if (req->query && req->docs && !req->docs->empty()) {
        // Real feature computation: the same FFU/DPF code the software
        // reference uses (this is what the hardware datapath implements).
        const auto ranked = rankDocuments(*req->query, *req->docs, model);
        resp->topDocId = ranked.front().docId;
        resp->topScore = ranked.front().score;
    }

    queue.schedule(busyUntil + params.fixedLatency,
                   [this, req, resp = std::move(resp)]() mutable {
                       respond(req, std::move(resp));
                   });
}

void
RankingRole::respond(const std::shared_ptr<RankingRequest> &req,
                     std::shared_ptr<RankingResponse> resp)
{
    ++statServed;
    auto &endpoint = shell->roleEndpoint(erPort);
    if (req->replyVia == ReplyVia::kPcie) {
        endpoint.sendMessage(fpga::kErPortPcie, fpga::kVcResponse,
                             params.responseBytes, std::move(resp));
        return;
    }
    // Remote request: reply over LTL via the shell's LTL endpoint.
    auto ltl_req = sim::makePooled<fpga::LtlSendRequest>();
    ltl_req->conn = req->replyConn;
    ltl_req->bytes = params.responseBytes;
    ltl_req->vc = fpga::kVcResponse;
    ltl_req->appPayload = std::move(resp);
    endpoint.sendMessage(fpga::kErPortLtl, fpga::kVcResponse,
                         params.responseBytes, std::move(ltl_req));
}

void
ForwarderRole::attach(fpga::Shell &sh, int er_port)
{
    shell = &sh;
    erPort = er_port;
}

void
ForwarderRole::onMessage(const router::ErMessagePtr &msg)
{
    auto &endpoint = shell->roleEndpoint(erPort);
    if (msg->srcEndpoint == fpga::kErPortLtl) {
        // Remote response arriving over LTL: hand it up to the host.
        endpoint.sendMessage(fpga::kErPortPcie, fpga::kVcResponse,
                             msg->sizeBytes, msg->payload);
        return;
    }
    // Host request to ship over LTL.
    auto fwd = std::static_pointer_cast<ForwardRequest>(msg->payload);
    if (!fwd) {
        CCSIM_LOG(sim::LogLevel::kWarn, name(), -1,
                  "message without ForwardRequest payload");
        return;
    }
    auto ltl_req = sim::makePooled<fpga::LtlSendRequest>();
    ltl_req->conn = fwd->sendConn;
    ltl_req->bytes = fwd->bytes;
    ltl_req->vc = fwd->vc;
    ltl_req->appPayload = fwd->inner;
    endpoint.sendMessage(fpga::kErPortLtl, fwd->vc, fwd->bytes,
                         std::move(ltl_req));
}

RemoteRankingClient::RemoteRankingClient(sim::EventQueue &eq,
                                         fpga::Shell &sh,
                                         ForwarderRole &fw,
                                         std::uint16_t send_conn,
                                         std::uint16_t reply_conn,
                                         std::uint32_t request_bytes_per_doc)
    : queue(eq), shell(sh), forwarder(fw), sendConn(send_conn),
      replyConn(reply_conn), bytesPerDoc(request_bytes_per_doc)
{
    // Per-port registration: several clients (one per forwarder) can
    // share the shell without clobbering each other's receive path.
    shell.setHostRxHandler(
        forwarder.port(),
        [this](int role_port, const router::ErMessagePtr &msg) {
            onHostRx(role_port, msg);
        });
}

RemoteRankingClient::~RemoteRankingClient()
{
    shell.setHostRxHandler(forwarder.port(), nullptr);
}

void
RemoteRankingClient::compute(std::uint32_t doc_count,
                             std::function<void()> done)
{
    auto req = std::make_shared<RankingRequest>();
    req->requestId = nextRequestId++;
    req->docCount = doc_count;
    req->replyVia = ReplyVia::kLtl;
    req->replyConn = replyConn;
    outstanding[req->requestId] = std::move(done);

    auto fwd = std::make_shared<ForwarderRole::ForwardRequest>();
    fwd->sendConn = sendConn;
    fwd->bytes = std::max<std::uint32_t>(64, doc_count * bytesPerDoc);
    fwd->vc = fpga::kVcRequest;
    fwd->inner = std::move(req);
    const std::uint32_t bytes = fwd->bytes;
    shell.sendFromHost(forwarder.port(), bytes, std::move(fwd));
}

void
RemoteRankingClient::onHostRx(int role_port, const router::ErMessagePtr &msg)
{
    if (role_port != forwarder.port())
        return;
    std::shared_ptr<RankingResponse> resp;
    if (auto delivery =
            std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
        delivery && delivery->appPayload) {
        resp = std::static_pointer_cast<RankingResponse>(
            delivery->appPayload);
    }
    if (!resp)
        return;
    auto it = outstanding.find(resp->requestId);
    if (it == outstanding.end())
        return;
    auto done = std::move(it->second);
    outstanding.erase(it);
    ++statResponses;
    if (done)
        done();
}

}  // namespace ccsim::roles
