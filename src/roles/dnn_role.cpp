#include "roles/dnn_role.hpp"

#include <algorithm>

#include "sim/logging.hpp"
#include "sim/pool.hpp"

namespace ccsim::roles {

Mlp::Mlp(std::vector<int> layer_sizes, std::uint64_t seed)
    : sizes(std::move(layer_sizes))
{
    if (sizes.size() < 2)
        sim::fatal("Mlp: need at least input and output layers");
    sim::Rng rng(seed);
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
        const int rows = sizes[l + 1];
        const int cols = sizes[l];
        std::vector<float> w(static_cast<std::size_t>(rows) * cols);
        const double scale = std::sqrt(2.0 / cols);  // He init
        for (auto &x : w)
            x = static_cast<float>(rng.normal(0.0, scale));
        weights.push_back(std::move(w));
        std::vector<float> b(rows, 0.0f);
        biases.push_back(std::move(b));
    }
}

std::vector<float>
Mlp::infer(const std::vector<float> &input) const
{
    if (static_cast<int>(input.size()) != sizes.front())
        sim::fatal("Mlp::infer: wrong input size");
    std::vector<float> act = input;
    for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
        const int rows = sizes[l + 1];
        const int cols = sizes[l];
        std::vector<float> next(rows);
        const bool last = l + 2 == sizes.size();
        for (int r = 0; r < rows; ++r) {
            float acc = biases[l][r];
            const float *w = &weights[l][static_cast<std::size_t>(r) * cols];
            for (int c = 0; c < cols; ++c)
                acc += w[c] * act[c];
            next[r] = last ? acc : std::max(0.0f, acc);  // ReLU hidden
        }
        act = std::move(next);
    }
    return act;
}

DnnRole::DnnRole(sim::EventQueue &eq, DnnRoleParams p)
    : queue(eq), params(p)
{
}

void
DnnRole::attach(fpga::Shell &sh, int er_port)
{
    shell = &sh;
    erPort = er_port;
}

void
DnnRole::onMessage(const router::ErMessagePtr &msg)
{
    std::shared_ptr<DnnRequest> req;
    if (msg->srcEndpoint == fpga::kErPortLtl) {
        auto delivery =
            std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
        if (delivery && delivery->appPayload)
            req = std::static_pointer_cast<DnnRequest>(delivery->appPayload);
    } else {
        req = std::static_pointer_cast<DnnRequest>(msg->payload);
    }
    if (!req) {
        CCSIM_LOG(sim::LogLevel::kWarn, name(), queue.now(),
                  "message without DnnRequest payload");
        return;
    }

    auto resp = sim::makePooled<DnnResponse>();
    resp->requestId = req->requestId;
    resp->clientId = req->clientId;
    if (req->input)
        resp->output =
            std::make_shared<std::vector<float>>(mlp.infer(*req->input));

    // Single deterministic-service engine: FIFO, non-preemptive.
    const sim::TimePs start = std::max(queue.now(), busyUntil);
    busyUntil = start + params.serviceTime;
    ++inService;
    queue.schedule(busyUntil, [this, req, resp = std::move(resp)]() mutable {
        --inService;
        ++statServed;
        auto &endpoint = shell->roleEndpoint(erPort);
        if (req->replyViaPcie) {
            endpoint.sendMessage(fpga::kErPortPcie, fpga::kVcResponse,
                                 params.responseBytes, std::move(resp));
            return;
        }
        auto ltl_req = sim::makePooled<fpga::LtlSendRequest>();
        ltl_req->conn = req->replyConn;
        ltl_req->bytes = params.responseBytes;
        ltl_req->vc = fpga::kVcResponse;
        ltl_req->appPayload = std::move(resp);
        endpoint.sendMessage(fpga::kErPortLtl, fpga::kVcResponse,
                             params.responseBytes, std::move(ltl_req));
    });
}

}  // namespace ccsim::roles
