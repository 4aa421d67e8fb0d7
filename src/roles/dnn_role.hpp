/**
 * @file
 * The latency-sensitive DNN accelerator role used in the oversubscription
 * study (Section V-E, Figure 12), including a real (small) MLP so the
 * accelerator computes genuine inferences when inputs are supplied.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fpga/role.hpp"
#include "fpga/shell.hpp"
#include "sim/random.hpp"

namespace ccsim::roles {

/** A dense multi-layer perceptron with ReLU hidden activations. */
class Mlp
{
  public:
    /**
     * @param layer_sizes e.g. {64, 128, 64, 10}.
     * @param seed        Weight initialization seed.
     */
    explicit Mlp(std::vector<int> layer_sizes = {64, 128, 64, 10},
                 std::uint64_t seed = 31);

    /** Run inference. @pre input.size() == inputSize(). */
    std::vector<float> infer(const std::vector<float> &input) const;

    int inputSize() const { return sizes.front(); }

  private:
    std::vector<int> sizes;
    /** weights[l] is a (sizes[l+1] x sizes[l]) row-major matrix. */
    std::vector<std::vector<float>> weights;
    std::vector<std::vector<float>> biases;
};

/** A DNN inference request. */
struct DnnRequest {
    std::uint64_t requestId = 0;
    int clientId = 0;
    /** Reply over LTL using this send connection on the serving shell,
     *  or over PCIe when replyViaPcie is set. */
    bool replyViaPcie = false;
    std::uint16_t replyConn = 0;
    /** Optional real input; when set, the role computes a real inference. */
    std::shared_ptr<std::vector<float>> input;
};

/** The response. */
struct DnnResponse {
    std::uint64_t requestId = 0;
    int clientId = 0;
    std::shared_ptr<std::vector<float>> output;
};

/** Role parameters. */
struct DnnRoleParams {
    /**
     * Deterministic service time per inference. With synthetic clients
     * driving 7.5x the expected production per-client rate, a 444 us
     * service time yields saturation at 3.0 clients/FPGA as in Figure 12
     * (equivalently: 22.5 clients at production rates).
     */
    sim::TimePs serviceTime = 444 * sim::kMicrosecond;
    std::uint32_t responseBytes = 128;
    std::uint32_t alms = 65000;
};

/** The DNN accelerator role. */
class DnnRole : public fpga::Role
{
  public:
    explicit DnnRole(sim::EventQueue &eq, DnnRoleParams p = {});

    std::string name() const override { return "dnn-accelerator"; }
    std::uint32_t areaAlms() const override { return params.alms; }
    void attach(fpga::Shell &shell, int er_port) override;
    void onMessage(const router::ErMessagePtr &msg) override;

    std::uint64_t requestsServed() const { return statServed; }
    /** Requests currently queued or in service. */
    std::uint64_t queueDepth() const { return inService; }
    const Mlp &network() const { return mlp; }

  private:
    sim::EventQueue &queue;
    DnnRoleParams params;
    fpga::Shell *shell = nullptr;
    int erPort = -1;
    sim::TimePs busyUntil = 0;
    std::uint64_t statServed = 0;
    std::uint64_t inService = 0;
    Mlp mlp;
};

}  // namespace ccsim::roles
