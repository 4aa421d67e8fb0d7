/**
 * @file
 * The accelerator interface host software programs against.
 *
 * Extracted from ranking_server.hpp so the serving layer (which routes
 * requests *to* accelerators) can implement the interface without
 * depending on any concrete host component. Implementations: software
 * (on-core), local FPGA (PCIe + role pipeline), remote FPGA (LTL through
 * the simulated network), and serving::ClusterClient (a routed pool of
 * any of the above).
 */
#pragma once

#include <cstdint>
#include <functional>

#include "obs/flow_trace.hpp"

namespace ccsim::host {

/**
 * Interface to whatever computes the feature stage. The caller's thread
 * blocks on the accelerator, so @p done marks the instant results are
 * back in host memory.
 */
class FeatureAccelerator
{
  public:
    virtual ~FeatureAccelerator() = default;

    /**
     * Compute features for one query of @p doc_count candidate documents;
     * invoke @p done when the results are back in host memory.
     *
     * Callers pass small completions: RankingServer's captures `this`
     * and a 64-bit key (16 B), which std::function stores inline, so an
     * attempt costs no allocation. The one remaining allocation per
     * routed attempt is serving::ClusterClient::forward()'s wrapper
     * (`this`, a token and the caller's std::function, 48 B).
     */
    virtual void compute(std::uint32_t doc_count,
                         std::function<void()> done) = 0;

    /**
     * compute() with the submitting query's causal context, so routed
     * paths (serving::ClusterClient) can annotate the flow with the
     * backend that served it. The default forwards to compute(); plain
     * accelerators need not care.
     */
    virtual void computeTraced(std::uint32_t doc_count,
                               const obs::TraceContext & /*ctx*/,
                               std::function<void()> done)
    {
        compute(doc_count, std::move(done));
    }
};

}  // namespace ccsim::host
