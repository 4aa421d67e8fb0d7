/**
 * @file
 * Pieces shared by the two L2-fabric workloads: the probe sink role, the
 * cross-pod probe pairs, and seeded fluid background flows.
 */
#pragma once

#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/cloud.hpp"
#include "fpga/role.hpp"
#include "fpga/shell.hpp"
#include "net/fluid.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace ccsim::bench {

/**
 * An LTL destination that counts deliveries and, for probes, records
 * each message's simulated latency from the send timestamp it carries.
 * The role runs on its host's partition, so it only touches its own
 * state; the driver merges roles after the run.
 */
class SinkRole : public fpga::Role
{
  public:
    SinkRole(sim::EventQueue &eq, bool record) : queue(eq), recording(record)
    {
    }

    std::string name() const override { return "bench-sink"; }
    std::uint32_t areaAlms() const override { return 100; }
    void attach(fpga::Shell &, int p) override { erPort = p; }
    void onMessage(const router::ErMessagePtr &msg) override
    {
        ++count;
        if (!recording)
            return;
        const auto d =
            std::static_pointer_cast<fpga::LtlDelivery>(msg->payload);
        if (d && d->appPayload)
            lat.push_back(queue.now() - *std::static_pointer_cast<sim::TimePs>(
                                            d->appPayload));
    }

    int port() const { return erPort; }
    std::uint64_t delivered() const { return count; }
    const std::vector<sim::TimePs> &latencies() const { return lat; }

  private:
    sim::EventQueue &queue;
    bool recording;
    int erPort = -1;
    std::uint64_t count = 0;
    std::vector<sim::TimePs> lat;
};

/** One cross-pod LTL probe pair. */
struct ProbePair {
    int src = 0;
    int dst = 0;
    std::unique_ptr<SinkRole> role;
    core::LtlChannel channel;
    std::uint64_t sent = 0;
};

/**
 * Open @p count probe pairs between distinct pods drawn from
 * @p allowedPods by @p rng (hosts within each pod drawn uniformly).
 */
std::vector<ProbePair> openProbePairs(core::ConfigurableCloud &cloud,
                                      Tracer &tr, sim::Rng &rng, int count,
                                      const std::vector<int> &allowedPods);

/**
 * Schedule @p pings 64-byte probe messages on @p pair, 20 us apart from
 * now, each carrying its send time. Each send is an "ltl:send" span on
 * @p tr; pass null where the sends run on kernel worker threads.
 */
void schedulePings(core::ConfigurableCloud &cloud, ProbePair &pair,
                   int pings, Tracer *tr);

/** Add @p count fluid flows between uniformly drawn distinct hosts. */
std::vector<std::uint64_t> addSeededFlows(net::FluidTrafficModel &fluid,
                                          sim::Rng &rng, int hosts,
                                          int count, std::uint64_t bps);

/** Probe deliveries and latencies, merged in pair order. */
void harvestProbes(const std::vector<ProbePair> &probes, RepResult &res);

}  // namespace ccsim::bench
