/**
 * @file
 * Composition of multiple Elastic Routers into larger on-chip topologies
 * (Section V-B: "multiple ERs can be composed to form a larger on-chip
 * network topology, e.g., a ring or a 2-D mesh").
 *
 * Inter-router links carry their own credit loop: a link forwards a flit
 * into the downstream router only when that input VC has a credit,
 * buffering (bounded by the upstream output's wormhole) otherwise — the
 * same one-credit-per-flit discipline the paper's ER uses.
 */
#pragma once

#include <memory>
#include <vector>

#include "router/elastic_router.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"

namespace ccsim::router {

/**
 * A credit-respecting unidirectional connection from one router's output
 * port into another router's input port.
 *
 * Flits wait in one FIFO per VC, so a flit blocked on one VC never holds
 * back another VC (head-of-line blocking would deadlock multi-VC
 * meshes). Every credit the downstream input frees calls the link back,
 * which retries every VC, starting with the VC the credit came from.
 */
class ErLink : public FlitSink
{
  public:
    ErLink(ElasticRouter &downstream, int in_port)
        : er(downstream), inPort(in_port),
          pending(downstream.config().numVcs)
    {
        er.setCreditReturnFn(inPort, [this](int vc) {
            const int vcs = static_cast<int>(pending.size());
            for (int k = 0; k < vcs; ++k)
                pump((vc + k) % vcs);
        });
    }

    void acceptFlit(const Flit &flit) override
    {
        pending[flit.vc].push_back(flit);
        pump(flit.vc);
    }

    std::size_t backlog() const
    {
        std::size_t n = 0;
        for (const auto &q : pending)
            n += q.size();
        return n;
    }

  private:
    ElasticRouter &er;
    int inPort;
    std::vector<sim::Fifo<Flit>> pending;

    void pump(int vc)
    {
        auto &q = pending[vc];
        while (!q.empty() && er.canAccept(inPort, vc)) {
            er.injectFlit(inPort, std::move(q.front()));
            q.pop_front();
        }
    }
};

/**
 * A network of Elastic Routers with endpoint attachment and automatic
 * routing-table construction.
 *
 * Endpoint ids are global and dense: router r exposes endpoint slots
 * [r * endpointsPerRouter, (r+1) * endpointsPerRouter).
 */
class ErNetwork
{
  public:
    /**
     * Build a ring of @p routers routers, each with
     * @p endpoints_per_router local endpoint ports. Flits travel the
     * shorter direction around the ring.
     */
    static std::unique_ptr<ErNetwork> ring(sim::EventQueue &eq,
                                           int routers,
                                           int endpoints_per_router,
                                           ErConfig base = ErConfig{});

    /**
     * Build a @p width x @p height 2-D mesh (no wraparound) with
     * dimension-order (X then Y) routing.
     */
    static std::unique_ptr<ErNetwork> mesh(sim::EventQueue &eq, int width,
                                           int height,
                                           int endpoints_per_router,
                                           ErConfig base = ErConfig{});

    int numRouters() const { return static_cast<int>(routers.size()); }
    int numEndpoints() const
    {
        return numRouters() * endpointsPerRouter;
    }

    /** The endpoint object for a global endpoint id. */
    ErEndpoint &endpoint(int global_id)
    {
        return *endpoints.at(global_id);
    }

    ElasticRouter &router(int index) { return *routers.at(index); }

    /** Total flits currently buffered in inter-router links. */
    std::size_t linkBacklog() const;

  private:
    int endpointsPerRouter = 0;
    std::vector<std::unique_ptr<ElasticRouter>> routers;
    std::vector<std::unique_ptr<ErEndpoint>> endpoints;
    std::vector<std::unique_ptr<ErLink>> links;

    ErNetwork() = default;

    /** Wire a unidirectional link: src router port -> dst router port. */
    void connect(int src_router, int src_port, int dst_router,
                 int dst_port);
    void attachEndpoints(sim::EventQueue &eq, int endpoints_per_router);
};

}  // namespace ccsim::router
