#include "router/er_network.hpp"

#include "sim/logging.hpp"

namespace ccsim::router {

void
ErNetwork::connect(int src_router, int src_port, int dst_router,
                   int dst_port)
{
    links.push_back(std::make_unique<ErLink>(*routers[dst_router],
                                             dst_port));
    routers[src_router]->setOutputSink(src_port, links.back().get());
}

void
ErNetwork::attachEndpoints(sim::EventQueue &eq, int endpoints_per_router)
{
    endpointsPerRouter = endpoints_per_router;
    for (int r = 0; r < numRouters(); ++r) {
        for (int e = 0; e < endpoints_per_router; ++e) {
            const int id = r * endpoints_per_router + e;
            endpoints.push_back(
                std::make_unique<ErEndpoint>(eq, *routers[r], e, id));
            routers[r]->setOutputSink(e, endpoints.back().get());
        }
    }
}

std::unique_ptr<ErNetwork>
ErNetwork::ring(sim::EventQueue &eq, int n_routers,
                int endpoints_per_router, ErConfig base)
{
    if (n_routers < 2)
        sim::fatal("ErNetwork::ring: need at least 2 routers");
    auto net = std::unique_ptr<ErNetwork>(new ErNetwork());
    const int port_cw = endpoints_per_router;       // to (r+1) % n
    const int port_ccw = endpoints_per_router + 1;  // to (r-1+n) % n
    for (int r = 0; r < n_routers; ++r) {
        ErConfig cfg = base;
        cfg.name = base.name + ".ring" + std::to_string(r);
        cfg.numPorts = endpoints_per_router + 2;
        net->routers.push_back(
            std::make_unique<ElasticRouter>(eq, cfg));
    }
    for (int r = 0; r < n_routers; ++r) {
        const int epr = endpoints_per_router;
        net->routers[r]->setRouteFn(
            [r, n_routers, epr, port_cw, port_ccw](int dst) {
                const int dst_router = dst / epr;
                if (dst_router == r)
                    return dst % epr;
                const int fwd = (dst_router - r + n_routers) % n_routers;
                return fwd <= n_routers - fwd ? port_cw : port_ccw;
            });
        net->connect(r, port_cw, (r + 1) % n_routers, port_ccw);
        net->connect(r, port_ccw, (r - 1 + n_routers) % n_routers,
                     port_cw);
    }
    net->attachEndpoints(eq, endpoints_per_router);
    return net;
}

std::unique_ptr<ErNetwork>
ErNetwork::mesh(sim::EventQueue &eq, int width, int height,
                int endpoints_per_router, ErConfig base)
{
    if (width < 1 || height < 1 || width * height < 2)
        sim::fatal("ErNetwork::mesh: need at least 2 routers");
    auto net = std::unique_ptr<ErNetwork>(new ErNetwork());
    const int epr = endpoints_per_router;
    const int port_px = epr;      // +X
    const int port_nx = epr + 1;  // -X
    const int port_py = epr + 2;  // +Y
    const int port_ny = epr + 3;  // -Y
    auto index = [width](int x, int y) { return y * width + x; };

    for (int r = 0; r < width * height; ++r) {
        ErConfig cfg = base;
        cfg.name = base.name + ".mesh" + std::to_string(r);
        cfg.numPorts = epr + 4;
        net->routers.push_back(
            std::make_unique<ElasticRouter>(eq, cfg));
    }
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            const int r = index(x, y);
            // Dimension-order routing: correct X first, then Y (the
            // standard deadlock-free discipline for meshes).
            net->routers[r]->setRouteFn([x, y, width, epr, port_px,
                                         port_nx, port_py,
                                         port_ny](int dst) {
                const int dst_router = dst / epr;
                const int dx = dst_router % width;
                const int dy = dst_router / width;
                if (dx == x && dy == y)
                    return dst % epr;
                if (dx != x)
                    return dx > x ? port_px : port_nx;
                return dy > y ? port_py : port_ny;
            });
            if (x + 1 < width) {
                net->connect(r, port_px, index(x + 1, y), port_nx);
                net->connect(index(x + 1, y), port_nx, r, port_px);
            }
            if (y + 1 < height) {
                net->connect(r, port_py, index(x, y + 1), port_ny);
                net->connect(index(x, y + 1), port_ny, r, port_py);
            }
        }
    }
    net->attachEndpoints(eq, endpoints_per_router);
    return net;
}

std::size_t
ErNetwork::linkBacklog() const
{
    std::size_t total = 0;
    for (const auto &link : links)
        total += link->backlog();
    return total;
}

}  // namespace ccsim::router
