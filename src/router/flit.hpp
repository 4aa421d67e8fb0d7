/**
 * @file
 * Flit-level data types for the Elastic Router.
 *
 * Messages between on-FPGA endpoints (PCIe DMA, Roles, DRAM, LTL) travel
 * as flits. A head flit carries routing state; the tail flit closes the
 * wormhole and triggers delivery of the reassembled message. Inside a
 * router a message's buffered flits are counted, not stored: a `Flit` is
 * the value a grant hands an output sink.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "obs/flow_trace.hpp"

namespace ccsim::router {

/** A message travelling through one or more Elastic Routers. */
struct ErMessage {
    /** Global destination endpoint id (routed via each ER's table). */
    int dstEndpoint = 0;
    /** Global source endpoint id (informational). */
    int srcEndpoint = 0;
    /** Virtual channel the message travels on. */
    int vc = 0;
    /** Message payload size in bytes (determines flit count). */
    std::uint32_t sizeBytes = 0;
    /** Typed payload; receivers know what to expect per VC/endpoint. */
    std::shared_ptr<void> payload;
    /** Unique id for tracing. */
    std::uint64_t id = 0;
    /** Creation time (ps) for latency accounting. */
    std::int64_t createdAt = 0;
    /** Causal flow context carried across the crossbar. */
    obs::TraceContext trace;
};

using ErMessagePtr = std::shared_ptr<ErMessage>;

/** Flits a message of @p size_bytes occupies; an empty message takes one. */
constexpr std::uint32_t
flitCount(std::uint32_t size_bytes, std::uint32_t flit_bytes)
{
    return size_bytes <= flit_bytes ? 1
                                    : (size_bytes + flit_bytes - 1) /
                                          flit_bytes;
}

/** Flit kinds. */
enum class FlitKind : std::uint8_t {
    kHead,
    kBody,
    kTail,
    kHeadTail,  ///< single-flit message
};

/**
 * One flit, as an output sink receives it or an injector hands it to
 * ElasticRouter::injectFlit().
 */
struct Flit {
    FlitKind kind = FlitKind::kHeadTail;
    int vc = 0;
    /** Final destination endpoint (copied from the message). */
    int dstEndpoint = 0;
    /** Bytes of payload this flit carries. */
    std::uint32_t bytes = 0;
    /**
     * The parent message, set on tail flits only (delivered to the
     * endpoint at the tail). Head and body flits carry null: a sink
     * that needs the message reads it from the tail.
     */
    ErMessagePtr msg;

    bool isHead() const
    {
        return kind == FlitKind::kHead || kind == FlitKind::kHeadTail;
    }
    bool isTail() const
    {
        return kind == FlitKind::kTail || kind == FlitKind::kHeadTail;
    }
};

/**
 * Anything that can accept flits from an ER output port.
 *
 * Delivery contract: the router hands the sink every flit, in order,
 * unless tailFlitsOnly() is true; then it hands over only tail flits
 * (a sink that acts on whole messages). Either way each flit arrives at
 * the same simulated time. The router reads tailFlitsOnly() once, when
 * the sink is attached.
 *
 * The router buffers a message's flits as a count, so each delivered
 * `Flit` is built by the grant that sends it: its kind, VC, destination
 * and byte count are those the flit was injected with, and `msg` is set
 * on the tail only. A sink may keep or re-inject the value; nothing
 * refers back into the router.
 */
class FlitSink
{
  public:
    virtual ~FlitSink() = default;
    virtual void acceptFlit(const Flit &flit) = 0;
    virtual bool tailFlitsOnly() const { return false; }
};

}  // namespace ccsim::router
