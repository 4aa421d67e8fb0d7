/**
 * @file
 * The Elastic Router (ER): an on-chip, input-buffered crossbar switch with
 * virtual channels and credit-based flow control (Section V-B).
 *
 * Faithful properties from the paper:
 *  - input-buffered crossbar, multiple VCs virtualizing each physical link;
 *  - credit-based flow control, one credit per flit;
 *  - the *elastic* buffer policy: instead of a static number of flits per
 *    VC, a pool of credits is shared among VCs (with a small per-VC
 *    reservation to avoid starvation), reducing aggregate buffering;
 *  - U-turns supported (any port may route to any port including itself);
 *  - fully parameterizable in ports, VCs, flit size, buffer capacities;
 *  - composable into larger on-chip topologies (ring, mesh) by connecting
 *    router ports with credit-tracked inter-router links.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "router/flit.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "sim/time.hpp"

namespace ccsim::router {

/** Buffer management policy (the paper's design choice vs the baseline). */
enum class CreditPolicy {
    kElastic,  ///< small per-VC reservation + shared pool (the ER design)
    kStatic,   ///< fixed flits per VC (conventional router baseline)
};

/** Static configuration of one Elastic Router. */
struct ErConfig {
    std::string name = "er";
    int numPorts = 4;
    int numVcs = 2;
    /** Flit (phit) size in bytes; 32 B = 256 b datapath. */
    std::uint32_t flitBytes = 32;
    /** Router clock; the production shell runs the ER at 175 MHz. */
    double clockMhz = 175.0;
    /** Crossbar pipeline latency in cycles (input deq to output handoff). */
    int pipelineCycles = 2;

    CreditPolicy policy = CreditPolicy::kElastic;
    /** Elastic policy: guaranteed flits per VC; at least 1. */
    int perVcReservedFlits = 4;
    /** Elastic policy: extra flits shared across VCs of one input port. */
    int sharedPoolFlits = 56;
    /** Static policy: fixed flits per VC; at least 1. */
    int staticPerVcFlits = 32;
};

/**
 * An Elastic Router instance.
 *
 * Injectors check credits with canAccept() or freeCredits() (the
 * zero-latency stand-in for the RTL credit wires), then hand over one
 * flit (injectFlit) or the next flits of a message (injectTrain), and
 * may register a credit-return callback to be woken when space frees
 * up. An input VC buffers runs of one message's flits, not flit
 * objects; grants still move one flit per cycle per output.
 */
class ElasticRouter
{
  public:
    ElasticRouter(sim::EventQueue &eq, ErConfig cfg);

    /**
     * Set the routing function: maps a destination endpoint id to the
     * output port of *this* router. Defaults to identity (endpoint id ==
     * local port), which is correct for a single-router shell. Each head
     * flit is routed once, when it reaches the front of its input VC.
     */
    void setRouteFn(std::function<int(int dst_endpoint)> fn)
    {
        routeFn = std::move(fn);
    }

    /**
     * Attach the consumer of output port @p port. A router whose routing
     * reaches an output without one panics when it arbitrates for it.
     */
    void setOutputSink(int port, FlitSink *sink);

    /**
     * Limit the rate at which output @p port drains (flits/cycle <= 1 is
     * implicit; this adds extra cycles between flits, modelling a slower
     * endpoint such as the DRAM controller).
     */
    void setOutputCyclesPerFlit(int port, int cycles);

    /** True if input @p port / @p vc has a credit for one more flit. */
    bool canAccept(int port, int vc) const
    {
        return freeCredits(port, vc) > 0;
    }

    /**
     * Flits input @p port / @p vc accepts right now, one credit each:
     * the VC's unused reservation plus the port's unused shared pool
     * (elastic), or the VC's unused fixed buffer (static).
     */
    int freeCredits(int port, int vc) const;

    /**
     * Inject a flit into input @p port. A body or tail flit continues
     * the message at the back of its VC.
     *
     * @pre canAccept(port, flit.vc). Violations panic: the endpoint did
     *      not respect credit flow control.
     */
    void injectFlit(int port, Flit flit);

    /**
     * Inject @p flits consecutive flits of @p msg, starting with flit
     * @p first of its flitCount(), into input @p port on msg->vc. The
     * same as that many injectFlit() calls with the flits the message
     * segments into; the message is kept once the train holds its tail.
     *
     * @pre 0 < flits <= freeCredits(port, msg->vc); violations panic.
     */
    void injectTrain(int port, const ErMessagePtr &msg, std::uint32_t first,
                     int flits);

    /**
     * Register a callback fired whenever a credit frees at @p port
     * while the port is waiting (endpoint uses it to resume a stalled
     * injection queue).
     */
    void setCreditReturnFn(int port, std::function<void(int vc)> fn);

    /**
     * Whether the injector at @p port has flits queued for credits; the
     * credit-return callback fires only while it has. setCreditReturnFn
     * makes a port wait, so an injector that never clears this hears
     * every credit.
     */
    void setCreditWaiting(int port, bool waiting)
    {
        inputs[port].creditWaiting = waiting;
    }

    const ErConfig &config() const { return cfg; }

    /**
     * Export statistics under `router.<node>.*`: probes for the aggregate
     * stats plus per-port counters `router.<node>.port<p>.flits_in`,
     * `.flits_out` and `.credit_stalls`. Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o, const std::string &node);

    /**
     * Record that an endpoint on @p port had flits queued but no credit
     * (called by ErEndpoint::pump; a no-op unless observability is
     * attached).
     */
    void noteCreditStall(int port);

    // --- statistics ---
    std::uint64_t flitsRouted() const { return statFlitsRouted; }
    std::uint64_t messagesRouted() const { return statTails; }
    /** Cycles during which the router had buffered flits (activity). */
    std::uint64_t busyCycles() const { return statBusyCycles; }
    /** Peak total buffered flits across all inputs (sizing metric). */
    int peakBufferedFlits() const { return statPeakBuffered; }

  private:
    /** Consecutive buffered flits of one message. */
    struct Run {
        /** The message, set once the run holds its tail. */
        ErMessagePtr msg;
        int dstEndpoint = 0;
        int flits = 0;             ///< flits buffered, at least one
        bool headAtFront = false;  ///< the front flit is the head
        bool tailAtBack = false;   ///< the back flit is the tail
        std::uint32_t bodyBytes = 0;  ///< bytes of each non-tail flit
        std::uint32_t tailBytes = 0;
    };
    struct InputVc {
        sim::Fifo<Run> runs;
        int occupancy = 0;  ///< flits buffered over all runs
        /** Output port locked by the in-flight message, or -1. */
        int lockedOutput = -1;
    };
    struct InputPort {
        std::vector<InputVc> vcs;
        int sharedUsed = 0;  ///< flits drawn from the shared pool
        /** Cycle this input last sent a flit (one flit per cycle). */
        sim::TimePs grantedAt = -1;
        std::function<void(int)> creditReturn;
        bool creditWaiting = false;
    };
    struct OutputPort {
        FlitSink *sink = nullptr;
        bool tailFlitsOnly = false;  ///< sink->tailFlitsOnly(), cached
        int cyclesPerFlit = 1;
        sim::TimePs nextFree = 0;  ///< earliest next flit departure time
        /** Which input owns each VC of this output (wormhole), or -1. */
        std::vector<int> vcOwner;
        int rrPointer = 0;  ///< round-robin arbitration state
    };

    sim::EventQueue &queue;
    ErConfig cfg;
    sim::TimePs cyclePs;
    std::function<int(int)> routeFn;
    std::vector<InputPort> inputs;
    std::vector<OutputPort> outputs;

    /** A tick event is posted for the next cycle boundary. */
    bool tickPosted = false;

    /**
     * Arbitration candidates: bit (input * numVcs + vc) of output o's
     * mask (words [o * slotWords, (o + 1) * slotWords)) is set while that
     * input VC's front run targets o. activeOutputs has bit o set while
     * o's mask is non-empty.
     */
    int slots = 0;
    int slotWords = 0;
    std::vector<int> slotInput;  ///< slot / numVcs, without a division
    std::vector<std::uint64_t> candidates;
    std::vector<std::uint64_t> activeOutputs;
    int candidateCount = 0;  ///< bits set over all outputs' masks

    /** Registry-owned per-port counters (null when not attached). */
    std::vector<sim::Counter *> obsFlitsIn;
    std::vector<sim::Counter *> obsFlitsOut;
    std::vector<sim::Counter *> obsCreditStalls;
    obs::FlightRecorder *flowRec = nullptr;
    std::string obsHop;  ///< "router.<node>"

    std::uint64_t statFlitsRouted = 0;
    std::uint64_t statTails = 0;
    std::uint64_t statBusyCycles = 0;
    int statPeakBuffered = 0;
    int totalBuffered = 0;

    /** Post a tick at the next cycle boundary unless one is posted. */
    void scheduleTick();
    /** The tick event: one cycle, and the next one while flits remain. */
    void tick();
    /**
     * At the start of a cycle with exactly one candidate, whose output
     * takes tail flits only at one flit per cycle and whose injector
     * waits for no credit: grant the front run's flits short of its last
     * one, one per cycle until the queue's next event or run limit, in
     * one step. Each of those cycles would grant that flit and change
     * nothing else, so counters, credits and the event count
     * (EventQueue::advanceIfIdle(t, n)) match the per-cycle path.
     */
    void crossTrain();
    /**
     * Grant output @p out_idx to candidate @p slot if it may send now:
     * one flit leaves the front run of that input VC.
     */
    bool tryGrant(int out_idx, int slot, sim::TimePs now);
    /**
     * Buffer @p flits flits on @p port / @p vc, the first a head if
     * @p head: a new run, or more of the back run when they continue
     * its message. Debits credits; the caller then fills in the run's
     * tail and calls admitted().
     */
    Run &admit(int port, int vc, int flits, bool head, int dst_endpoint);
    /** Arm arbitration and the clock after admit() took @p flits. */
    void admitted(int port, int vc, int flits);
    /** Route the new front run of @p port / @p vc into a candidate set. */
    void addCandidate(int port, int vc);
    /** Drop candidate @p slot from output @p out_idx once its run left. */
    void removeCandidate(int out_idx, int slot);
    void releaseCredit(int port, int vc);
    int routeOf(int dst_endpoint) const;
};

/**
 * Helper modelling one endpoint attached to an ER port: injects messages
 * as flit trains under credit flow control (queueing what does not fit),
 * receives reassembled messages at their tails, and hands them to a
 * handler.
 */
class ErEndpoint : public FlitSink
{
  public:
    /**
     * @param eq        Event queue.
     * @param router    The ER this endpoint attaches to.
     * @param port      Port index on @p router.
     * @param endpoint_id Global endpoint id used for routing.
     */
    ErEndpoint(sim::EventQueue &eq, ElasticRouter &router, int port,
               int endpoint_id);

    /** Handler invoked when a complete message arrives. */
    void setMessageHandler(std::function<void(const ErMessagePtr &)> h)
    {
        handler = std::move(h);
    }

    /**
     * Send a message (asynchronously segmented and injected under credit
     * flow control). @p trace tags the message with an existing flow
     * context for span recording across the crossbar.
     */
    void sendMessage(int dst_endpoint, int vc, std::uint32_t size_bytes,
                     std::shared_ptr<void> payload = nullptr,
                     obs::TraceContext trace = {});

    /** Send a pre-built message. */
    void sendMessage(const ErMessagePtr &msg);

    void acceptFlit(const Flit &flit) override;
    /** Messages are reassembled at the tail, so only tails are needed. */
    bool tailFlitsOnly() const override { return true; }

    int portIndex() const { return port; }
    /** Flits waiting for credits across all VCs. */
    std::size_t backlogFlits() const;

  private:
    sim::EventQueue &queue;
    ElasticRouter &er;
    int port;
    int id;
    std::function<void(const ErMessagePtr &)> handler;

    /** A message whose last @p flitsLeft flits await credits. */
    struct Pending {
        ErMessagePtr msg;
        std::uint32_t flitsLeft = 0;
    };
    /** Messages awaiting credits, FIFO per VC. */
    std::vector<sim::Fifo<Pending>> pending;
    std::uint64_t nextMsgId = 1;

    /** Inject as many pending flits of @p vc as there are credits. */
    void pump(int vc);
};

}  // namespace ccsim::router
