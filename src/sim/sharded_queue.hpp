/**
 * @file
 * Conservative parallel discrete-event kernel: per-partition EventQueues
 * advanced in lockstep barrier windows.
 *
 * ## Model
 *
 * A `ShardedEventQueue` owns P *partitions* (logical processes), each a
 * full sequential `EventQueue`. The partition structure is fixed by the
 * *topology* (in ccsim, one partition per pod plus one for the spine),
 * while the number of *worker threads* T is an independent execution
 * parameter: within a window each partition runs on exactly one thread
 * (see "Barrier cost" for which), and every partition's event stream is
 * executed strictly sequentially. All nondeterminism from thread
 * scheduling is therefore confined to *which
 * wall-clock instant* a partition's window executes — never to the order
 * of events inside a partition, and never to the order cross-partition
 * messages are delivered (see below). The same master seed produces
 * byte-identical results at T = 1, 2, 4, 8, ...
 *
 * ## Conservative synchronization
 *
 * Partitions may interact only through cross-partition *channels*
 * registered up front via registerCrossEdge(src, dst, minLatency). The
 * *lookahead* W is the minimum registered latency (propagation +
 * serialization of the slowest-case first bit), or an explicit
 * Config::window no larger than every edge's latency. Each round the
 * coordinator computes
 *
 *     t0 = min over partitions of next-event-time
 *     E  = min(limit, t0 + W - 1, next barrier-hook deadline)
 *
 * and lets every partition run runUntil(E) in parallel. Any message a
 * partition emits while executing the window carries a timestamp
 * >= send-time + W >= t0 + W > E, so it cannot affect the window being
 * computed — the classic conservative-PDES invariant (cf. CCSS's
 * combinational-compute / sequential-sync split: partitions advance
 * freely between synchronization points whose spacing is derived from
 * physical signal-propagation delay).
 *
 * Cross messages are buffered in per-(src, dst) outboxes during the
 * window and flushed at the barrier, sorted by (when, src partition,
 * per-src sequence) — a total order independent of thread count — then
 * scheduled into the destination queue in that order so the queue's FIFO
 * tie-break preserves it. The flush panics if any message's timestamp
 * is at or below the window just executed (causality violation), and
 * registerCrossEdge rejects any edge whose latency is below the
 * configured window (sub-lookahead links are a configuration error).
 *
 * ## Barrier cost
 *
 * A window costs O(touched outboxes + partitions), with a per-partition
 * term of a few loads, not O(P^2): each source records the destinations
 * whose outbox it made non-empty, so the flush visits only those (src,
 * dst) pairs; the queues cache an exact next-event time, so the t0 scan
 * and an idle partition's runUntil(E) are O(1); a window in which at
 * most one partition has an event <= E runs inline on the coordinator,
 * and so does any window after one that ran fewer events than a handoff
 * costs (a few microseconds of cache-line traffic; the Figure 7 chaos
 * drill's ~27-event windows are that small).
 * Otherwise the window's busy partitions are claimed, not dealt: the
 * coordinator publishes one atomic claim word (phase id, busy count,
 * next index), and it and every awake worker take partitions by
 * compare-and-swap until none is left. A worker that is asleep or
 * descheduled claims nothing, and the coordinator never waits for it:
 * after advancing the idle partitions itself (keeping their cache lines
 * on its core), it waits only for claimed partitions still running,
 * spinning briefly and then yielding its core. Workers spin briefly for
 * the next phase before sleeping on a condition variable, and are
 * notified only when one sleeps. A partition still runs its whole window
 * on one thread, so none of this changes the sequence of windows
 * (t0, E) or anything a partition computes.
 *
 * ## Barrier hooks
 *
 * Observability sampling must happen at deterministic simulated times,
 * not at thread-dependent moments; atBarrier() registers a hook that is
 * invoked at every barrier with the window end E, and whose returned
 * "next deadline" bounds future windows so the hook fires exactly at
 * its requested times. Metrics flush is lock-free in the sense that the
 * parallel phase takes no locks: each partition mutates only its own
 * registry shard, and the barrier (every claimer counts its finished
 * partitions with a release increment that the coordinator acquires)
 * publishes those writes to the coordinator before hooks read them.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ccsim::sim {

/**
 * A set of sequential EventQueues advanced in conservative barrier
 * windows by a pool of worker threads. See file doc for the model.
 *
 * Thread contract: construction, configuration (registerCrossEdge,
 * atBarrier), run*(), and partition() access happen on the owning
 * ("coordinator") thread. postCross() may be called from partition
 * event handlers while a window is executing (each source partition's
 * outbox row is owned by the worker running that partition).
 */
class ShardedEventQueue
{
  public:
    struct Config {
        /** Number of logical processes (fixed by topology). */
        int partitions = 1;
        /**
         * Worker threads. 1 = run every partition inline on the
         * coordinator thread (no threads spawned, no synchronization).
         * Clamped to `partitions`.
         */
        int threads = 1;
        /**
         * Synchronization window (lookahead) in ps. 0 = derive
         * automatically as the minimum latency over registered cross
         * edges (unbounded if none, i.e. fully independent partitions).
         * An explicit value must be <= every registered edge latency.
         */
        TimePs window = 0;
    };

    /**
     * One partition, no worker threads: the kernel of a single-queue
     * simulation. Its lone window runs to the next run limit, hook
     * deadline or requested barrier, so it pays no lookahead barriers.
     */
    ShardedEventQueue();
    explicit ShardedEventQueue(Config cfg);
    ShardedEventQueue(const ShardedEventQueue &) = delete;
    ShardedEventQueue &operator=(const ShardedEventQueue &) = delete;
    ~ShardedEventQueue();

    /** Number of partitions (logical processes). */
    int partitionCount() const { return static_cast<int>(parts.size()); }
    /** Number of worker threads (after clamping). */
    int threadCount() const { return nThreads; }

    /**
     * The resolved synchronization window, or kTimeNever if unbounded
     * (no cross edges). Before the first run this reflects the explicit
     * Config::window only; the automatic derivation happens at first
     * run.
     */
    TimePs window() const { return resolvedWindow; }

    /** Barrier time: every partition has executed all events <= now(). */
    TimePs now() const { return floorTime < 0 ? 0 : floorTime; }

    /** Direct access to partition @p p's sequential queue. */
    EventQueue &partition(int p);

    /** Read-only partition access (for observability probes). */
    const EventQueue &partition(int p) const;

    /**
     * Declare that partition @p src may post cross events to partition
     * @p dst with delivery latency >= @p minLatency. Must be called
     * before the first run; panics if @p minLatency is below an
     * explicit Config::window (sub-lookahead link).
     */
    void registerCrossEdge(int src, int dst, TimePs minLatency);

    /**
     * Post a cross-partition event: run @p fn on partition @p dst's
     * queue at absolute time @p when. Requires a registered (src, dst)
     * edge. Callable from @p src's event handlers during a window;
     * delivery happens at the next barrier. Panics on a causality
     * violation (@p when not strictly after the current window).
     */
    void postCross(int src, int dst, TimePs when, EventFn fn);

    /**
     * A barrier hook: called at every barrier with the window end E
     * (all partitions have executed exactly the events with time <= E).
     * Returns the next simulated time at which it must observe a
     * barrier, or kTimeNever for "no deadline". Window ends are bounded
     * by hook deadlines, so a hook returning t is next invoked with
     * E == t (unless the run limit intervenes first).
     */
    using BarrierHook = std::function<TimePs(TimePs)>;

    /** Register @p hook with its first deadline (kTimeNever = none). */
    void atBarrier(BarrierHook hook, TimePs firstDeadline = kTimeNever);

    /**
     * Request a one-shot extra barrier at simulated time @p t: some
     * runUntil() window will end exactly at @p t (clamped to now() + 1 if
     * already past), at which point every registered barrier hook fires
     * with E == t. This is how barrier-scheduled actions (fault
     * injection, chaos phases) land at exact simulated times on any
     * worker count. Both runUntil() and runAll() honor it. Callable
     * from barrier hooks and between runs on the coordinator thread.
     */
    void requestBarrier(TimePs t);

    /**
     * Run windows until every partition has executed all events with
     * time <= @p limit; afterwards now() == limit. Deterministic for a
     * given (partition contents, edges, hooks, limit) regardless of
     * thread count.
     */
    void runUntil(TimePs limit);

    /** Run windows for @p duration of simulated time from now(). */
    void runFor(TimePs duration) { runUntil(now() + duration); }

    /**
     * Run windows until every partition drains and no requestBarrier()
     * deadline is pending. One-shot deadlines bound windows exactly as
     * in runUntil(); periodic hook deadlines do not (a forever-
     * rescheduling sampler would prevent termination), but hooks still
     * fire at each barrier.
     */
    void runAll();

    // --- kernel accounting (exported as sim.shard.* probes) ---

    /** Barrier windows executed so far. */
    std::uint64_t windowsRun() const { return windowsRunCount; }
    /** Cross-partition messages delivered so far. */
    std::uint64_t crossMessages() const { return crossMessageCount; }
    /** Events executed, summed over partitions. */
    std::uint64_t eventsExecuted() const;

  private:
    struct CrossMsg {
        TimePs when;
        std::uint64_t seq;  ///< per-source post order; tie-break key
        EventFn fn;
    };

    /**
     * One logical process. The queue and outbox row are written only by
     * the worker that owns this partition during a window, and only by
     * the coordinator between windows.
     */
    struct Partition {
        EventQueue eq;
        std::vector<std::vector<CrossMsg>> outbox;  ///< indexed by dst
        /** Destinations whose outbox went non-empty since the last flush. */
        std::vector<int> dirty;
        std::uint64_t crossSeq = 0;
    };

    std::vector<std::unique_ptr<Partition>> parts;
    std::vector<std::vector<TimePs>> edgeLatency;  ///< [src][dst], 0 = none
    Config config;
    int nThreads = 1;
    TimePs resolvedWindow = kTimeNever;
    TimePs floorTime = -1;  ///< all partitions have executed times <= this
    bool started = false;

    struct Hook {
        BarrierHook fn;
        TimePs deadline;
    };
    std::vector<Hook> hooks;

    /** One-shot extra barrier deadlines (requestBarrier), a min-heap. */
    std::priority_queue<TimePs, std::vector<TimePs>, std::greater<TimePs>>
        extraDeadlines;

    std::uint64_t windowsRunCount = 0;
    std::uint64_t crossMessageCount = 0;

    // --- coordinator scratch, reused across barriers ---
    std::vector<TimePs> nextTimes;  ///< per partition, from the t0 scan
    /**
     * Partitions with an event in the running window, in ascending
     * order; a threaded window hands them out by claim index.
     */
    std::vector<int> busyParts;
    /** One cross message of a flush, in merge-key form. */
    struct FlushItem {
        TimePs when;
        int src;
        std::uint64_t seq;
        EventFn *fn;
    };
    /**
     * Events the last window executed, which decides whether the next
     * one may be handed off (it starts high, so the first one may), and
     * the partitions' executed-event total at that window's end.
     */
    std::uint64_t lastWindowEvents = UINT64_MAX;
    std::uint64_t executedTotal = 0;
    std::vector<std::pair<int, int>> flushRoutes;  ///< touched (dst, src)
    std::vector<FlushItem> flushItems;  ///< one destination's messages

    // --- worker pool (empty when nThreads == 1) ---
    /**
     * The running phase's claim word: phase id in bits 32-63, busy
     * partition count in bits 16-31 and the next unclaimed index into
     * busyParts in bits 0-15. The coordinator publishes a phase by
     * storing it (after writing busyParts, phaseEnd and phaseDrain); a
     * thread claims busyParts[next] by advancing `next` with a
     * compare-and-swap of the whole word, and reads the phase data only
     * after its claim succeeds. A new phase id is what a waiting worker
     * waits for.
     */
    alignas(64) std::atomic<std::uint64_t> claimWord{0};
    /** Claimed partitions of the running phase that finished it. */
    alignas(64) std::atomic<std::uint32_t> claimsDone{0};
    std::uint32_t phaseId = 0;  ///< coordinator's last published phase
    TimePs phaseEnd = 0;
    bool phaseDrain = false;  ///< runAll() phase: drain instead of runUntil
    int spinLimit = 0;  ///< handoff spin iterations before blocking
    /**
     * Sleep/wake handshake: a worker that has spun out registers in
     * `sleepers` under `mu` and waits on `cvWake` for a new phase id or
     * shutdown; the coordinator notifies only when `sleepers` is
     * non-zero.
     */
    std::mutex mu;
    std::condition_variable cvWake;
    std::atomic<int> sleepers{0};
    std::atomic<bool> shutdown{false};
    std::vector<std::thread> workers;

    void start();
    void workerLoop();
    /** Events executed so far by the partitions in busyParts. */
    std::uint64_t busyEvents() const;
    /** Claim and run busy partitions until none is left unclaimed. */
    void runClaims();
    /**
     * Run every partition to @p e (or drain if @p drain) and barrier:
     * inline on the coordinator when at most one partition has work or
     * the last window ran too few events to hand off, otherwise as a
     * claimed phase shared with the workers.
     * @pre nextTimes is current (minNextEventTime ran since the last
     * change to any partition).
     */
    void runWindow(TimePs e, bool drain);
    /**
     * Min next-event time across partitions (kTimeNever if all empty);
     * also refreshes nextTimes.
     */
    TimePs minNextEventTime();
    /** Window end from t0, saturating (kTimeNever if unbounded). */
    TimePs windowEndFor(TimePs t0) const;
    /** Deliver all outbox messages; panic if any violates causality. */
    void flushOutboxes();
    void fireHooks(TimePs e);
};

}  // namespace ccsim::sim
