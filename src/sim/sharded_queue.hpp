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
 * serialization of the slowest-case first bit). Each round the
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
 * is at or below the window just executed (causality violation): a
 * handler posted sooner than its edge's registered latency.
 *
 * ## Barrier cost
 *
 * A window costs O(busy partitions + touched outboxes) plus one pass over
 * a contiguous array of P cached next-event times; the coordinator
 * touches no queue of a partition that has nothing to do (CCSS's rule:
 * pay for synchronization only where there is work).
 *  - *Cached heads.* Each partition's next-event time is cached, and the
 *    barrier refreshes it only for the partitions that ran in the window
 *    and those whose queue reported an edit made outside a window (a
 *    flushed cross message or a hook's event that becomes its next
 *    event, a cancel that may remove it, a run the kernel did not start;
 *    see EventQueue). One pass over the cache yields t0 and the
 *    window's busy partitions.
 *  - *Idle partitions are not run.* A partition's now() is the larger of
 *    its own clock and the end of the last window (EventQueue's floor),
 *    so after a window ending at E every partition reads now() == E, and
 *    a run first brings the clock up to it.
 *  - *Dirty-outbox flush.* Each source records the destinations whose
 *    outbox it made non-empty. Only an event posts inside a window, so
 *    the flush visits only the partitions that ran, plus a list of the
 *    posts made outside a window (at build time, by a hook or driver).
 *  - *Inline small windows.* A window in which at most one partition has
 *    an event <= E runs inline on the coordinator, and so does any window
 *    after one that ran fewer events than a handoff costs (a few
 *    microseconds of cache-line traffic; the Figure 7 chaos drill's
 *    ~27-event windows are that small).
 *
 * Otherwise the window's busy partitions are claimed, not dealt: the
 * coordinator publishes one atomic claim word (phase id, busy count,
 * next index), and it and every awake worker take partitions by
 * compare-and-swap until none is left. A worker that is asleep or
 * descheduled claims nothing, and the coordinator never waits for it: it
 * waits only for claimed partitions still running, spinning briefly and
 * then yielding its core. Workers spin briefly for the next phase before
 * sleeping on a condition variable, and are notified only when one
 * sleeps. A partition still runs its whole window on one thread, so none
 * of this changes the sequence of windows (t0, E) or anything a
 * partition computes. partitionVisits() counts the partition queues the
 * coordinator refreshed or ran: the barrier's exact work, the same at
 * every worker count.
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
     * The synchronization window (lookahead): the minimum latency over
     * registered cross edges, or kTimeNever if there are none (fully
     * independent partitions). Derived at the first run; kTimeNever
     * before it.
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
     * before the first run.
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
    /**
     * Partition queues the coordinator refreshed (re-read the next event
     * time of) or ran, summed over barriers: the barrier's exact work,
     * deterministic and independent of the worker count.
     */
    std::uint64_t partitionVisits() const { return partitionVisitCount; }

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
    int nThreads = 1;
    TimePs resolvedWindow = kTimeNever;
    TimePs floorTime = -1;  ///< all partitions have executed times <= this
    /**
     * Every partition's now() reads at least this (EventQueue's floor):
     * the end of the last bounded window. A drain leaves it, so a drained
     * partition keeps its own clock.
     */
    TimePs clockFloor = 0;
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
    std::uint64_t partitionVisitCount = 0;

    // --- coordinator scratch, reused across barriers ---
    /**
     * Per partition, its queue's next event time: exact at every scan,
     * since only the partitions in busyParts and touches can differ.
     */
    std::vector<TimePs> nextTimes;
    /**
     * Partitions the partition queues reported edited outside a window
     * since the last scan (EventQueue's touch list).
     */
    std::vector<int> touches;
    /**
     * Partitions with an event in the running (or last) window, in
     * ascending order; a threaded window hands them out by claim index.
     * Between the scan and the window, the candidates by t0's window end.
     */
    std::vector<int> busyParts;
    /** Set while a window runs; postCross() reads it. */
    bool windowRunning = false;
    /** One cross message of a flush, in merge-key form. */
    struct FlushItem {
        TimePs when;
        int src;
        std::uint64_t seq;
        EventFn *fn;
    };
    /**
     * Events the last window executed, which decides whether the next
     * one may be handed off (it starts high, so the first one may).
     */
    std::uint64_t lastWindowEvents = UINT64_MAX;
    std::vector<std::pair<int, int>> flushRoutes;  ///< touched (dst, src)
    /** (dst, src) routes posted outside a window, for the next flush. */
    std::vector<std::pair<int, int>> lateRoutes;
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
     * Run the busy partitions to @p e (or drain them all if @p drain) and
     * barrier: inline on the coordinator when at most one partition has
     * work or the last window ran too few events to hand off, otherwise
     * as a claimed phase shared with the workers.
     * @pre scanHeads() listed the candidates in busyParts.
     */
    void runWindow(TimePs e, bool drain);
    /**
     * Refresh the cached next-event times that may have changed, then
     * return t0 (kTimeNever if every partition is empty) and list in
     * busyParts the partitions with an event by t0's window end.
     */
    TimePs scanHeads();
    /** Window end from t0, saturating (kTimeNever if unbounded). */
    TimePs windowEndFor(TimePs t0) const;
    /**
     * Deliver the messages posted since the last flush; panic if any
     * violates causality. @pre busyParts lists the partitions that ran.
     */
    void flushOutboxes();
    void fireHooks(TimePs e);
};

}  // namespace ccsim::sim
