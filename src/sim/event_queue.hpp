/**
 * @file
 * The discrete-event scheduler at the heart of ccsim.
 *
 * Events are closures scheduled at absolute simulated times. Ties are broken
 * by scheduling order (FIFO among same-time events), which makes simulations
 * fully deterministic.
 *
 * `EventQueue` is a **TimerWheelQueue**: a hierarchical timing wheel
 * tuned for ccsim's bimodal delay distribution (sub-ns flit/link hops
 * vs. multi-µs LTL retransmit timers): 9 levels of 64 slots with
 * 4.096 ns level-0 slots, all anchored at one wheel time, whose top
 * level covers every time, freelist-pooled event records, inline
 * small-buffer closures (sim::EventFn), and generation-counted handles
 * giving O(1) cancel() that destroys the closure — and releases
 * everything it captured — immediately. A sorted head list of up to 16
 * events in front of the wheel runs the events of a sparse queue, and an
 * event that is the earliest from birth, without ever parking them in
 * the wheel.
 *
 * The property tests check it against the original binary-heap queue
 * (tests/binary_heap_queue.hpp): both execute events in exactly the same
 * order ((time, schedule-order) ascending) and report identical
 * now()/size() trajectories for identical schedule/cancel/run call
 * sequences.
 *
 * Every executed event runs through one dispatch call (fire()) from a
 * run loop; no callback runs another event in place. The one shortcut,
 * run-ahead (advanceIfIdle()), moves the clock over cycles in which
 * nothing else is due and counts them as executed events, running no
 * closure.
 *
 * A partition of a ShardedEventQueue reads the kernel's barrier floor in
 * now() and reports edits made outside the kernel's windows (see "As a
 * sharded partition" below).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/logging.hpp"
#include "sim/time.hpp"

namespace ccsim::sim {

class ShardedEventQueue;

/** Opaque handle to a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel EventId meaning "no event". */
inline constexpr EventId kNoEvent = 0;

/**
 * A deterministic discrete-event queue backed by a hierarchical timing
 * wheel.
 *
 * Not thread-safe; a simulation runs on one thread (experiments fan out by
 * running independent simulations in separate processes or threads with
 * separate EventQueues).
 *
 * ## Microarchitecture
 *
 * Scheduled events live in a freelist-backed pool of fixed records
 * (absolute time, monotone sequence number for FIFO tie-break, a
 * generation counter, and the inline-SBO closure). Up to kHeadCap of
 * them sit in the head list; the wheel stores only 32-bit pool indices of
 * the rest, which are *parked*:
 *
 *  - the head list holds up to kHeadCap = 16 events unparked, as
 *    (when, seq, index) entries sorted latest first, so the earliest is
 *    the last entry. A newly scheduled event below the cached lower bound
 *    on the parked events enters it by insertion from the end: a chain
 *    link, the new earliest event, is one compare and an append. When the
 *    list is full, a new event that precedes its latest entry evicts that
 *    entry to the wheel; any other new event, and every event at or past
 *    the bound, is parked at once. Dispatch compares the last entry with
 *    the parked head in (when, seq) order and, when the entry comes first,
 *    runs its event without touching the wheel. So a queue of at most 16
 *    live events never parks at all, nor does a chain of events that each
 *    schedule the next earliest one; a dense workload, whose new events
 *    land behind a parked head, rarely uses the list.
 *  - 9 levels × 64 slots; level L slots are 2^(12+6L) ps wide: 4.096 ns
 *    at level 0, 262 ns at level 1, 16.8 µs at level 2, 1.07 ms at
 *    level 3, 5.0 h at level 7 and 2^60 ps (≈ 13.3 simulated days) at
 *    level 8, whose span is all of time: every time has a level, and
 *    the top level's span starts at 0. Sub-slot order is restored by
 *    sorting a level-0 slot when it is drained, which is cheap because
 *    slots are short at this width.
 *  - every level is anchored at one wheel time, which never passes
 *    now() nor any listed event's time. An event goes to the level of
 *    the highest 6-bit group (time bits 12+6L to 17+6L) in which its time
 *    differs from the wheel time, into the slot its time names at that
 *    level. So a level-L event sits strictly ahead of the wheel time's
 *    own level-L slot, no level wraps, and the first occupied slot (a
 *    find-first-set on the level's 64-bit occupancy bitmap) of the
 *    lowest occupied level holds the earliest events. A 50 µs LTL timer
 *    lands in level 2, or in level 3 when it crosses a 1.07 ms boundary.
 *  - taking the parked head moves the wheel time to the start of the
 *    level-0 slot of that first slot's earliest event and re-places the
 *    slot's events at lower levels, so the earliest one reaches level 0
 *    in one step. A slot whose events all share one level-0 slot —
 *    every level-0 slot, and a lone timer at any level — goes straight
 *    into the sorted due buffer instead. While the list is not empty
 *    the parked head is located no further than its earliest entry's
 *    time, so an evicted entry can always be parked.
 *  - listed events move the clock but not the wheel time, so a park
 *    first brings the wheel time up to now() when that moves no parked
 *    event to another level: no parked event is then in the clock's slot
 *    at any level, or in a slot before it.
 *  - a lower bound on the parked head's time is cached (`parkedBound`),
 *    so a listed event below it runs in O(1). Taking a parked head
 *    raises it to the due buffer's next entry, or to the start of the
 *    first occupied slot. A parked head past the limit is bounded by the
 *    start of its slot without scanning the slot; only an exact peek
 *    (nextEventTime()) scans it.
 *  - nextEventTime() and a runUntil() that stops short of the next
 *    event never move the wheel time past now(), so every event
 *    scheduled afterwards, at any time >= now(), still finds its level.
 *
 * cancel() checks the handle's generation against the pool record and,
 * when live, destroys the closure in place: O(1), no heap walk, and any
 * captured PacketPtr / connection state is released at cancel time
 * rather than when the tombstone is lazily popped. A listed event is
 * removed from the list and freed outright, so the list holds no
 * tombstones. Dead records whose index is still parked in a slot
 * are reclaimed when the slot drains, or by a bulk sweep when tombstones
 * outnumber live events.
 *
 * ## As a sharded partition
 *
 * A ShardedEventQueue runs only the partitions with an event in a window,
 * so an idle partition's own clock stays where its last run left it.
 * now() is therefore the larger of that clock and the kernel's *floor*,
 * the end of its last bounded window (for a standalone queue, the clock
 * itself): hooks and drivers read now() == E on every partition after a
 * window ending at E, scheduleAfter() counts from E, and schedule()
 * below E panics. A run (runUntil(), runAll(), step()) first brings the
 * clock up to the floor.
 *
 * The kernel caches each partition's nextEventTime() and refreshes it
 * only for the partitions it ran and those on its touch list. While the
 * kernel is not running this queue, the first edit that can move the next
 * event time adds the queue's index to that list, once between two
 * refreshes. Such an edit is a new event that becomes the head list's
 * earliest entry below the parked bound, a cancel of that earliest entry
 * or of a parked event at or below the parked bound, or a run the kernel
 * did not start. Any other new event is listed or parked at or after the
 * cached time, and an eviction moves a listed event to the wheel, so
 * neither can move it.
 */
class TimerWheelQueue
{
  public:
    TimerWheelQueue();
    TimerWheelQueue(const TimerWheelQueue &) = delete;
    TimerWheelQueue &operator=(const TimerWheelQueue &) = delete;
    ~TimerWheelQueue();

    /** Current simulated time: the clock, never below the floor. */
    TimePs now() const { return std::max(currentTime, *floor); }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @pre when >= now() (events cannot be scheduled in the past).
     * @return A handle usable with cancel().
     */
    EventId schedule(TimePs when, EventFn fn);

    /** Schedule @p fn to run @p delay after the current time. */
    EventId scheduleAfter(TimePs delay, EventFn fn)
    {
        return schedule(now() + delay, std::move(fn));
    }

    /**
     * Cancel a previously scheduled event.
     *
     * O(1). The closure (and everything it captured) is destroyed
     * immediately. Cancelling an already-fired or already-cancelled
     * event is a no-op.
     */
    void cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Number of live (scheduled, uncancelled, unfired) events. */
    std::size_t size() const { return liveCount; }

    /**
     * Run the single next event.
     *
     * @return false if the queue was empty (time does not advance).
     */
    bool step();

    /**
     * Run events until simulated time exceeds @p limit or the queue drains.
     *
     * Events scheduled exactly at @p limit are executed. After returning,
     * now() == min(limit, time of last event) unless the queue drained
     * early, and is clamped up to @p limit so subsequent scheduling is
     * relative to the horizon.
     */
    void runUntil(TimePs limit);

    /** Run events for @p duration of simulated time from now(). */
    void runFor(TimePs duration) { runUntil(now() + duration); }

    /** Run until the queue is completely drained. */
    void runAll();

    /**
     * Run ahead: move now() to @p t in place of running an event at
     * @p t, when that event would be the very next one the current run
     * executes. A component calls this from its own callback to take
     * @p n cycles at once without a queue round trip.
     *
     * Succeeds only if no live event is at or before @p t (strictly
     * nextEventTime() > t) and @p t lies within the current run: at or
     * before runUntil()'s limit, anywhere inside runAll(), never inside
     * step() or outside a run. On success it counts as @p n executed
     * events, so eventsExecuted() matches a run that scheduled the event
     * at @p t and the @p n - 1 events that ran ahead to it (a component
     * taking n cycles at once passes n).
     *
     * @pre t >= now(), n >= 1.
     * @return true if now() moved to @p t.
     */
    bool advanceIfIdle(TimePs t, std::uint64_t n)
    {
        if (t < currentTime)
            pastRunAhead(t);
        // The event at `t` would run next exactly when nothing is due by
        // `t` (an event at `t` itself was scheduled earlier, so it runs
        // first) and the run would still take it.
        if (t > runLimit ||
            (std::min(parkedBound, headWhen) <= t && nextEventTime() <= t))
            return false;
        currentTime = t;
        executedCount += n;
        return true;
    }

    /**
     * The latest time advanceIfIdle() may move to right now: just before
     * the next live event, and at or before the current run's limit.
     * Below now() outside a run and inside step().
     */
    TimePs runAheadHorizon()
    {
        return std::min(runLimit, nextEventTime() - 1);
    }

    /**
     * Timestamp of the next live event without executing it, or
     * kTimeNever if the queue is empty.
     *
     * Used by ShardedEventQueue to compute conservative sync windows, so
     * it is O(1) whenever the cached parked bound is exact or the head
     * list's earliest entry precedes it (see `parkedBound`). Not const:
     * otherwise it reads the head's slot, which reclaims tombstones and
     * may re-place slots that start by now(), but it never moves the
     * wheel time past now() and the observable (time, seq) order is
     * unchanged.
     */
    TimePs nextEventTime()
    {
        // A listed event at or below the parked bound is the next event.
        if (!parkedExact && parkedBound < headWhen)
            refreshParked();
        return std::min(parkedBound, headWhen);
    }

    // --- kernel-health accounting (exported as sim.queue.* probes) ---

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executedCount; }
    /** Total number of events cancelled so far. */
    std::uint64_t eventsCancelled() const { return cancelledCount; }
    /**
     * Events parked at the top wheel level: those past the aligned
     * 2^60 ps (≈ 13.3 simulated days) span holding the wheel time.
     */
    std::uint64_t wheelOverflows() const { return overflowCount; }
    /** Highest number of simultaneously live events seen. */
    std::size_t peakLiveEvents() const { return peakLive; }
    /** Events that ran from the head list, never parked in the wheel. */
    std::uint64_t eventsBypassed() const { return bypassCount; }

  private:
    friend class ShardedEventQueue;

    // Wheel geometry. Level L slots are 2^(kSlotShift0 + 6L) ps wide.
    static constexpr int kLevels = 9;
    static constexpr int kSlotBits = 6;
    static constexpr int kSlots = 1 << kSlotBits;           // 64
    static constexpr int kSlotShift0 = 12;                  // 4.096 ns
    static constexpr int shiftOf(int level)
    {
        return kSlotShift0 + kSlotBits * level;
    }
    /**
     * The start of slot @p slot of @p level in the span of that level
     * holding the wheel time. Two shifts, because one by the top level's
     * 66-bit span would be undefined; they make that span start at 0.
     */
    TimePs slotStart(int level, int slot) const
    {
        const TimePs span = (wheelTime >> shiftOf(level)) >> kSlotBits;
        return ((span << kSlotBits) | slot) << shiftOf(level);
    }

    /** A record's state; kLive and kListed records are live events. */
    enum class SlotState : std::uint8_t { kFree, kLive, kListed, kDead };

    /** A pooled event record; wheel cells hold 32-bit indices into it. */
    struct Record {
        TimePs when = 0;
        std::uint64_t seq = 0;   ///< schedule order, FIFO tie-break
        std::uint32_t gen = 0;   ///< bumped on reuse; validates handles
        SlotState state = SlotState::kFree;
        EventFn fn;
    };

    std::vector<Record> pool;
    std::vector<std::uint32_t> freeList;
    std::vector<std::uint32_t> cells[kLevels][kSlots];
    std::uint64_t occupied[kLevels] = {};  ///< bit s: cells[L][s] non-empty
    /**
     * The anchor of every level (see the class comment): never above a
     * pending event, and never above now() when a callback runs or a
     * call returns.
     */
    TimePs wheelTime = 0;
    /** A re-placed cell's entries; a member so its buffer is reused. */
    std::vector<std::uint32_t> scratch;

    /**
     * The level-0 slot currently being drained, as packed (when, seq, idx)
     * entries sorted by (when, seq). Packing the sort key next to the
     * index keeps the drain sort cache-local instead of chasing pool
     * records, and lets the common already-in-order slot skip the sort.
     */
    struct DueEntry {
        TimePs when;
        std::uint64_t seq;
        std::uint32_t idx;
    };
    std::vector<DueEntry> due;
    std::size_t duePos = 0;
    std::int64_t dueSlotAbs = -1;  ///< absolute level-0 slot of `due`, or -1

    TimePs currentTime = 0;
    /**
     * The latest time advanceIfIdle() may move to: the limit of the
     * runUntil() or runAll() in progress, or kNoRunAhead outside a run
     * and inside step().
     */
    static constexpr TimePs kNoRunAhead = -1;
    TimePs runLimit = kNoRunAhead;
    /** The head list's earliest time; kTimeNever while it is empty. */
    TimePs headWhen = kTimeNever;
    int headSize = 0;  ///< entries in `head`
    /**
     * A lower bound on the earliest parked live event's time (kTimeNever:
     * none), equal to it while `parkedExact` holds. Parking lowers it and,
     * when it does, makes it exact; taking the parked head raises it to
     * what is left in the due buffer or the wheel, inexact; cancelling a
     * parked event at or below the bound clears exactness. Locating the
     * parked head records its time, or, when it lies past the limit, the
     * start of its slot; refreshParked() makes the bound exact. With
     * `headWhen` it bounds the next event, so runUntil(limit) below both
     * returns in O(1), and a listed event below it runs in O(1).
     */
    TimePs parkedBound = kTimeNever;
    bool parkedExact = true;
    std::uint64_t nextSeq = 1;
    std::size_t liveCount = 0;
    std::size_t peakLive = 0;
    std::size_t deadParked = 0;  ///< cancelled records still parked in cells
    std::uint64_t executedCount = 0;
    std::uint64_t cancelledCount = 0;
    std::uint64_t overflowCount = 0;
    std::uint64_t bypassCount = 0;
    /** The most events the head list holds. */
    static constexpr int kHeadCap = 16;
    /**
     * The head list: `headSize` live records that are not parked (state
     * kListed), sorted latest first by (when, seq), so that the earliest
     * is `head[headSize - 1]`. Left uninitialised: only the first
     * `headSize` entries are ever read.
     */
    DueEntry head[kHeadCap];

    // --- sharded partition state, set by the owning ShardedEventQueue ---
    /**
     * now() never reads below this: the owner's last window end for a
     * partition, this queue's own clock when standalone.
     */
    const TimePs *floor = &currentTime;
    /** The owner's touch list; null when standalone. */
    std::vector<int> *touchList = nullptr;
    int touchId = 0;  ///< this queue's index in the owner's touch list
    /**
     * True while an edit need not be reported: the owner will refresh
     * this queue's cached next-event time anyway (it runs this queue in
     * the current window, or an edit was already reported). Always true
     * when standalone.
     */
    bool touched = true;

    /**
     * Report this queue to the owner's touch list (once per refresh).
     * Cold and out of line, so that enqueue() and cancel() stay small.
     */
    [[gnu::cold, gnu::noinline]] void touch();
    /** Start of a run: clock up to the floor, and report it if needed. */
    void beginRun()
    {
        if (currentTime < *floor)
            currentTime = *floor;
        if (!touched)
            touch();
    }

    std::uint32_t allocRecord(TimePs when, std::uint64_t seq, EventFn &&fn);
    /**
     * Add one record to the free list by growing the pool: cold and out
     * of line, so that schedule() can inline allocRecord().
     */
    [[gnu::cold, gnu::noinline]] void growPool();
    /**
     * Count the live record @p idx and list it when it precedes
     * `parkedBound` (evicting the latest entry of a full list it
     * precedes), else park it.
     */
    void enqueue(std::uint32_t idx, TimePs when);
    /** Insert @p e into the head list, which has room, by (when, seq). */
    void listInsert(const DueEntry &e);
    /** Remove and free the listed record @p idx (a cancel). */
    void listCancel(std::uint32_t idx);
    EventId handleOf(std::uint32_t idx) const
    {
        return (static_cast<EventId>(pool[idx].gen) << 32) |
               static_cast<EventId>(idx + 1);
    }
    void freeRecord(std::uint32_t idx);
    /** The wheel level for @p when. */
    int levelOf(TimePs when) const;
    /** Park @p idx at its level. */
    void place(std::uint32_t idx, TimePs when);
    /** Move the wheel time up to now() if no parked event changes level. */
    void catchUp();
    /** Move @p cell, whose events share level-0 slot @p slotAbs, to `due`. */
    void loadDue(std::vector<std::uint32_t> &cell, std::int64_t slotAbs);
    /** Append new same-slot arrivals to `due` and restore sort order. */
    void mergeDueArrivals();
    /** Drop executed/dead prefix; true if a live due event is ready. */
    bool dueFrontLive();
    /**
     * Where the next event is: at the head list's end, at the due front,
     * or (kLater) still in a wheel cell because it is due after the
     * limit; `when` is its exact time (for kLater, a lower bound above
     * the limit unless an exact one is asked for), kTimeNever for kNone.
     */
    enum class Next { kNone, kList, kDue, kLater };
    struct Head {
        Next src;
        TimePs when;
    };
    /**
     * Locate the parked head, draining and re-placing wheel slots as
     * needed, without moving the wheel time past @p limit: a kDue head
     * is then readable. A head past @p limit is reported as kLater with
     * its exact time if @p exact, else with a lower bound.
     */
    Head ensureNext(TimePs limit, bool exact);
    /**
     * The next event of the whole queue, the head list included, located
     * as for ensureNext(@p limit); a kLater head is after @p limit. The
     * parked head is located no further than the list's earliest time and
     * recorded in `parkedBound`, and not at all when that bound is past
     * both.
     */
    Head locate(TimePs limit);
    /** Detach the next event's record from @p src (kList, kDue). */
    std::uint32_t detach(Next src);
    /** The start of the first occupied wheel slot; kTimeNever if none. */
    TimePs firstSlotStart() const;
    /** Run the detached record @p idx. */
    void fire(std::uint32_t idx);
    /** step() without touching `runLimit`. */
    bool runNext();
    /** Make `parkedBound` the parked head's exact time. */
    void refreshParked();
    /** Schedule at a time in the past: panics. */
    [[noreturn]] void pastSchedule(TimePs when) const;
    /** Run ahead to a time in the past: panics. */
    [[noreturn]] void pastRunAhead(TimePs t) const;
    void maybeSweep();
};

using EventQueue = TimerWheelQueue;

}  // namespace ccsim::sim
