/**
 * @file
 * The original binary-heap + tombstone-set event queue, kept as the
 * timing wheel's (sim::EventQueue) behavioural oracle in the property
 * tests. Closures stay resident until lazily reclaimed at pop time (the
 * retention the wheel fixes); ordering and time semantics are the
 * contract both queues share: events run in (time, schedule-order)
 * ascending order, and identical schedule/cancel/run call sequences give
 * identical now()/size() trajectories. The run-ahead calls
 * (advanceIfIdle, runAheadHorizon) follow the wheel's documented rules
 * on top of the heap.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "sim/time.hpp"

namespace ccsim::sim {

class BinaryHeapQueue
{
  public:
    BinaryHeapQueue() = default;
    BinaryHeapQueue(const BinaryHeapQueue &) = delete;
    BinaryHeapQueue &operator=(const BinaryHeapQueue &) = delete;

    /** Current simulated time. */
    TimePs now() const { return currentTime; }

    /** Schedule @p fn to run at absolute time @p when. */
    EventId schedule(TimePs when, EventFn fn)
    {
        if (when < currentTime)
            panicf("EventQueue::schedule: time ", when,
                   " is in the past (now ", currentTime, ")");
        const EventId id = nextId++;
        heap.push(Entry{when, id, std::move(fn)});
        liveIds.insert(id);
        if (liveIds.size() > peakLive)
            peakLive = liveIds.size();
        return id;
    }

    /** Schedule @p fn to run @p delay after the current time. */
    EventId scheduleAfter(TimePs delay, EventFn fn)
    {
        return schedule(currentTime + delay, std::move(fn));
    }

    /**
     * Cancel a previously scheduled event (tombstone; lazy reclaim).
     * Cancelling an already-fired or unknown event is a harmless no-op.
     */
    void cancel(EventId id)
    {
        if (liveIds.erase(id) != 0)
            ++cancelledCount;
    }

    /** True if no live events remain. */
    bool empty() const { return liveIds.empty(); }

    /** Number of live (scheduled, uncancelled, unfired) events. */
    std::size_t size() const { return liveIds.size(); }

    /** Run the single next event; false if the queue was empty. */
    bool step()
    {
        const RunLimit scope(runLimit, kNoRunAhead);
        Entry e;
        if (!popLive(e))
            return false;
        currentTime = e.when;
        ++executedCount;
        e.fn();
        return true;
    }

    /** Run events until simulated time exceeds @p limit (see the wheel). */
    void runUntil(TimePs limit)
    {
        const RunLimit scope(runLimit, limit);
        while (true) {
            Entry e;
            if (!popLive(e))
                break;
            if (e.when > limit) {
                // Put it back (and mark live again); cheaper than peeking
                // because priority_queue lacks a non-destructive move-out.
                liveIds.insert(e.id);
                heap.push(std::move(e));
                break;
            }
            currentTime = e.when;
            ++executedCount;
            e.fn();
        }
        if (currentTime < limit)
            currentTime = limit;
    }

    /** Run events for @p duration of simulated time from now(). */
    void runFor(TimePs duration) { runUntil(currentTime + duration); }

    /** Run until the queue is completely drained. */
    void runAll()
    {
        const RunLimit scope(runLimit, kTimeNever);
        Entry e;
        while (popLive(e)) {
            currentTime = e.when;
            ++executedCount;
            e.fn();
        }
    }

    /** Move now() to @p t in place of an event there (see the wheel). */
    bool advanceIfIdle(TimePs t, std::uint64_t n)
    {
        if (t < currentTime)
            panicf("EventQueue run-ahead: time ", t, " is in the past");
        if (t > runLimit || nextEventTime() <= t)
            return false;
        currentTime = t;
        executedCount += n;
        return true;
    }

    /** The latest time advanceIfIdle() accepts (see the wheel). */
    TimePs runAheadHorizon()
    {
        return std::min(runLimit, nextEventTime() - 1);
    }

    /** Next live event's timestamp, or kTimeNever (see the wheel). */
    TimePs nextEventTime()
    {
        while (!heap.empty() && liveIds.count(heap.top().id) == 0)
            heap.pop();  // tombstoned by cancel(); dropped as popLive does
        return heap.empty() ? kTimeNever : heap.top().when;
    }

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executedCount; }
    /** Total number of events cancelled so far. */
    std::uint64_t eventsCancelled() const { return cancelledCount; }
    /** Always 0: the heap has no wheel. */
    std::uint64_t wheelOverflows() const { return 0; }
    /** Highest number of simultaneously live events seen. */
    std::size_t peakLiveEvents() const { return peakLive; }

  private:
    struct Entry {
        TimePs when;
        EventId id;
        EventFn fn;
    };
    struct Later {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;  // FIFO among equal-time events
        }
    };

    /** Sets the run limit for one run and restores the enclosing one's. */
    struct RunLimit {
        RunLimit(TimePs &slot, TimePs limit) : slot(slot), saved(slot)
        {
            slot = limit;
        }
        RunLimit(const RunLimit &) = delete;
        RunLimit &operator=(const RunLimit &) = delete;
        ~RunLimit() { slot = saved; }
        TimePs &slot;
        TimePs saved;
    };
    static constexpr TimePs kNoRunAhead = -1;

    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    std::unordered_set<EventId> liveIds;
    TimePs currentTime = 0;
    TimePs runLimit = kNoRunAhead;
    EventId nextId = 1;
    std::uint64_t executedCount = 0;
    std::uint64_t cancelledCount = 0;
    std::size_t peakLive = 0;

    /** Pop the next live entry, skipping tombstones; false if empty. */
    bool popLive(Entry &out)
    {
        while (!heap.empty()) {
            // priority_queue::top() is const; the closure must move out.
            Entry e = std::move(const_cast<Entry &>(heap.top()));
            heap.pop();
            auto it = liveIds.find(e.id);
            if (it == liveIds.end())
                continue;  // tombstoned by cancel()
            liveIds.erase(it);
            out = std::move(e);
            return true;
        }
        return false;
    }
};

}  // namespace ccsim::sim
