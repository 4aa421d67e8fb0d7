#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace ccsim::sim {

namespace {

/** Rotate-right that tolerates r == 0. */
inline std::uint64_t
ror64(std::uint64_t b, unsigned r)
{
    return r == 0 ? b : (b >> r) | (b << (64u - r));
}

}  // namespace

// ---------------------------------------------------------------------------
// TimerWheelQueue
// ---------------------------------------------------------------------------

TimerWheelQueue::TimerWheelQueue()
{
    pool.reserve(256);
    freeList.reserve(256);
    due.reserve(64);
}

TimerWheelQueue::~TimerWheelQueue() = default;

std::uint32_t
TimerWheelQueue::allocRecord(TimePs when, EventFn &&fn)
{
    std::uint32_t idx;
    if (!freeList.empty()) {
        idx = freeList.back();
        freeList.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
    }
    Record &r = pool[idx];
    r.when = when;
    r.seq = nextSeq++;
    r.state = SlotState::kLive;
    r.fn = std::move(fn);
    return idx;
}

void
TimerWheelQueue::freeRecord(std::uint32_t idx)
{
    Record &r = pool[idx];
    r.fn.reset();
    r.state = SlotState::kFree;
    ++r.gen;
    freeList.push_back(idx);
}

bool
TimerWheelQueue::placeInWheel(std::uint32_t idx, TimePs when)
{
    for (int level = 0; level < kLevels; ++level) {
        const int sh = shiftOf(level);
        if (occupied[level] == 0) {
            // Empty level: a stale cursor can only shrink the usable
            // window, so pull it up to the current time for free.
            const std::int64_t nowSlot = currentTime >> sh;
            if (cursor[level] < nowSlot)
                cursor[level] = nowSlot;
        }
        const std::int64_t slot = when >> sh;
        const std::int64_t d = slot - cursor[level];
        if (d >= 0 && d < kSlots) {
            cells[level][slot & (kSlots - 1)].push_back(idx);
            occupied[level] |= std::uint64_t{1} << (slot & (kSlots - 1));
            return true;
        }
    }
    return false;
}

void
TimerWheelQueue::place(std::uint32_t idx, TimePs when)
{
    if (placeInWheel(idx, when))
        return;
    overflow.push_back(FarEvent{when, pool[idx].seq, idx});
    std::push_heap(overflow.begin(), overflow.end(), FarLater{});
    ++overflowCount;
}

std::int64_t
TimerWheelQueue::nextOccupiedSlot(int level)
{
    const std::uint64_t rot =
        ror64(occupied[level],
              static_cast<unsigned>(cursor[level] & (kSlots - 1)));
    return cursor[level] + std::countr_zero(rot);
}

void
TimerWheelQueue::cascade(int level, std::int64_t slotAbs)
{
    auto &cell = cells[level][slotAbs & (kSlots - 1)];
    std::vector<std::uint32_t> moved;
    moved.swap(cell);
    occupied[level] &= ~(std::uint64_t{1} << (slotAbs & (kSlots - 1)));

    const TimePs slotStart = static_cast<TimePs>(slotAbs)
                             << shiftOf(level);
    // S is the global minimum slot start across all levels, so no
    // occupied cell below `level` starts before it: raising empty-level
    // cursors to it cannot orphan anything and guarantees the moved
    // events fit a lower level on the common path.
    for (int l = 0; l < level; ++l) {
        if (occupied[l] == 0) {
            const std::int64_t base =
                std::max(slotStart, currentTime) >> shiftOf(l);
            if (cursor[l] < base)
                cursor[l] = base;
        }
    }
    for (std::uint32_t idx : moved) {
        Record &r = pool[idx];
        if (r.state == SlotState::kDead) {
            freeRecord(idx);
            --deadParked;
            continue;
        }
        // Re-park strictly below `level` (re-parking at the same level
        // would loop). A stale-cursor miss falls through to the
        // overflow heap, which the take path orders correctly.
        bool placed = false;
        for (int l = 0; l < level; ++l) {
            const int sh = shiftOf(l);
            if (occupied[l] == 0) {
                const std::int64_t nowSlot = currentTime >> sh;
                if (cursor[l] < nowSlot)
                    cursor[l] = nowSlot;
            }
            const std::int64_t slot = r.when >> sh;
            const std::int64_t d = slot - cursor[l];
            if (d >= 0 && d < kSlots) {
                cells[l][slot & (kSlots - 1)].push_back(idx);
                occupied[l] |= std::uint64_t{1} << (slot & (kSlots - 1));
                placed = true;
                break;
            }
        }
        if (!placed) {
            overflow.push_back(FarEvent{r.when, r.seq, idx});
            std::push_heap(overflow.begin(), overflow.end(), FarLater{});
            ++overflowCount;
        }
    }
}

void
TimerWheelQueue::drainSlot(std::int64_t slotAbs)
{
    auto &cell = cells[0][slotAbs & (kSlots - 1)];
    due.clear();
    duePos = 0;
    bool sorted = true;
    for (std::uint32_t idx : cell) {
        const Record &r = pool[idx];
        if (r.state == SlotState::kDead) {
            freeRecord(idx);
            --deadParked;
            continue;
        }
        if (!due.empty()) {
            const DueEntry &prev = due.back();
            if (r.when < prev.when ||
                (r.when == prev.when && r.seq < prev.seq))
                sorted = false;
        }
        due.push_back(DueEntry{r.when, r.seq, idx});
    }
    cell.clear();
    occupied[0] &= ~(std::uint64_t{1} << (slotAbs & (kSlots - 1)));
    // Advancing to the first occupied slot never orphans cells, and it
    // lets same-slot arrivals during the drain land back in this cell.
    if (cursor[0] < slotAbs)
        cursor[0] = slotAbs;
    dueSlotAbs = slotAbs;
    // Slots fill in schedule order, which for the common in-time-order
    // workload is already (when, seq) sorted: skip the sort then.
    if (!sorted)
        std::sort(due.begin(), due.end(),
                  [](const DueEntry &a, const DueEntry &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      return a.seq < b.seq;
                  });
}

void
TimerWheelQueue::mergeDueArrivals()
{
    auto &cell = cells[0][dueSlotAbs & (kSlots - 1)];
    if (cell.empty())
        return;
    due.erase(due.begin(), due.begin() + static_cast<std::ptrdiff_t>(duePos));
    duePos = 0;
    for (std::uint32_t idx : cell) {
        const Record &r = pool[idx];
        if (r.state == SlotState::kDead) {
            freeRecord(idx);
            --deadParked;
        } else {
            due.push_back(DueEntry{r.when, r.seq, idx});
        }
    }
    cell.clear();
    occupied[0] &= ~(std::uint64_t{1} << (dueSlotAbs & (kSlots - 1)));
    std::sort(due.begin(), due.end(),
              [](const DueEntry &a, const DueEntry &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.seq < b.seq;
              });
}

bool
TimerWheelQueue::dueFrontLive()
{
    while (duePos < due.size()) {
        const std::uint32_t idx = due[duePos].idx;
        if (pool[idx].state != SlotState::kDead)
            return true;
        freeRecord(idx);
        --deadParked;
        ++duePos;
    }
    due.clear();
    duePos = 0;
    dueSlotAbs = -1;
    return false;
}

TimerWheelQueue::Next
TimerWheelQueue::ensureNext()
{
    while (true) {
        // Fast path: the committed slot's due buffer holds the global
        // minimum (cascades ran before it was drained; later arrivals
        // for the same slot merge in; anything else is strictly later),
        // except for events parked in the far-future overflow heap.
        if (dueSlotAbs >= 0) {
            mergeDueArrivals();
            if (dueFrontLive()) {
                while (!overflow.empty() &&
                       pool[overflow.front().idx].state == SlotState::kDead) {
                    const std::uint32_t dead = overflow.front().idx;
                    std::pop_heap(overflow.begin(), overflow.end(),
                                  FarLater{});
                    overflow.pop_back();
                    freeRecord(dead);
                    --deadParked;
                }
                if (!overflow.empty()) {
                    const DueEntry &front = due[duePos];
                    const FarEvent &top = overflow.front();
                    if (top.when < front.when ||
                        (top.when == front.when && top.seq < front.seq))
                        return Next::kOverflow;
                }
                return Next::kDue;
            }
        }

        // Prune cancelled overflow tops so the comparisons below see a
        // live candidate.
        while (!overflow.empty() &&
               pool[overflow.front().idx].state == SlotState::kDead) {
            const std::uint32_t dead = overflow.front().idx;
            std::pop_heap(overflow.begin(), overflow.end(), FarLater{});
            overflow.pop_back();
            freeRecord(dead);
            --deadParked;
        }

        // Find the earliest occupied slot across all wheel levels.
        int minLevel = -1;
        std::int64_t minSlot = 0;
        TimePs minStart = 0;
        for (int level = 0; level < kLevels; ++level) {
            if (occupied[level] == 0)
                continue;
            const std::int64_t slot = nextOccupiedSlot(level);
            const TimePs start = static_cast<TimePs>(slot)
                                 << shiftOf(level);
            // On equal starts prefer the higher level so its slot is
            // cascaded before the finer slot is drained (it may hold
            // earlier events within the shared start).
            if (minLevel < 0 || start <= minStart) {
                minLevel = level;
                minSlot = slot;
                minStart = start;
            }
        }

        if (minLevel < 0) {
            // Wheel empty: the overflow heap alone orders what is left.
            return overflow.empty() ? Next::kNone : Next::kOverflow;
        }
        if (!overflow.empty() && overflow.front().when < minStart)
            return Next::kOverflow;

        if (minLevel == 0)
            drainSlot(minSlot);
        else
            cascade(minLevel, minSlot);
    }
}

std::uint32_t
TimerWheelQueue::takeNext()
{
    const Next src = ensureNext();
    if (src == Next::kNone)
        return kInvalidRecord;
    if (src == Next::kOverflow) {
        const std::uint32_t idx = overflow.front().idx;
        std::pop_heap(overflow.begin(), overflow.end(), FarLater{});
        overflow.pop_back();
        return idx;
    }
    return due[duePos++].idx;
}

void
TimerWheelQueue::unloadDue()
{
    if (dueSlotAbs < 0)
        return;
    for (std::size_t i = duePos; i < due.size(); ++i) {
        const std::uint32_t idx = due[i].idx;
        if (pool[idx].state == SlotState::kDead) {
            freeRecord(idx);
            --deadParked;
        } else {
            place(idx, pool[idx].when);
        }
    }
    due.clear();
    duePos = 0;
    dueSlotAbs = -1;
}

void
TimerWheelQueue::refreshNext()
{
    TimePs when = kTimeNever;
    if (liveCount != 0) {
        const Next src = ensureNext();
        if (src == Next::kDue)
            when = due[duePos].when;
        else if (src == Next::kOverflow)
            when = overflow.front().when;
        // Release the committed due slot: holding it across subsequent
        // schedule() calls could let later-slot events hide behind it.
        unloadDue();
    }
    nextBound = when;
    nextExact = true;
}

EventId
TimerWheelQueue::schedule(TimePs when, EventFn fn)
{
    if (when < currentTime)
        panicf("EventQueue::schedule: time ", when, " is in the past (now ",
               currentTime, ")");
    const std::uint32_t idx = allocRecord(when, std::move(fn));
    ++liveCount;
    if (liveCount > peakLive)
        peakLive = liveCount;
    place(idx, when);
    // Every live event is at or after the bound, so an event at or below
    // it is the new head.
    if (when <= nextBound) {
        nextBound = when;
        nextExact = true;
    }
    return (static_cast<EventId>(pool[idx].gen) << 32) |
           static_cast<EventId>(idx + 1);
}

void
TimerWheelQueue::cancel(EventId id)
{
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (slot == 0 || slot > pool.size())
        return;
    Record &r = pool[slot - 1];
    if (r.state != SlotState::kLive ||
        r.gen != static_cast<std::uint32_t>(id >> 32))
        return;
    // Destroy the closure NOW: anything it captured (packets, channel
    // state) is released at cancel time, not when the tombstone is
    // lazily reached.
    r.fn.reset();
    r.state = SlotState::kDead;
    --liveCount;
    ++cancelledCount;
    ++deadParked;
    nextExact = false;  // it may have been the head
    maybeSweep();
}

void
TimerWheelQueue::maybeSweep()
{
    if (deadParked <= 1024 || deadParked <= 2 * liveCount)
        return;
    const auto isDead = [this](std::uint32_t idx) {
        if (pool[idx].state != SlotState::kDead)
            return false;
        freeRecord(idx);
        return true;
    };
    for (int level = 0; level < kLevels; ++level) {
        for (int s = 0; s < kSlots; ++s) {
            auto &cell = cells[level][s];
            if (cell.empty())
                continue;
            cell.erase(std::remove_if(cell.begin(), cell.end(), isDead),
                       cell.end());
            if (cell.empty())
                occupied[level] &= ~(std::uint64_t{1} << s);
        }
    }
    if (dueSlotAbs >= 0) {
        auto keep = due.begin() + static_cast<std::ptrdiff_t>(duePos);
        auto last = std::remove_if(keep, due.end(), [&](const DueEntry &e) {
            return isDead(e.idx);
        });
        due.erase(last, due.end());
        if (duePos >= due.size())
            dueFrontLive();  // resets the buffer if fully consumed
    }
    auto last = std::remove_if(overflow.begin(), overflow.end(),
                               [&](const FarEvent &e) {
                                   return isDead(e.idx);
                               });
    overflow.erase(last, overflow.end());
    std::make_heap(overflow.begin(), overflow.end(), FarLater{});
    deadParked = 0;
}

bool
TimerWheelQueue::step()
{
    const std::uint32_t idx = takeNext();
    if (idx == kInvalidRecord) {
        nextBound = kTimeNever;
        nextExact = true;
        return false;
    }
    // The head leaves; the bound stays a valid (now inexact) lower bound.
    nextExact = false;
    Record &r = pool[idx];
    const TimePs when = r.when;
    EventFn fn = std::move(r.fn);
    --liveCount;
    freeRecord(idx);
    currentTime = when;
    ++executedCount;
    fn();
    return true;
}

void
TimerWheelQueue::runUntil(TimePs limit)
{
    if (nextBound > limit) {
        // Nothing is due: the common case for an idle sharded partition.
        if (currentTime < limit)
            currentTime = limit;
        return;
    }
    while (true) {
        const std::uint32_t idx = takeNext();
        if (idx == kInvalidRecord) {
            nextBound = kTimeNever;
            nextExact = true;
            break;
        }
        if (pool[idx].when > limit) {
            // Put it back (keeping its sequence number, so FIFO order
            // is unaffected) and return the rest of the due buffer to
            // the wheel: the buffer must never outlive the run that
            // committed to its slot, or later schedules could slip in
            // ahead of it unseen. It is the head, so the bound is exact.
            nextBound = pool[idx].when;
            nextExact = true;
            place(idx, nextBound);
            unloadDue();
            break;
        }
        nextExact = false;
        Record &r = pool[idx];
        const TimePs when = r.when;
        EventFn fn = std::move(r.fn);
        --liveCount;
        freeRecord(idx);
        currentTime = when;
        ++executedCount;
        fn();
    }
    if (currentTime < limit)
        currentTime = limit;
}

void
TimerWheelQueue::runAll()
{
    while (step()) {
    }
}

// ---------------------------------------------------------------------------
// BinaryHeapQueue (reference oracle)
// ---------------------------------------------------------------------------

EventId
BinaryHeapQueue::schedule(TimePs when, EventFn fn)
{
    if (when < currentTime)
        panicf("EventQueue::schedule: time ", when, " is in the past (now ",
               currentTime, ")");
    const EventId id = nextId++;
    heap.push(Entry{when, id, std::move(fn)});
    liveIds.insert(id);
    if (liveIds.size() > peakLive)
        peakLive = liveIds.size();
    return id;
}

void
BinaryHeapQueue::cancel(EventId id)
{
    // Cancelling an already-fired or unknown event is a harmless no-op;
    // only ids still in the heap are tombstoned.
    if (liveIds.erase(id) != 0)
        ++cancelledCount;
}

bool
BinaryHeapQueue::popLive(Entry &out)
{
    while (!heap.empty()) {
        // priority_queue::top() is const; we must move the closure out.
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

bool
BinaryHeapQueue::step()
{
    Entry e;
    if (!popLive(e))
        return false;
    currentTime = e.when;
    ++executedCount;
    e.fn();
    return true;
}

void
BinaryHeapQueue::runUntil(TimePs limit)
{
    while (true) {
        Entry e;
        if (!popLive(e))
            break;
        if (e.when > limit) {
            // Put it back (and mark live again); cheaper than peeking
            // because priority_queue lacks a non-destructive move-out API.
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

void
BinaryHeapQueue::runAll()
{
    while (step()) {
    }
}

TimePs
BinaryHeapQueue::nextEventTime()
{
    while (!heap.empty() && liveIds.count(heap.top().id) == 0)
        heap.pop();  // tombstoned by cancel(); drop lazily as popLive does
    return heap.empty() ? kTimeNever : heap.top().when;
}

}  // namespace ccsim::sim
