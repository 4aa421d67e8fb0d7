#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace ccsim::sim {

namespace {

/** (when, seq) order of due-buffer and overflow-heap entries. */
constexpr auto earlier = [](const auto &a, const auto &b) {
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
};

/** Sets the run limit for one run and restores the enclosing one's. */
class RunLimitScope
{
  public:
    RunLimitScope(TimePs &slot, TimePs limit) : slot(slot), saved(slot)
    {
        slot = limit;
    }
    RunLimitScope(const RunLimitScope &) = delete;
    RunLimitScope &operator=(const RunLimitScope &) = delete;
    ~RunLimitScope() { slot = saved; }

  private:
    TimePs &slot;
    TimePs saved;
};

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
TimerWheelQueue::allocRecord(TimePs when, std::uint64_t seq, EventFn &&fn)
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
    r.seq = seq;
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

int
TimerWheelQueue::levelOf(TimePs when) const
{
    // The highest 6-bit group in which `when` differs from the wheel
    // time; OR-ing in a full low group maps "same level-0 slot" to 0.
    const std::uint64_t diff =
        (static_cast<std::uint64_t>(when ^ wheelTime) >> kSlotShift0) |
        (kSlots - 1);
    return (63 - std::countl_zero(diff)) / kSlotBits;
}

void
TimerWheelQueue::place(std::uint32_t idx, TimePs when)
{
    int level = levelOf(when);
    if (level >= kLevels && dueSlotAbs < 0 &&
        std::all_of(std::begin(occupied), std::end(occupied),
                    [](std::uint64_t bits) { return bits == 0; })) {
        // Nothing parked can go stale, so an empty wheel's time catches
        // up with now() and the horizon is measured from there.
        wheelTime = currentTime;
        level = levelOf(when);
    }
    if (level < kLevels) {
        const int slot =
            static_cast<int>((when >> shiftOf(level)) & (kSlots - 1));
        cells[level][slot].push_back(idx);
        occupied[level] |= std::uint64_t{1} << slot;
        return;
    }
    overflow.push_back(FarEvent{when, pool[idx].seq, idx});
    std::push_heap(overflow.begin(), overflow.end(), FarLater{});
    ++overflowCount;
}

void
TimerWheelQueue::pruneOverflowTop()
{
    while (!overflow.empty() &&
           pool[overflow.front().idx].state == SlotState::kDead) {
        const std::uint32_t dead = overflow.front().idx;
        std::pop_heap(overflow.begin(), overflow.end(), FarLater{});
        overflow.pop_back();
        freeRecord(dead);
        --deadParked;
    }
}

void
TimerWheelQueue::loadDue(std::vector<std::uint32_t> &cell,
                         std::int64_t slotAbs)
{
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
        const DueEntry e{r.when, r.seq, idx};
        if (!due.empty() && earlier(e, due.back()))
            sorted = false;
        due.push_back(e);
    }
    cell.clear();
    dueSlotAbs = slotAbs;
    // Slots fill in schedule order, which for the common in-time-order
    // workload is already (when, seq) sorted: skip the sort then.
    if (!sorted)
        std::sort(due.begin(), due.end(), earlier);
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
    std::sort(due.begin(), due.end(), earlier);
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

TimerWheelQueue::Head
TimerWheelQueue::ensureNext(TimePs limit)
{
    while (true) {
        // The due buffer holds the wheel's earliest events: the wheel
        // time lies in its level-0 slot, so later arrivals for that slot
        // land in the one cell merged here and every other parked event
        // is strictly later. Only the overflow heap can hold an earlier
        // one.
        if (dueSlotAbs >= 0) {
            mergeDueArrivals();
            if (dueFrontLive()) {
                pruneOverflowTop();
                const DueEntry &front = due[duePos];
                if (!overflow.empty() && earlier(overflow.front(), front))
                    return {Next::kOverflow, overflow.front().when};
                return {Next::kDue, front.when};
            }
        }
        pruneOverflowTop();

        int level = 0;
        while (level < kLevels && occupied[level] == 0)
            ++level;
        if (level == kLevels) {
            // Wheel empty: the overflow heap alone orders what is left.
            if (overflow.empty())
                return {Next::kNone, kTimeNever};
            return {Next::kOverflow, overflow.front().when};
        }

        // The first occupied slot of the lowest occupied level holds the
        // earliest parked events. Its events go to the due buffer when
        // they share one level-0 slot; otherwise they are re-placed with
        // the wheel time at the level-0 slot of the earliest of them,
        // which takes that one straight to level 0.
        const int slot = std::countr_zero(occupied[level]);
        auto &cell = cells[level][slot];
        TimePs base =
            ((wheelTime >> shiftOf(1)) << shiftOf(1)) |
            (static_cast<TimePs>(slot) << kSlotShift0);
        TimePs first = kTimeNever;
        bool oneSlot = true;
        if (level > 0 || base > limit) {
            TimePs last = 0;
            std::size_t live = 0;
            for (std::uint32_t idx : cell) {
                const Record &r = pool[idx];
                if (r.state == SlotState::kDead) {
                    freeRecord(idx);
                    --deadParked;
                    continue;
                }
                cell[live++] = idx;
                first = std::min(first, r.when);
                last = std::max(last, r.when);
            }
            cell.resize(live);
            if (live == 0) {
                occupied[level] &= ~(std::uint64_t{1} << slot);
                continue;
            }
            base = (first >> kSlotShift0) << kSlotShift0;
            oneSlot = (first >> kSlotShift0) == (last >> kSlotShift0);
        }
        // The wheel time never passes the head, nor `limit`.
        if (!overflow.empty() && overflow.front().when < base)
            return {Next::kOverflow, overflow.front().when};
        if (base > limit)
            return {Next::kLater,
                    overflow.empty() ? first
                                     : std::min(first, overflow.front().when)};
        wheelTime = base;
        occupied[level] &= ~(std::uint64_t{1} << slot);
        if (oneSlot) {
            loadDue(cell, base >> kSlotShift0);
        } else {
            // Copy rather than swap: every cell keeps the buffer it grew,
            // so a warm wheel cascades without allocating.
            scratch.assign(cell.begin(), cell.end());
            cell.clear();
            for (std::uint32_t idx : scratch)
                place(idx, pool[idx].when);
            scratch.clear();
        }
    }
}

std::uint32_t
TimerWheelQueue::detach(Next src)
{
    if (src == Next::kOverflow) {
        const std::uint32_t idx = overflow.front().idx;
        std::pop_heap(overflow.begin(), overflow.end(), FarLater{});
        overflow.pop_back();
        return idx;
    }
    return due[duePos++].idx;
}

void
TimerWheelQueue::fire(std::uint32_t idx)
{
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
}

void
TimerWheelQueue::refreshNext()
{
    nextBound = liveCount == 0 ? kTimeNever : ensureNext(currentTime).when;
    nextExact = true;
}

EventId
TimerWheelQueue::schedule(TimePs when, EventFn fn)
{
    if (when < currentTime)
        panicf("EventQueue::schedule: time ", when, " is in the past (now ",
               currentTime, ")");
    const std::uint32_t idx = allocRecord(when, nextSeq++, std::move(fn));
    enqueue(idx, when);
    return handleOf(idx);
}

void
TimerWheelQueue::enqueue(std::uint32_t idx, TimePs when)
{
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
    const RunLimitScope scope(runLimit, kNoRunAhead);
    return runNext();
}

bool
TimerWheelQueue::runNext()
{
    const Head head = ensureNext(kTimeNever);
    if (head.src == Next::kNone) {
        nextBound = kTimeNever;
        nextExact = true;
        return false;
    }
    fire(detach(head.src));
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
    const RunLimitScope scope(runLimit, limit);
    while (true) {
        const Head head = ensureNext(limit);
        if (head.src == Next::kNone || head.when > limit) {
            // The head stays where it is (the wheel time did not pass
            // `limit`, so later schedules still order against it).
            nextBound = head.when;
            nextExact = true;
            break;
        }
        fire(detach(head.src));
    }
    if (currentTime < limit)
        currentTime = limit;
}

void
TimerWheelQueue::runAll()
{
    const RunLimitScope scope(runLimit, kTimeNever);
    while (runNext()) {
    }
}

void
TimerWheelQueue::pastRunAhead(TimePs t) const
{
    panicf("EventQueue run-ahead: time ", t, " is in the past (now ",
           currentTime, ")");
}

TimerWheelQueue::Head
TimerWheelQueue::headBefore(TimePs t, std::uint64_t seq)
{
    // Locating the head may move the wheel time up to its level-0 slot,
    // never past `t`: the head then either runs in place or is the next
    // event the run takes, after the fallback is scheduled at `t`.
    const Head head = ensureNext(t);
    if (head.src == Next::kDue || head.src == Next::kOverflow) {
        const std::uint64_t headSeq = head.src == Next::kDue
                                          ? due[duePos].seq
                                          : overflow.front().seq;
        if (head.when < t || (head.when == t && headSeq < seq))
            return head;
    }
    nextBound = head.when;
    nextExact = true;
    return {Next::kNone, head.when};
}

EventId
TimerWheelQueue::headId(Next src) const
{
    return handleOf(src == Next::kDue ? due[duePos].idx
                                      : overflow.front().idx);
}

}  // namespace ccsim::sim
