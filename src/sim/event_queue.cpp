#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace ccsim::sim {

namespace {

/** (when, seq) order of due-buffer entries. */
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
    if (freeList.empty())
        growPool();
    const std::uint32_t idx = freeList.back();
    freeList.pop_back();
    Record &r = pool[idx];
    r.when = when;
    r.seq = seq;
    r.state = SlotState::kLive;
    r.fn = std::move(fn);
    return idx;
}

void
TimerWheelQueue::growPool()
{
    freeList.push_back(static_cast<std::uint32_t>(pool.size()));
    pool.emplace_back();
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
TimerWheelQueue::catchUp()
{
    // The highest 6-bit group in which the clock and the wheel time
    // differ. A parked event is at or after the clock, so none sits at a
    // lower level; one at that level in the clock's own slot or before
    // it would have to move down, and then the wheel time stays.
    const std::uint64_t diff =
        static_cast<std::uint64_t>(currentTime ^ wheelTime) >> kSlotShift0;
    const int group = (63 - std::countl_zero(diff)) / kSlotBits;
    for (int level = 0; level < group; ++level) {
        if (occupied[level] != 0)
            return;  // tombstones only, but they hold their slots
    }
    if (occupied[group] != 0 &&
        static_cast<int>((currentTime >> shiftOf(group)) & (kSlots - 1)) >=
            std::countr_zero(occupied[group]))
        return;
    // The due buffer's slot ends before the clock: nothing in it is live.
    if (dueSlotAbs >= 0 && dueFrontLive())
        return;
    wheelTime = currentTime;
}

void
TimerWheelQueue::place(std::uint32_t idx, TimePs when)
{
    // The head list runs events without touching the wheel, so its time
    // can fall behind the clock; a park brings it up to the clock when
    // that moves no parked event, so events land at the levels (and in
    // the warm cells) they would have had every event passed through the
    // wheel.
    if (currentTime > wheelTime &&
        ((currentTime ^ wheelTime) >> kSlotShift0) != 0)
        catchUp();
    const int level = levelOf(when);
    const int slot = static_cast<int>((when >> shiftOf(level)) & (kSlots - 1));
    cells[level][slot].push_back(idx);
    occupied[level] |= std::uint64_t{1} << slot;
    if (level == kLevels - 1)
        ++overflowCount;
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
TimerWheelQueue::ensureNext(TimePs limit, bool exact)
{
    while (true) {
        // The due buffer holds the earliest parked events: the wheel
        // time lies in its level-0 slot, so later arrivals for that slot
        // land in the one cell merged here and every other parked event
        // is strictly later.
        if (dueSlotAbs >= 0) {
            mergeDueArrivals();
            if (dueFrontLive())
                return {Next::kDue, due[duePos].when};
        }

        int level = 0;
        while (level < kLevels && occupied[level] == 0)
            ++level;
        if (level == kLevels)
            return {Next::kNone, kTimeNever};

        // The first occupied slot of the lowest occupied level holds the
        // earliest parked events. Its events go to the due buffer when
        // they share one level-0 slot; otherwise they are re-placed with
        // the wheel time at the level-0 slot of the earliest of them,
        // which takes that one straight to level 0.
        const int slot = std::countr_zero(occupied[level]);
        auto &cell = cells[level][slot];
        TimePs base = slotStart(0, slot);
        TimePs first = kTimeNever;
        bool oneSlot = true;
        if (level > 0 || base > limit) {
            // No event in the slot is earlier than its start: past the
            // limit, that bound serves unless an exact time is asked for.
            const TimePs start = slotStart(level, slot);
            if (!exact && start > limit)
                return {Next::kLater, start};
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
            // The wheel time never passes `limit`.
            if (base > limit)
                return {Next::kLater, first};
        }
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

TimerWheelQueue::Head
TimerWheelQueue::locate(TimePs limit)
{
    // Stopping at the list's earliest time keeps the wheel time at or
    // below every listed event, so an evicted one can still be parked
    // relative to the wheel time.
    const TimePs parkedLimit = std::min(limit, headWhen);
    Head parked;
    if (parkedBound > parkedLimit) {
        parked = {parkedBound == kTimeNever ? Next::kNone : Next::kLater,
                  parkedBound};
    } else {
        parked = ensureNext(parkedLimit, false);
        parkedBound = parked.when;
        parkedExact = parked.src != Next::kLater;
    }
    if (headSize == 0)
        return parked;
    const DueEntry &first = head[headSize - 1];
    const bool parkedFirst =
        parked.src == Next::kDue
            ? parked.when < first.when ||
                  (parked.when == first.when && due[duePos].seq < first.seq)
            : parked.when < first.when;  // both are then after `limit`
    return parkedFirst ? parked : Head{Next::kList, first.when};
}

std::uint32_t
TimerWheelQueue::detach(Next src)
{
    if (src == Next::kList) {
        const std::uint32_t idx = head[--headSize].idx;
        headWhen = headSize == 0 ? kTimeNever : head[headSize - 1].when;
        ++bypassCount;
        return idx;
    }
    // The parked head leaves: the bound stays a lower bound, inexact.
    parkedExact = false;
    const std::uint32_t idx = due[duePos++].idx;
    // Raise it to the earliest of what is left, so that a new event can
    // tell whether it may be next: the due buffer's next entry, and the
    // start of the first occupied slot (whose events precede every other
    // cell's).
    TimePs bound = firstSlotStart();
    if (duePos < due.size())
        bound = std::min(bound, due[duePos].when);
    parkedBound = bound;
    return idx;
}

TimePs
TimerWheelQueue::firstSlotStart() const
{
    for (int level = 0; level < kLevels; ++level) {
        if (occupied[level] != 0)
            return slotStart(level, std::countr_zero(occupied[level]));
    }
    return kTimeNever;
}

void
TimerWheelQueue::fire(std::uint32_t idx)
{
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
TimerWheelQueue::refreshParked()
{
    parkedBound = liveCount == static_cast<std::size_t>(headSize)
                      ? kTimeNever
                      : ensureNext(currentTime, true).when;
    parkedExact = true;
}

void
TimerWheelQueue::touch()
{
    touched = true;
    touchList->push_back(touchId);
}

EventId
TimerWheelQueue::schedule(TimePs when, EventFn fn)
{
    if (when < now())
        pastSchedule(when);
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
    // An event that precedes every parked one is listed, unless the list
    // is full and it follows the list's latest entry; one that cannot be
    // next is parked at once.
    if (when < parkedBound) {
        const DueEntry e{when, pool[idx].seq, idx};
        if (when < headWhen) {
            // The new earliest entry moves the next event time: the only
            // schedule that can move it.
            if (!touched)
                touch();
            if (headSize < kHeadCap) {
                // A chain link: one compare and an append.
                head[headSize++] = e;
                headWhen = when;
                pool[idx].state = SlotState::kListed;
                return;
            }
        }
        if (headSize < kHeadCap) {
            listInsert(e);
            return;
        }
        if (when < head[0].when) {
            // Full: the latest entry makes room and is parked instead.
            const DueEntry out = head[0];
            std::copy(head + 1, head + kHeadCap, head);
            --headSize;
            listInsert(e);
            pool[out.idx].state = SlotState::kLive;
            idx = out.idx;
            when = out.when;
        }
    }
    place(idx, when);
    // Every parked live event is at or after the bound, so an event at
    // or below it is the new parked head.
    if (when <= parkedBound) {
        parkedBound = when;
        parkedExact = true;
    }
}

void
TimerWheelQueue::listInsert(const DueEntry &e)
{
    // Every entry at or before e's time is earlier in (when, seq) order
    // (e was scheduled last), so it moves one place towards the end.
    int i = headSize++;
    for (; i > 0 && head[i - 1].when <= e.when; --i)
        head[i] = head[i - 1];
    head[i] = e;
    headWhen = head[headSize - 1].when;
    pool[e.idx].state = SlotState::kListed;
}

void
TimerWheelQueue::listCancel(std::uint32_t idx)
{
    int i = headSize - 1;
    while (head[i].idx != idx)
        --i;
    if (i == headSize - 1 && !touched)
        touch();  // the earliest entry: the next event time may move
    std::copy(head + i + 1, head + headSize, head + i);
    --headSize;
    headWhen = headSize == 0 ? kTimeNever : head[headSize - 1].when;
    freeRecord(idx);
}

void
TimerWheelQueue::cancel(EventId id)
{
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (slot == 0 || slot > pool.size())
        return;
    Record &r = pool[slot - 1];
    if ((r.state != SlotState::kLive && r.state != SlotState::kListed) ||
        r.gen != static_cast<std::uint32_t>(id >> 32))
        return;
    --liveCount;
    ++cancelledCount;
    if (r.state == SlotState::kListed) {
        // Nothing else refers to an unparked record: free it, closure and
        // all.
        listCancel(slot - 1);
        return;
    }
    // Destroy the closure NOW: anything it captured (packets, channel
    // state) is released at cancel time, not when the tombstone is
    // lazily reached.
    r.fn.reset();
    r.state = SlotState::kDead;
    ++deadParked;
    if (r.when <= parkedBound) {
        parkedExact = false;  // it may have been the parked head
        if (!touched)
            touch();
    }
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
    deadParked = 0;
}

bool
TimerWheelQueue::step()
{
    beginRun();
    const RunLimitScope scope(runLimit, kNoRunAhead);
    return runNext();
}

bool
TimerWheelQueue::runNext()
{
    const Head head = locate(kTimeNever);
    if (head.src == Next::kNone)
        return false;
    fire(detach(head.src));
    return true;
}

void
TimerWheelQueue::runUntil(TimePs limit)
{
    beginRun();
    if (std::min(parkedBound, headWhen) > limit) {
        // Nothing is due.
        if (currentTime < limit)
            currentTime = limit;
        return;
    }
    const RunLimitScope scope(runLimit, limit);
    while (true) {
        // A head past `limit` stays where it is (the wheel time did not
        // pass `limit`, so later schedules still order against it).
        const Head head = locate(limit);
        if (head.src == Next::kNone || head.when > limit)
            break;
        fire(detach(head.src));
    }
    if (currentTime < limit)
        currentTime = limit;
}

void
TimerWheelQueue::runAll()
{
    beginRun();
    const RunLimitScope scope(runLimit, kTimeNever);
    while (runNext()) {
    }
}

void
TimerWheelQueue::pastSchedule(TimePs when) const
{
    panicf("EventQueue::schedule: time ", when, " is in the past (now ",
           now(), ")");
}

void
TimerWheelQueue::pastRunAhead(TimePs t) const
{
    panicf("EventQueue run-ahead: time ", t, " is in the past (now ",
           currentTime, ")");
}

}  // namespace ccsim::sim
