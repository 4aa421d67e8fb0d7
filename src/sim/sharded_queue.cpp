#include "sim/sharded_queue.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace ccsim::sim {

namespace {

/**
 * Spin iterations a waiting worker or coordinator polls the handoff
 * atomics before it sleeps (worker) or yields (coordinator): about 12 us
 * at the ~25 ns a `pause` takes on current x86 server cores. The next
 * phase usually starts within a few microseconds; a longer gap (a run of
 * inline windows, the end of a run) puts the workers to sleep. Longer
 * spins measured no faster on an idle host and markedly slower when
 * other processes compete for the cores.
 */
constexpr int kSpinIters = 512;

/**
 * Events a window must run for a handoff to pay: below this the
 * cache-line traffic of handing partitions to another core (their
 * queues, outboxes and model state, a few microseconds a window) costs
 * more than the overlap saves, and the coordinator runs the window
 * alone without even listing its busy partitions. The last window's
 * count is the estimate. The Figure 7 chaos drill (~27 events over 6.5
 * busy partitions a window) ran ~25% faster inline than claimed on 2
 * threads.
 */
constexpr std::uint64_t kMinHandoffEvents = 64;

/**
 * Debug and sanitizer builds audit the barrier: at every barrier each
 * partition's cached next-event time must equal its queue's.
 */
#ifdef NDEBUG
constexpr bool kAuditBarriers = false;
#else
constexpr bool kAuditBarriers = true;
#endif

// Claim word layout (see ShardedEventQueue::claimWord).
constexpr int kPhaseShift = 32;
constexpr int kCountShift = 16;
constexpr std::uint64_t kFieldMask = 0xffff;

constexpr std::uint64_t
packClaim(std::uint32_t phase, std::size_t count)
{
    return std::uint64_t{phase} << kPhaseShift |
           static_cast<std::uint64_t>(count) << kCountShift;
}
constexpr std::uint32_t
claimPhase(std::uint64_t w)
{
    return static_cast<std::uint32_t>(w >> kPhaseShift);
}
constexpr std::size_t
claimCount(std::uint64_t w)
{
    return static_cast<std::size_t>(w >> kCountShift & kFieldMask);
}
constexpr std::size_t
claimNext(std::uint64_t w)
{
    return static_cast<std::size_t>(w & kFieldMask);
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

}  // namespace

ShardedEventQueue::ShardedEventQueue() : ShardedEventQueue(Config{}) {}

ShardedEventQueue::ShardedEventQueue(Config cfg)
{
    if (cfg.partitions < 1)
        panicf("ShardedEventQueue: partitions must be >= 1, got ",
               cfg.partitions);
    if (cfg.threads < 1)
        panicf("ShardedEventQueue: threads must be >= 1, got ", cfg.threads);
    nThreads = std::min(cfg.threads, cfg.partitions);
    if (nThreads > 1 && static_cast<std::uint64_t>(cfg.partitions) > kFieldMask)
        panicf("ShardedEventQueue: at most ", kFieldMask,
               " partitions on worker threads, got ", cfg.partitions);
    parts.reserve(static_cast<std::size_t>(cfg.partitions));
    for (int p = 0; p < cfg.partitions; ++p) {
        auto part = std::make_unique<Partition>();
        part->outbox.resize(static_cast<std::size_t>(cfg.partitions));
        part->eq.floor = &clockFloor;
        part->eq.touchList = &touches;
        part->eq.touchId = p;
        part->eq.touched = false;
        parts.push_back(std::move(part));
    }
    touches.reserve(static_cast<std::size_t>(cfg.partitions));
    nextTimes.assign(static_cast<std::size_t>(cfg.partitions), kTimeNever);
    edgeLatency.assign(static_cast<std::size_t>(cfg.partitions),
                       std::vector<TimePs>(
                           static_cast<std::size_t>(cfg.partitions), 0));
}

ShardedEventQueue::~ShardedEventQueue()
{
    if (!workers.empty()) {
        {
            // Under `mu`, so a worker between its predicate check and its
            // wait cannot miss it.
            std::lock_guard<std::mutex> lk(mu);
            shutdown.store(true, std::memory_order_relaxed);
        }
        cvWake.notify_all();
        for (std::thread &t : workers)
            t.join();
    }
}

EventQueue &
ShardedEventQueue::partition(int p)
{
    if (p < 0 || p >= partitionCount())
        panicf("ShardedEventQueue::partition: index ", p, " out of range [0, ",
               partitionCount(), ")");
    return parts[static_cast<std::size_t>(p)]->eq;
}

const EventQueue &
ShardedEventQueue::partition(int p) const
{
    if (p < 0 || p >= partitionCount())
        panicf("ShardedEventQueue::partition: index ", p, " out of range [0, ",
               partitionCount(), ")");
    return parts[static_cast<std::size_t>(p)]->eq;
}

void
ShardedEventQueue::registerCrossEdge(int src, int dst, TimePs minLatency)
{
    if (started)
        panic("ShardedEventQueue::registerCrossEdge: cannot register edges "
              "after the first run");
    if (src < 0 || src >= partitionCount() || dst < 0 ||
        dst >= partitionCount())
        panicf("ShardedEventQueue::registerCrossEdge: bad edge (", src, " -> ",
               dst, ") for ", partitionCount(), " partitions");
    if (src == dst)
        panicf("ShardedEventQueue::registerCrossEdge: self-edge on partition ",
               src, " (schedule directly instead)");
    if (minLatency < 1)
        panicf("ShardedEventQueue::registerCrossEdge: edge (", src, " -> ",
               dst, ") needs positive lookahead, got ", minLatency);
    TimePs &cell =
        edgeLatency[static_cast<std::size_t>(src)][static_cast<std::size_t>(
            dst)];
    cell = cell == 0 ? minLatency : std::min(cell, minLatency);
}

void
ShardedEventQueue::postCross(int src, int dst, TimePs when, EventFn fn)
{
    if (src < 0 || src >= partitionCount() || dst < 0 ||
        dst >= partitionCount() || src == dst)
        panicf("ShardedEventQueue::postCross: bad route (", src, " -> ", dst,
               ")");
    if (edgeLatency[static_cast<std::size_t>(src)][static_cast<std::size_t>(
            dst)] == 0)
        panicf("ShardedEventQueue::postCross: no registered cross edge (",
               src, " -> ", dst,
               "); cross-partition interaction must flow through registered "
               "channels");
    // Early floor check; the barrier flush re-checks against the window
    // that actually executed (the authoritative causality assertion).
    if (when <= floorTime)
        panicf("ShardedEventQueue::postCross: causality violation: event at ",
               when, " ps is at or below the window floor ", floorTime,
               " ps (edge ", src, " -> ", dst, ")");
    Partition &sp = *parts[static_cast<std::size_t>(src)];
    std::vector<CrossMsg> &box = sp.outbox[static_cast<std::size_t>(dst)];
    if (box.empty()) {
        // Inside a window only a running partition posts, and the flush
        // walks those; any other post is listed for the next flush.
        if (windowRunning)
            sp.dirty.push_back(dst);
        else
            lateRoutes.emplace_back(dst, src);
    }
    box.push_back(CrossMsg{when, sp.crossSeq++, std::move(fn)});
}

void
ShardedEventQueue::atBarrier(BarrierHook hook, TimePs firstDeadline)
{
    const TimePs deadline = firstDeadline == kTimeNever
                                ? kTimeNever
                                : std::max(firstDeadline, floorTime + 1);
    hooks.push_back(Hook{std::move(hook), deadline});
}

void
ShardedEventQueue::requestBarrier(TimePs t)
{
    extraDeadlines.push(std::max(t, floorTime + 1));
}

std::uint64_t
ShardedEventQueue::eventsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &p : parts)
        total += p->eq.eventsExecuted();
    return total;
}

void
ShardedEventQueue::start()
{
    if (started)
        return;
    started = true;
    for (const auto &row : edgeLatency)
        for (const TimePs lat : row)
            if (lat > 0)
                resolvedWindow = std::min(resolvedWindow, lat);
    if (nThreads > 1) {
        // Spinning only pays when every thread has a core of its own.
        const unsigned cores = std::thread::hardware_concurrency();
        spinLimit = cores >= static_cast<unsigned>(nThreads) ? kSpinIters : 0;
        for (int w = 1; w < nThreads; ++w)
            workers.emplace_back(&ShardedEventQueue::workerLoop, this);
    }
}

void
ShardedEventQueue::runClaims()
{
    std::uint64_t w = claimWord.load(std::memory_order_acquire);
    while (claimNext(w) < claimCount(w)) {
        // Acquire on success: the phase data below was written before
        // the coordinator published the claimed phase's word.
        if (!claimWord.compare_exchange_weak(w, w + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire))
            continue;
        EventQueue &eq = parts[static_cast<std::size_t>(
                                   busyParts[claimNext(w)])]
                             ->eq;
        if (phaseDrain)
            eq.runAll();
        else
            eq.runUntil(phaseEnd);
        claimsDone.fetch_add(1, std::memory_order_release);
        w = claimWord.load(std::memory_order_acquire);
    }
}

void
ShardedEventQueue::workerLoop()
{
    std::uint32_t seen = 0;
    // seq_cst, like the coordinator's publish and its sleepers check:
    // either this load sees the new phase or the coordinator sees this
    // worker registered as a sleeper.
    const auto woken = [&] {
        return shutdown.load(std::memory_order_relaxed) ||
               claimPhase(claimWord.load(std::memory_order_seq_cst)) != seen;
    };
    while (true) {
        for (int i = 0; i < spinLimit && !woken(); ++i)
            cpuRelax();
        if (!woken()) {
            std::unique_lock<std::mutex> lk(mu);
            sleepers.fetch_add(1, std::memory_order_seq_cst);
            cvWake.wait(lk, woken);
            sleepers.fetch_sub(1, std::memory_order_relaxed);
        }
        if (shutdown.load(std::memory_order_relaxed))
            return;
        seen = claimPhase(claimWord.load(std::memory_order_relaxed));
        runClaims();
    }
}

void
ShardedEventQueue::runWindow(TimePs e, bool drain)
{
    // The scan listed every partition with an event by t0's window end;
    // a drain runs them all, a window those with an event by E.
    if (!drain)
        std::erase_if(busyParts, [&](int p) {
            return nextTimes[static_cast<std::size_t>(p)] > e;
        });
    // The next scan refreshes their heads anyway, so their queues report
    // nothing until then: no worker writes the touch list.
    for (const int p : busyParts)
        parts[static_cast<std::size_t>(p)]->eq.touched = true;
    partitionVisitCount += busyParts.size();
    const std::uint64_t before = busyEvents();
    windowRunning = true;
    if (busyParts.size() <= 1 || nThreads == 1 ||
        lastWindowEvents < kMinHandoffEvents) {
        // Nothing to overlap, or too little: a handoff would cost more
        // than the window.
        for (const int p : busyParts) {
            EventQueue &eq = parts[static_cast<std::size_t>(p)]->eq;
            if (drain)
                eq.runAll();
            else
                eq.runUntil(e);
        }
        windowRunning = false;
        lastWindowEvents = busyEvents() - before;
        return;
    }
    // Phase data first, then the claim word that publishes it. Every
    // claim of the previous phase has finished, so nothing reads these.
    phaseEnd = e;
    phaseDrain = drain;
    claimsDone.store(0, std::memory_order_relaxed);
    const std::uint32_t count = static_cast<std::uint32_t>(busyParts.size());
    claimWord.store(packClaim(++phaseId, count), std::memory_order_seq_cst);
    if (sleepers.load(std::memory_order_seq_cst) > 0) {
        // Taking `mu` orders this wake-up after a sleeper's predicate
        // check, so it cannot be lost.
        { std::lock_guard<std::mutex> lk(mu); }
        cvWake.notify_all();
    }
    runClaims();
    // Wait only for partitions a worker claimed and is still running,
    // yielding after the spin so a descheduled worker can get the core.
    const auto done = [&] {
        return claimsDone.load(std::memory_order_acquire) == count;
    };
    for (int i = 0; i < spinLimit && !done(); ++i)
        cpuRelax();
    while (!done())
        std::this_thread::yield();
    windowRunning = false;
    lastWindowEvents = busyEvents() - before;
}

std::uint64_t
ShardedEventQueue::busyEvents() const
{
    std::uint64_t n = 0;
    for (const int p : busyParts)
        n += parts[static_cast<std::size_t>(p)]->eq.eventsExecuted();
    return n;
}

TimePs
ShardedEventQueue::scanHeads()
{
    // Only a partition that ran, or whose queue reported an edit made
    // outside a window, can have a new next event.
    const auto refresh = [&](int p) {
        EventQueue &eq = parts[static_cast<std::size_t>(p)]->eq;
        nextTimes[static_cast<std::size_t>(p)] = eq.nextEventTime();
        eq.touched = false;
    };
    for (const int p : busyParts)
        refresh(p);
    for (const int p : touches)
        refresh(p);
    partitionVisitCount += busyParts.size() + touches.size();
    touches.clear();
    if constexpr (kAuditBarriers) {
        for (std::size_t p = 0; p < parts.size(); ++p) {
            const TimePs actual = parts[p]->eq.nextEventTime();
            if (nextTimes[p] != actual)
                panicf("ShardedEventQueue audit: partition ", p,
                       " has cached next event time ", nextTimes[p],
                       " ps, but its queue's next event is at ", actual,
                       " ps (an edit went unreported)");
        }
    }
    // One pass: t0, and every partition with an event by the window end
    // of the minimum so far, a superset of the window's busy partitions.
    busyParts.clear();
    TimePs t0 = kTimeNever;
    TimePs reach = kTimeNever;
    for (std::size_t p = 0; p < nextTimes.size(); ++p) {
        const TimePs t = nextTimes[p];
        if (t < t0) {
            t0 = t;
            reach = windowEndFor(t);
        }
        if (t <= reach && t != kTimeNever)
            busyParts.push_back(static_cast<int>(p));
    }
    return t0;
}

TimePs
ShardedEventQueue::windowEndFor(TimePs t0) const
{
    if (resolvedWindow == kTimeNever)
        return kTimeNever;
    if (t0 >= kTimeNever - (resolvedWindow - 1))
        return kTimeNever;  // saturate
    return t0 + resolvedWindow - 1;
}

void
ShardedEventQueue::flushOutboxes()
{
    // Posts made outside a window, then those of the partitions that ran
    // in the last one: no other outbox can hold a message.
    flushRoutes.clear();
    flushRoutes.swap(lateRoutes);
    for (const int src : busyParts) {
        std::vector<int> &dirty = parts[static_cast<std::size_t>(src)]->dirty;
        for (const int dst : dirty)
            flushRoutes.emplace_back(dst, src);
        dirty.clear();
    }
    std::sort(flushRoutes.begin(), flushRoutes.end());
    for (std::size_t first = 0; first < flushRoutes.size();) {
        const int dst = flushRoutes[first].first;
        std::size_t last = first;
        flushItems.clear();
        for (; last < flushRoutes.size() && flushRoutes[last].first == dst;
             ++last) {
            const int src = flushRoutes[last].second;
            for (CrossMsg &m : parts[static_cast<std::size_t>(src)]
                                   ->outbox[static_cast<std::size_t>(dst)])
                flushItems.push_back(FlushItem{m.when, src, m.seq, &m.fn});
        }
        // (when, src partition, per-src post order): a total order that
        // does not depend on thread count or barrier wall-clock timing.
        std::sort(flushItems.begin(), flushItems.end(),
                  [](const FlushItem &a, const FlushItem &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.src != b.src)
                          return a.src < b.src;
                      return a.seq < b.seq;
                  });
        EventQueue &deq = parts[static_cast<std::size_t>(dst)]->eq;
        for (FlushItem &it : flushItems) {
            if (it.when <= floorTime)
                panicf("ShardedEventQueue: causality violation at barrier: "
                       "cross event from partition ",
                       it.src, " to partition ", dst, " at ", it.when,
                       " ps is at or below the window floor ", floorTime,
                       " ps (lookahead too small for the sending link?)");
            deq.schedule(it.when, std::move(*it.fn));
            ++crossMessageCount;
        }
        for (; first < last; ++first)
            parts[static_cast<std::size_t>(flushRoutes[first].second)]
                ->outbox[static_cast<std::size_t>(dst)]
                .clear();
    }
}

void
ShardedEventQueue::fireHooks(TimePs e)
{
    for (Hook &h : hooks) {
        const TimePs next = h.fn(e);
        h.deadline = next == kTimeNever ? kTimeNever : std::max(next, e + 1);
    }
}

void
ShardedEventQueue::runUntil(TimePs limit)
{
    start();
    flushOutboxes();  // deliver posts made since the last barrier
    while (floorTime < limit) {
        TimePs e = limit;
        const TimePs t0 = scanHeads();
        if (t0 != kTimeNever) {
            const TimePs we = windowEndFor(t0);
            if (we != kTimeNever && we < e)
                e = we;
        }
        for (const Hook &h : hooks)
            if (h.deadline != kTimeNever && h.deadline < e)
                e = h.deadline;
        while (!extraDeadlines.empty() && extraDeadlines.top() <= floorTime)
            extraDeadlines.pop();
        if (!extraDeadlines.empty() && extraDeadlines.top() < e)
            e = extraDeadlines.top();
        if (e <= floorTime)
            e = floorTime + 1;  // defensive: deadlines are clamped > floor
        runWindow(e, /*drain=*/false);
        floorTime = e;
        clockFloor = e;
        flushOutboxes();
        fireHooks(e);
        ++windowsRunCount;
    }
}

void
ShardedEventQueue::runAll()
{
    start();
    flushOutboxes();
    while (true) {
        while (!extraDeadlines.empty() && extraDeadlines.top() <= floorTime)
            extraDeadlines.pop();
        const TimePs t0 = scanHeads();
        // Pending one-shot deadlines count as work: an action pinned to
        // a barrier must run even when no event precedes it.
        const TimePs pinned =
            extraDeadlines.empty() ? kTimeNever : extraDeadlines.top();
        if (t0 == kTimeNever && pinned == kTimeNever)
            break;
        const TimePs e = std::min(windowEndFor(t0), pinned);
        if (e == kTimeNever) {
            // Unbounded window: partitions are fully independent (no
            // cross edges), so each can drain in one phase.
            // An idle partition's clock is at or below floorTime already.
            // The clock floor stays at the last bounded window's end, so
            // a drained partition's now() is its own last event time.
            runWindow(0, /*drain=*/true);
            for (const int p : busyParts)
                floorTime = std::max(
                    floorTime, parts[static_cast<std::size_t>(p)]->eq.now());
        } else {
            runWindow(e, /*drain=*/false);
            floorTime = e;
            clockFloor = e;
        }
        flushOutboxes();
        fireHooks(floorTime);
        ++windowsRunCount;
    }
}

}  // namespace ccsim::sim
