/**
 * @file
 * The Calibrator and its kernel: a small fixed event-driven loop (a
 * binary heap of timed events dispatching through function pointers into
 * a 16 MiB state array) that shares no code with the simulator, so no
 * change under src/ can move it.
 */
#include <queue>

#include "bench.hpp"

namespace ccsim::bench {

namespace {

constexpr std::uint32_t kEntities = 1u << 19;  // 4 words each: 16 MiB
constexpr int kPending = 4096;
constexpr int kPassEvents = 20000;
/** Host time between calibration passes at tick(). */
constexpr double kGapS = 0.2;

struct Event {
    std::uint64_t when;
    std::uint32_t entity;
    std::uint32_t kind;
    bool operator>(const Event &o) const { return when > o.when; }
};

using Handler = void (*)(std::uint64_t *, std::uint64_t);

const Handler kHandlers[3] = {
    [](std::uint64_t *s, std::uint64_t v) { s[0] += v; },
    [](std::uint64_t *s, std::uint64_t v) {
        s[1] ^= v;
        ++s[2];
    },
    [](std::uint64_t *s, std::uint64_t v) { s[3] = s[3] * 31 + v; },
};

}  // namespace

struct Calibrator::Kernel {
    std::vector<std::uint64_t> state =
        std::vector<std::uint64_t>(4ull * kEntities, 1);
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q;
    std::uint64_t clock = 0;
    std::uint64_t sum = 0;

    Kernel()
    {
        for (std::uint32_t i = 0; i < kPending; ++i)
            q.push({mix64(i) % 100000,
                    static_cast<std::uint32_t>(mix64(i + 7) % kEntities),
                    i % 3});
    }

    void pass()
    {
        for (int i = 0; i < kPassEvents; ++i) {
            const Event e = q.top();
            q.pop();
            std::uint64_t *s = &state[4ull * e.entity];
            kHandlers[e.kind](s, e.when);
            sum += s[0];
            const std::uint64_t h = mix64(e.when ^ e.entity);
            q.push({e.when + 1 + h % 1000,
                    static_cast<std::uint32_t>((h >> 20) % kEntities),
                    static_cast<std::uint32_t>(h % 3)});
        }
    }
};

Calibrator::Calibrator() : kernel(std::make_unique<Kernel>())
{
    for (int i = 0; i < 8; ++i)
        kernel->pass();  // fault the state in and warm the heap
}

Calibrator::~Calibrator() = default;

double
Calibrator::timedPass()
{
    const auto t0 = Clock::now();
    kernel->pass();
    const double s = secondsSince(t0);
    passSum += s;
    ++passes;
    last = Clock::now();
    return s;
}

void
Calibrator::begin()
{
    passSum = 0;
    passes = 0;
    spent = 0;
    timedPass();
}

void
Calibrator::tick()
{
    if (secondsSince(last) < kGapS)
        return;
    const auto t0 = Clock::now();
    timedPass();
    spent += secondsSince(t0);
}

double
Calibrator::end()
{
    timedPass();
    return passSum / static_cast<double>(passes);
}

}  // namespace ccsim::bench
