#include "serving/outlier.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/logging.hpp"

namespace ccsim::serving {

namespace {

/** Latency evaluations are amortized: one per this many successes. */
constexpr int kEvalEvery = 16;

using Samples = std::vector<sim::TimePs>;

/** Orders HostState records by host index (lower_bound comparator). */
constexpr auto kByHost = [](const auto &hs, int host) {
    return hs.host < host;
};

/** Index of the @p pct percentile among @p n > 0 ascending samples. */
std::size_t
rankIndex(double pct, std::size_t n)
{
    const auto idx = static_cast<std::size_t>(
        std::max(0.0, pct / 100.0 * static_cast<double>(n) - 1.0));
    return std::min(idx, n - 1);
}

/** Insert @p v into ascending @p s, after any equal samples. */
void
insertSorted(Samples &s, sim::TimePs v)
{
    s.insert(std::upper_bound(s.begin(), s.end(), v), v);
}

/**
 * Overwrite one sample equal to @p old (which @p s must hold) with @p v,
 * keeping @p s ascending: only the samples between the two positions
 * shift, and nothing allocates.
 */
void
replaceSorted(Samples &s, sim::TimePs old, sim::TimePs v)
{
    const auto from = std::lower_bound(s.begin(), s.end(), old);
    if (v >= old) {
        const auto to = std::upper_bound(from, s.end(), v);
        std::move(from + 1, to, from);
        *(to - 1) = v;
    } else {
        const auto to = std::upper_bound(s.begin(), from, v);
        std::move_backward(to, from, from + 1);
        *to = v;
    }
}

}  // namespace

void
validateEjectionConfig(const EjectionConfig &cfg)
{
    if (cfg.consecutiveErrors < 0)
        sim::fatalf("EjectionConfig: consecutiveErrors must be >= 0 "
                    "(got ", cfg.consecutiveErrors, ")");
    if (cfg.attemptTimeout < 0)
        sim::fatal("EjectionConfig: attemptTimeout must be non-negative");
    if (cfg.baseEjectionTime <= 0)
        sim::fatal("EjectionConfig: baseEjectionTime must be positive");
    if (cfg.maxEjectionMultiplier < 1)
        sim::fatalf("EjectionConfig: maxEjectionMultiplier must be >= 1 "
                    "(got ", cfg.maxEjectionMultiplier, ")");
    if (cfg.latencyFactor < 0.0)
        sim::fatal("EjectionConfig: latencyFactor must be non-negative");
    if (cfg.latencyPercentile <= 0.0 || cfg.latencyPercentile > 100.0)
        sim::fatalf("EjectionConfig: latencyPercentile must be in "
                    "(0, 100] (got ", cfg.latencyPercentile, ")");
    if (cfg.minLatencySamples < 2)
        sim::fatalf("EjectionConfig: minLatencySamples must be >= 2 "
                    "(got ", cfg.minLatencySamples, ")");
    if (cfg.latencyWindow < cfg.minLatencySamples)
        sim::fatalf("EjectionConfig: latencyWindow (", cfg.latencyWindow,
                    ") must be >= minLatencySamples (",
                    cfg.minLatencySamples, ")");
    if (cfg.maxEjectedFraction < 0.0 || cfg.maxEjectedFraction > 1.0)
        sim::fatalf("EjectionConfig: maxEjectedFraction must be in "
                    "[0, 1] (got ", cfg.maxEjectedFraction, ")");
    if (cfg.evidenceWeight < 0.0)
        sim::fatal("EjectionConfig: evidenceWeight must be non-negative");
}

OutlierDetector::OutlierDetector(sim::EventQueue &eq, EjectionConfig config)
    : queue(eq), cfg(config)
{
    validateEjectionConfig(cfg);
}

OutlierDetector::HostState *
OutlierDetector::find(int host)
{
    return const_cast<HostState *>(std::as_const(*this).find(host));
}

const OutlierDetector::HostState *
OutlierDetector::find(int host) const
{
    const auto it = std::lower_bound(hostsState.begin(), hostsState.end(),
                                     host, kByHost);
    return it != hostsState.end() && it->host == host ? &*it : nullptr;
}

void
OutlierDetector::trackHosts(const std::vector<int> &hosts)
{
    for (auto it = hostsState.begin(); it != hostsState.end();) {
        if (std::find(hosts.begin(), hosts.end(), it->host) == hosts.end()) {
            dropSamples(*it);
            it = hostsState.erase(it);
        } else {
            ++it;
        }
    }
    for (int host : hosts) {
        const auto it = std::lower_bound(
            hostsState.begin(), hostsState.end(), host, kByHost);
        if (it == hostsState.end() || it->host != host)
            hostsState.emplace(it)->host = host;
    }
}

bool
OutlierDetector::ejected(int host) const
{
    const HostState *hs = find(host);
    return hs != nullptr && hs->ejectedUntil > queue.now();
}

int
OutlierDetector::ejectedCount() const
{
    int n = 0;
    for (const HostState &hs : hostsState)
        n += hs.ejectedUntil > queue.now() ? 1 : 0;
    return n;
}

sim::TimePs
OutlierDetector::lastEjectedAt(int host) const
{
    const HostState *hs = find(host);
    return hs == nullptr ? -1 : hs->lastEjection;
}

void
OutlierDetector::dropSamples(HostState &hs)
{
    hs.window.clear();
    hs.sorted.clear();
    hs.windowNext = 0;
}

sim::TimePs
OutlierDetector::clusterPercentile() const
{
    // The k-th smallest sample of the union of the sorted windows, by
    // pivot elimination: each window keeps a live range [lo, hi) that
    // still holds the answer. The pivot is the middle sample of the
    // widest range; counting the samples below and up to it in every
    // range either finds the answer or drops at least half of that
    // range (and whatever else falls on the same side) from all of
    // them. Values, not positions, are compared, so ties cost nothing.
    std::vector<RankRange> &live = rankRanges;
    live.clear();
    std::size_t total = 0;
    for (const HostState &hs : hostsState) {
        const sim::TimePs *data = hs.sorted.data();
        live.push_back({data, data + hs.sorted.size(), data, data});
        total += hs.sorted.size();
    }
    std::size_t k = rankIndex(cfg.latencyPercentile, total);
    for (;;) {
        const RankRange &widest = *std::max_element(
            live.begin(), live.end(),
            [](const RankRange &a, const RankRange &b) {
                return a.hi - a.lo < b.hi - b.lo;
            });
        const sim::TimePs pivot = widest.lo[(widest.hi - widest.lo) / 2];
        std::size_t below = 0;
        std::size_t upTo = 0;
        for (RankRange &r : live) {
            r.below = std::lower_bound(r.lo, r.hi, pivot);
            r.upTo = std::upper_bound(r.below, r.hi, pivot);
            below += static_cast<std::size_t>(r.below - r.lo);
            upTo += static_cast<std::size_t>(r.upTo - r.lo);
        }
        if (k >= below && k < upTo)
            return pivot;
        if (k < below) {
            for (RankRange &r : live)
                r.hi = r.below;
        } else {
            k -= upTo;
            for (RankRange &r : live)
                r.lo = r.upTo;
        }
    }
}

bool
OutlierDetector::latencyOutlier(const HostState &hs) const
{
    if (cfg.latencyFactor <= 0.0 ||
        static_cast<int>(hs.window.size()) < cfg.minLatencySamples)
        return false;
    // Cluster reference: the same percentile over every tracked host's
    // window (the degraded host's own samples included — conservative).
    const sim::TimePs cluster = clusterPercentile();
    if (cluster <= 0)
        return false;
    const sim::TimePs mine =
        hs.sorted[rankIndex(cfg.latencyPercentile, hs.sorted.size())];
    return static_cast<double>(mine) >
           cfg.latencyFactor * static_cast<double>(cluster);
}

void
OutlierDetector::recordSuccess(int host, sim::TimePs latency)
{
    HostState *found = find(host);
    if (found == nullptr)
        return;
    HostState &hs = *found;
    hs.consecutiveErrors = 0;
    if (static_cast<int>(hs.window.size()) < cfg.latencyWindow) {
        hs.window.push_back(latency);
        insertSorted(hs.sorted, latency);
    } else {
        const sim::TimePs old = hs.window[hs.windowNext];
        hs.window[hs.windowNext] = latency;
        hs.windowNext = (hs.windowNext + 1) %
                        static_cast<std::size_t>(cfg.latencyWindow);
        replaceSorted(hs.sorted, old, latency);
    }
    if (++hs.sinceEval < kEvalEvery)
        return;
    hs.sinceEval = 0;
    if (hs.ejectedUntil > queue.now())
        return;  // already out; late completions change nothing
    if (latencyOutlier(hs))
        eject(hs, EjectionReason::kLatencyPercentile);
}

void
OutlierDetector::recordError(int host)
{
    HostState *found = find(host);
    if (found == nullptr)
        return;
    ++statErrors;
    HostState &hs = *found;
    ++hs.consecutiveErrors;
    if (hs.ejectedUntil > queue.now())
        return;
    if (cfg.consecutiveErrors > 0 &&
        hs.consecutiveErrors >= cfg.consecutiveErrors)
        eject(hs, EjectionReason::kConsecutiveErrors);
}

void
OutlierDetector::eject(HostState &hs, EjectionReason reason)
{
    // Never eject the whole pool: a cluster-wide slowdown (or a bad
    // threshold) must leave at least one routable instance.
    const int limit = std::max(
        1, static_cast<int>(std::floor(
               cfg.maxEjectedFraction *
               static_cast<double>(hostsState.size()))));
    if (ejectedCount() + 1 > limit) {
        ++statSuppressed;
        return;
    }
    const int mult = std::min(hs.ejectionCount, cfg.maxEjectionMultiplier - 1);
    const auto duration = static_cast<sim::TimePs>(
        static_cast<double>(cfg.baseEjectionTime) * std::ldexp(1.0, mult));
    hs.ejectedUntil = queue.now() + duration;
    hs.lastEjection = queue.now();
    ++hs.ejectionCount;
    // Readmit with a clean slate: stale pre-ejection samples must not
    // immediately re-eject a recovered host.
    hs.consecutiveErrors = 0;
    dropSamples(hs);
    hs.sinceEval = 0;
    ++statEjections;
    if (reason == EjectionReason::kConsecutiveErrors)
        ++statByErrors;
    else
        ++statByLatency;
    CCSIM_LOG(sim::LogLevel::kWarn, "serving.outlier", queue.now(),
              "host ", hs.host, " ejected for ", sim::toMicros(duration),
              " us (",
              reason == EjectionReason::kConsecutiveErrors
                  ? "consecutive errors"
                  : "latency percentile",
              ")");
    if (evidence)
        evidence(hs.host, cfg.evidenceWeight);
}

void
OutlierDetector::attachObservability(obs::Observability *o,
                                     const std::string &prefix)
{
    if (!o)
        return;
    auto &reg = o->registry;
    reg.registerProbe(prefix + ".ejections",
                      [this] { return double(statEjections); });
    reg.registerProbe(prefix + ".ejections_errors",
                      [this] { return double(statByErrors); });
    reg.registerProbe(prefix + ".ejections_latency",
                      [this] { return double(statByLatency); });
    reg.registerProbe(prefix + ".ejections_suppressed",
                      [this] { return double(statSuppressed); });
    reg.registerProbe(prefix + ".errors",
                      [this] { return double(statErrors); });
    reg.registerProbe(prefix + ".ejected",
                      [this] { return double(ejectedCount()); });
}

}  // namespace ccsim::serving
