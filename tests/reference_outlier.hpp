/**
 * @file
 * The original sort-based passive outlier detector, kept as the
 * incremental serving::OutlierDetector's behavioural oracle. Every
 * latency evaluation copies and sorts the cluster's windows and the
 * host's own window (the cost the incremental detector removes); the
 * contract both detectors share is that identical trackHosts /
 * recordSuccess / recordError sequences at identical simulated times
 * give identical ejected(), lastEjectedAt(), ejectedCount() and
 * statistics trajectories.
 *
 * Percentile rank rule (pinned by the differential test): the p-th
 * percentile of n sorted samples is element floor(max(0, p*n/100 - 1)),
 * clamped to n - 1.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "serving/outlier.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ccsim::serving {

class ReferenceOutlierDetector
{
  public:
    ReferenceOutlierDetector(sim::EventQueue &eq, EjectionConfig config)
        : queue(eq), cfg(config)
    {
        validateEjectionConfig(cfg);
    }

    void trackHosts(const std::vector<int> &hosts)
    {
        for (int host : hosts)
            hostsState.try_emplace(host);
        for (auto it = hostsState.begin(); it != hostsState.end();) {
            if (std::find(hosts.begin(), hosts.end(), it->first) ==
                hosts.end())
                it = hostsState.erase(it);
            else
                ++it;
        }
    }

    void recordSuccess(int host, sim::TimePs latency)
    {
        auto it = hostsState.find(host);
        if (it == hostsState.end())
            return;
        HostState &hs = it->second;
        hs.consecutiveErrors = 0;
        if (static_cast<int>(hs.window.size()) < cfg.latencyWindow) {
            hs.window.push_back(latency);
        } else {
            hs.window[hs.windowNext] = latency;
            hs.windowNext = (hs.windowNext + 1) %
                            static_cast<std::size_t>(cfg.latencyWindow);
        }
        if (++hs.sinceEval < kEvalEvery)
            return;
        hs.sinceEval = 0;
        if (hs.ejectedUntil > queue.now())
            return;
        if (latencyOutlier(hs))
            eject(hs, EjectionReason::kLatencyPercentile);
    }

    void recordError(int host)
    {
        auto it = hostsState.find(host);
        if (it == hostsState.end())
            return;
        ++statErrors;
        HostState &hs = it->second;
        ++hs.consecutiveErrors;
        if (hs.ejectedUntil > queue.now())
            return;
        if (cfg.consecutiveErrors > 0 &&
            hs.consecutiveErrors >= cfg.consecutiveErrors)
            eject(hs, EjectionReason::kConsecutiveErrors);
    }

    bool ejected(int host) const
    {
        auto it = hostsState.find(host);
        return it != hostsState.end() &&
               it->second.ejectedUntil > queue.now();
    }

    int ejectedCount() const
    {
        int n = 0;
        for (const auto &[host, hs] : hostsState)
            n += hs.ejectedUntil > queue.now() ? 1 : 0;
        return n;
    }

    sim::TimePs lastEjectedAt(int host) const
    {
        auto it = hostsState.find(host);
        return it == hostsState.end() ? -1 : it->second.lastEjection;
    }

    std::uint64_t ejections() const { return statEjections; }
    std::uint64_t ejectionsByErrors() const { return statByErrors; }
    std::uint64_t ejectionsByLatency() const { return statByLatency; }
    std::uint64_t ejectionsSuppressed() const { return statSuppressed; }
    std::uint64_t errorsRecorded() const { return statErrors; }

    /** Sorted-copy percentile of @p w (0 for an empty window). */
    static sim::TimePs windowPercentile(const std::vector<sim::TimePs> &w,
                                        double pct)
    {
        if (w.empty())
            return 0;
        std::vector<sim::TimePs> sorted(w);
        std::sort(sorted.begin(), sorted.end());
        const auto idx = static_cast<std::size_t>(std::max(
            0.0,
            pct / 100.0 * static_cast<double>(sorted.size()) - 1.0));
        return sorted[std::min(idx, sorted.size() - 1)];
    }

  private:
    /** Latency evaluations are amortized: one per this many successes. */
    static constexpr int kEvalEvery = 16;

    struct HostState {
        int consecutiveErrors = 0;
        std::vector<sim::TimePs> window;
        std::size_t windowNext = 0;
        sim::TimePs ejectedUntil = 0;
        sim::TimePs lastEjection = -1;
        int ejectionCount = 0;
        int sinceEval = 0;
    };

    sim::EventQueue &queue;
    EjectionConfig cfg;
    std::map<int, HostState> hostsState;
    std::uint64_t statEjections = 0;
    std::uint64_t statByErrors = 0;
    std::uint64_t statByLatency = 0;
    std::uint64_t statSuppressed = 0;
    std::uint64_t statErrors = 0;

    bool latencyOutlier(const HostState &hs) const
    {
        if (cfg.latencyFactor <= 0.0 ||
            static_cast<int>(hs.window.size()) < cfg.minLatencySamples)
            return false;
        std::vector<sim::TimePs> all;
        for (const auto &[host, other] : hostsState)
            all.insert(all.end(), other.window.begin(), other.window.end());
        const sim::TimePs cluster =
            windowPercentile(all, cfg.latencyPercentile);
        if (cluster <= 0)
            return false;
        const sim::TimePs mine =
            windowPercentile(hs.window, cfg.latencyPercentile);
        return static_cast<double>(mine) >
               cfg.latencyFactor * static_cast<double>(cluster);
    }

    void eject(HostState &hs, EjectionReason reason)
    {
        const int limit = std::max(
            1, static_cast<int>(std::floor(
                   cfg.maxEjectedFraction *
                   static_cast<double>(hostsState.size()))));
        if (ejectedCount() + 1 > limit) {
            ++statSuppressed;
            return;
        }
        const int mult =
            std::min(hs.ejectionCount, cfg.maxEjectionMultiplier - 1);
        const auto duration = static_cast<sim::TimePs>(
            static_cast<double>(cfg.baseEjectionTime) *
            std::ldexp(1.0, mult));
        hs.ejectedUntil = queue.now() + duration;
        hs.lastEjection = queue.now();
        ++hs.ejectionCount;
        hs.consecutiveErrors = 0;
        hs.window.clear();
        hs.windowNext = 0;
        hs.sinceEval = 0;
        ++statEjections;
        if (reason == EjectionReason::kConsecutiveErrors)
            ++statByErrors;
        else
            ++statByLatency;
    }
};

}  // namespace ccsim::serving
