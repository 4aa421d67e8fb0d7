/**
 * @file
 * The failure-handling policy applied to each routed request: the
 * tail-at-scale toolkit of per-attempt deadlines, bounded retry with
 * exponential backoff + jitter, and hedged duplicates to a replica.
 *
 * Grown out of RankingServer's own retry policy into a serving-layer
 * type shared by every client of the accelerator pool:
 * hosts install it on their request path, and ClusterClient carries the
 * cluster-wide default handed out to attached servers. Defaults leave
 * everything off (a query blocks in the accelerator until someone calls
 * the owner's rescue path).
 */
#pragma once

#include "sim/time.hpp"

namespace ccsim::serving {

/** Per-request failure-handling policy. */
struct RequestPolicy {
    /** Per-attempt accelerator deadline; 0 disables deadlines/retries. */
    sim::TimePs accelDeadline = 0;
    /**
     * Total accelerator attempts per query, counting the first launch
     * and any hedged duplicate. At exhaustion the feature stage falls
     * back to software.
     */
    int maxAttempts = 2;
    /** Backoff before retry k (k = 1, 2, ...): base * 2^(k-1). */
    sim::TimePs backoffBase = 50 * sim::kMicrosecond;
    /** Relative jitter on each backoff, drawn uniformly in [-j, +j]. */
    double backoffJitter = 0.2;
    /** Issue a hedged duplicate to a replica after the hedge delay. */
    bool hedge = false;
    /**
     * Fixed hedge delay; 0 = adaptive — the hedgeQuantile of observed
     * accelerator latency, never below hedgeMinDelay.
     */
    sim::TimePs hedgeDelay = 0;
    double hedgeQuantile = 99.0;
    /** Adaptive floor (also used until enough samples accumulate). */
    sim::TimePs hedgeMinDelay = 200 * sim::kMicrosecond;
};

/** Fatal on any out-of-range field (shared by every installer). */
void validateRequestPolicy(const RequestPolicy &p);

}  // namespace ccsim::serving
