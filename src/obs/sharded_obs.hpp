/**
 * @file
 * Observability for partitioned simulations: one hub per shard and
 * merged deterministic exports.
 *
 * A sharded simulation cannot share one MetricsRegistry across worker
 * threads — registry maps are not thread-safe, and locking the metrics
 * hot path would serialize the very loop the partitioning parallelizes.
 * Instead each partition gets its *own* full Observability hub
 * (registry + trace writer + flight recorder), mutated only by the
 * worker that owns the partition, Envoy-thread-local-store style. The
 * "flush" is lock-free by construction: the barrier that ends a window
 * already publishes every shard's writes to the coordinator, which then
 * reads the registries (a TimeSeriesHub watching every shard, snapshots)
 * between windows only.
 *
 * Exports stay deterministic and byte-identical across thread counts:
 * merged snapshots are sorted path merges of per-shard registries
 * (duplicate paths panic — components must shard disjointly), and each
 * shard's flight recorder allocates flow ids in a disjoint region
 * (shard index << 48) so merged span dumps never collide.
 */
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ccsim::sim {
class ShardedEventQueue;
}

namespace ccsim::obs {

/** Per-shard Observability hubs with merged deterministic exports. */
class ShardedObservability
{
  public:
    /** Create @p shards independent hubs (one per partition). */
    explicit ShardedObservability(int shards);

    int shardCount() const { return static_cast<int>(hubs.size()); }

    /** The hub components of shard @p i attach their metrics to. */
    Observability &shard(int i);
    const Observability &shard(int i) const;

    /**
     * One snapshot spanning every shard, in MetricsRegistry snapshot
     * format, deterministic (sorted merged paths). Call between runs or
     * after a barrier, never while a window is executing.
     */
    void writeMergedSnapshot(std::ostream &os) const;
    std::string mergedSnapshotJson() const;

    /**
     * Every shard's kept flow exemplars as one deterministic JSON span
     * dump: a JSON object mapping shard index ("0", "1", ...) to that
     * shard's FlightRecorder::writeSpanDump() output.
     */
    void writeMergedSpanDump(std::ostream &os) const;
    std::string mergedSpanDumpJson() const;

  private:
    std::vector<std::unique_ptr<Observability>> hubs;
};

/**
 * Export parallel-kernel health probes for @p sq under `sim.shard.*`
 * (the partitioned counterpart of registerEventQueueProbes):
 *
 *  - `sim.shard.partitions` — logical processes (no thread-count probe:
 *    worker threads are an execution parameter, and snapshots must be
 *    byte-identical across thread counts);
 *  - `sim.shard.windows` — conservative sync windows executed;
 *  - `sim.shard.cross_messages` — cross-partition messages delivered;
 *  - `sim.shard.events` — events executed, summed over partitions;
 *  - `sim.shard.partition<p>.events` — per-partition event counts
 *    (the load-balance view).
 *
 * Register into exactly one shard's registry (by convention shard 0) so
 * merged snapshots carry the paths once. @p sq must outlive @p registry.
 */
void registerShardProbes(MetricsRegistry &registry,
                         const sim::ShardedEventQueue &sq);

}  // namespace ccsim::obs
