#include "obs/sharded_obs.hpp"

#include <sstream>
#include <utility>

#include "sim/logging.hpp"
#include "sim/sharded_queue.hpp"

namespace ccsim::obs {

ShardedObservability::ShardedObservability(int shards)
{
    if (shards < 1)
        sim::panicf("ShardedObservability: shards must be >= 1, got ",
                    shards);
    hubs.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i) {
        auto hub = std::make_unique<Observability>();
        // Disjoint flow-id regions keep merged span dumps collision-free
        // (and shard-stable: ids depend on the shard index, not on the
        // interleaving of flows across shards).
        hub->flows.setTraceIdStart(
            (static_cast<std::uint64_t>(i) << 48) | 1u);
        hubs.push_back(std::move(hub));
    }
}

Observability &
ShardedObservability::shard(int i)
{
    return const_cast<Observability &>(std::as_const(*this).shard(i));
}

const Observability &
ShardedObservability::shard(int i) const
{
    if (i < 0 || i >= shardCount())
        sim::panicf("ShardedObservability::shard: index ", i,
                    " out of range [0, ", shardCount(), ")");
    return *hubs[static_cast<std::size_t>(i)];
}

void
ShardedObservability::writeMergedSnapshot(std::ostream &os) const
{
    std::vector<const MetricsRegistry *> regs;
    regs.reserve(hubs.size());
    for (const auto &hub : hubs)
        regs.push_back(&hub->registry);
    MetricsRegistry::writeMergedSnapshot(os, regs);
}

std::string
ShardedObservability::mergedSnapshotJson() const
{
    std::ostringstream oss;
    writeMergedSnapshot(oss);
    return oss.str();
}

void
ShardedObservability::writeMergedSpanDump(std::ostream &os) const
{
    os << "{";
    for (std::size_t i = 0; i < hubs.size(); ++i) {
        if (i > 0)
            os << ",";
        os << "\"" << i << "\":";
        hubs[i]->flows.writeSpanDump(os);
    }
    os << "}";
}

std::string
ShardedObservability::mergedSpanDumpJson() const
{
    std::ostringstream oss;
    writeMergedSpanDump(oss);
    return oss.str();
}

void
registerShardProbes(MetricsRegistry &registry,
                    const sim::ShardedEventQueue &sq)
{
    const sim::ShardedEventQueue *q = &sq;
    // No thread-count probe: worker threads are an execution parameter,
    // not a property of the simulation, and snapshots must stay
    // byte-identical across thread counts (the same reason
    // sim.queue.events_per_sec is per simulated second, not wall time).
    registry.registerProbe("sim.shard.partitions", [q] {
        return static_cast<double>(q->partitionCount());
    });
    registry.registerProbe("sim.shard.windows", [q] {
        return static_cast<double>(q->windowsRun());
    });
    registry.registerProbe("sim.shard.cross_messages", [q] {
        return static_cast<double>(q->crossMessages());
    });
    registry.registerProbe("sim.shard.events", [q] {
        return static_cast<double>(q->eventsExecuted());
    });
    for (int p = 0; p < sq.partitionCount(); ++p) {
        registry.registerProbe(
            "sim.shard.partition" + std::to_string(p) + ".events",
            [q, p] {
                return static_cast<double>(q->partition(p).eventsExecuted());
            });
    }
}

}  // namespace ccsim::obs
