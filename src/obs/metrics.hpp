/**
 * @file
 * Hierarchical metrics registry.
 *
 * Components register named metrics under dotted paths
 * (`ltl.node3.retransmits`, `switch.tor.0.0.q3.depth`). Four metric
 * kinds are supported:
 *
 *  - **counters**   — monotonically increasing event counts;
 *  - **histograms** — memory-bounded log-binned sample distributions;
 *  - **gauges**     — time-weighted piecewise-constant signals set
 *                     explicitly by the component;
 *  - **probes**     — callback gauges that *read* a live component value
 *                     on demand (a snapshot or a time-series window), so
 *                     existing component statistics can be exported
 *                     without duplicating bookkeeping in hot paths.
 *
 * The registry offers a deterministic JSON snapshot (paths emitted in
 * sorted order, fixed number formatting) and access by dense id. It
 * does no periodic sampling of its own: a TimeSeriesHub
 * (obs/timeseries.hpp) watching the registry reads every metric at the
 * barriers of the ShardedEventQueue that drives the simulation, and
 * draws the readings as Chrome counter tracks.
 *
 * Storage is sized for the paper's ~250k-host fabric, where the registry
 * holds ~200k paths: each path is interned once in a chunked character
 * arena and gets a dense id, and metrics sit in per-kind chunked arrays
 * indexed through the id. An empty registry owns no heap.
 *
 * A component kind with many members registers a **probe family**
 * instead: one entry covering `<stem>.<member>.<leaf>` for every member
 * and every leaf of a fixed table, read through one callback. Its
 * members get a dense id range but no interned string, index slot or
 * callback of their own; their paths are produced only while a
 * snapshot, a listing or a lookup needs them. Every public call sees a
 * family's paths exactly as if each had been registered on its own.
 *
 * Observability is strictly read-only with respect to simulation state:
 * attaching a registry, reading it, or exporting never changes component
 * behaviour, so instrumented and bare runs are bit-identical.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flow_trace.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/stable_vector.hpp"
#include "sim/stats.hpp"

namespace ccsim::obs {

/**
 * A time-weighted gauge: set(t, v) records that the signal holds value
 * @p v from simulated time @p t onward.
 */
class Gauge
{
  public:
    void set(sim::TimePs t_ps, double v)
    {
        tw.update(t_ps, v);
        current = v;
    }

    /** Most recently set value. */
    double value() const { return current; }
    /** Time-weighted mean over the updates seen so far. */
    double timeAverage() const { return tw.average(); }
    /** Peak value seen. */
    double peak() const { return tw.peak(); }

  private:
    sim::TimeWeighted tw;
    double current = 0.0;
};

/** Defaults for registry histograms (sub-1% relative quantile error). */
inline constexpr double kDefaultHistMinValue = 0.5;
inline constexpr int kDefaultHistBinsPerOctave = 96;

/**
 * The hierarchical metrics registry. Not thread-safe (one registry per
 * simulation, like the EventQueue).
 */
class MetricsRegistry
{
  public:
    /** A path's dense id: 0, 1, 2, ... in registration order. */
    using Id = std::uint32_t;
    /** Metric kinds, in snapshot section order. */
    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram, kProbe };

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    // --- registration / lookup (get-or-create; references are stable) ---

    /** The counter at @p path, created on first use. */
    sim::Counter &counter(const std::string &path);

    /** The gauge at @p path, created on first use. */
    Gauge &gauge(const std::string &path);

    /**
     * The histogram at @p path, created on first use with the given
     * binning. Later calls for an existing path ignore the binning
     * arguments and return the original instance.
     */
    sim::LogHistogram &
    histogram(const std::string &path,
              double min_value = kDefaultHistMinValue,
              int bins_per_octave = kDefaultHistBinsPerOctave);

    /**
     * Register a callback gauge: @p fn is invoked at snapshot time and
     * whenever a watching TimeSeriesHub rolls a window. Re-registering a
     * path replaces the callback (components attached to a fresh prefix
     * never collide; replacement supports re-attachment).
     */
    void registerProbe(const std::string &path, std::function<double()> fn);

    /**
     * A probe family: the probes `<stem>.<name(m)>.<leaf>` for every
     * member m in [0, members) and every entry of @p leaves.
     */
    struct ProbeFamily {
        std::string stem;
        std::uint32_t members = 0;
        /** Append member @p m 's name (dots allowed) to @p out. */
        std::function<void(std::uint32_t m, std::string &out)> name;
        /** Distinct leaf names; the table must outlive the registry. */
        std::span<const std::string_view> leaves;
        /** Member @p m 's value of leaf @p leaf (an index into leaves). */
        std::function<double(std::uint32_t m, std::uint32_t leaf)> value;
    };

    /**
     * Register @p family. Its paths take the ids [size(), size() +
     * members * leaves.size()), member-major. The family owns the
     * namespace `<stem>.`: a plain path or another family inside it
     * panics (so does registering a stem twice). Member names must be
     * distinct, and none may extend another by a dot ("a", "a.b"):
     * ordering the paths panics otherwise.
     */
    void registerFamily(ProbeFamily family);

    // --- lookup without creation ---

    const sim::Counter *findCounter(const std::string &path) const;
    const Gauge *findGauge(const std::string &path) const;
    const sim::LogHistogram *findHistogram(const std::string &path) const;
    bool hasProbe(const std::string &path) const;

    /** Invoke the probe at @p path now. Panics if no such probe. */
    double probeValue(const std::string &path) const;

    // --- access by id ---

    /**
     * Number of registered paths. Ids are never reused, so the ids in
     * [n, size()) are exactly the paths registered since a watcher last
     * saw size() == n: an append-only log that watchers (the time-series
     * hub) read instead of rescanning paths(). Replacing a probe adds no
     * id.
     */
    std::size_t size() const { return entries.size() + familyIds; }
    /** A family member's path is built by this call. */
    std::string pathOf(Id id) const;
    Kind kindOf(Id id) const;

    /** The ids in [@p from, size()) in path order. */
    std::vector<Id> idsInPathOrder(Id from) const;

    /** The metric behind @p id, which must be of that kind (panics). */
    const sim::Counter &counterAt(Id id) const
    {
        return counters[slotOf(id, Kind::kCounter)];
    }
    const Gauge &gaugeAt(Id id) const
    {
        return gauges[slotOf(id, Kind::kGauge)];
    }
    const sim::LogHistogram &histogramAt(Id id) const
    {
        return histograms[slotOf(id, Kind::kHistogram)];
    }
    double probeValueAt(Id id) const;

    // --- hierarchy ---

    /** Every registered path across all kinds, sorted. */
    std::vector<std::string> paths() const;

    /**
     * Direct child segments under a dotted prefix ("" for the roots),
     * sorted and deduplicated: with `ltl.node0.rtt` and `ltl.node1.rtt`
     * registered, children("ltl") is {"node0", "node1"}.
     */
    std::vector<std::string> children(const std::string &prefix) const;

    // --- snapshot export ---

    /**
     * Serialize every metric as JSON, deterministically (sorted paths,
     * fixed formatting): byte-identical runs produce byte-identical
     * snapshots.
     */
    void writeSnapshot(std::ostream &os) const;

    /** writeSnapshot() to a string. */
    std::string snapshotJson() const;

    /**
     * Serialize several registries as one combined snapshot, in exactly
     * writeSnapshot()'s format (a single-element list is byte-identical
     * to that registry's own snapshot). Paths must be disjoint across
     * the registries — in a sharded simulation every component registers
     * under its own shard, so a duplicate path is a partitioning bug and
     * panics.
     */
    static void
    writeMergedSnapshot(std::ostream &os,
                        const std::vector<const MetricsRegistry *> &regs);

    /** writeMergedSnapshot() to a string. */
    static std::string
    mergedSnapshotJson(const std::vector<const MetricsRegistry *> &regs);

  private:
    /** One interned path: 16 B, plus its characters in the arena. */
    struct Entry {
        const char *path;    ///< arena characters, not NUL-terminated
        std::uint32_t slot;  ///< index into the kind's array
        std::uint16_t len;
        Kind kind;
    };
    static constexpr Id kNoId = ~Id{0};
    /** A registered family and the id range its paths take. */
    struct Family {
        ProbeFamily spec;
        std::string ns;             ///< "<stem>.", the owned namespace
        Id first = 0;               ///< ids [first, first + count)
        std::uint32_t count = 0;    ///< members * leaves
        std::uint32_t plainBefore = 0;  ///< plain paths registered before
        /** Path-order rank of each member path, built on first need. */
        mutable std::vector<std::uint32_t> rank;
        /** Open-addressing name -> member index, built by a lookup. */
        mutable std::vector<std::uint32_t> byName;
    };
    /**
     * Where an id or path lives: @p at is an offset into @p fam 's paths
     * (member * leaves + leaf), or with no family a plain entry index
     * (kNoId when a lookup found nothing).
     */
    struct Loc {
        const Family *fam = nullptr;
        std::uint32_t at = kNoId;
    };

    /** Plain paths only; family members have ids but no entries. */
    sim::StableVector<Entry> entries;
    /** Open-addressing path -> entry index (linear probing, kNoId = free). */
    std::vector<Id> index;
    std::vector<Family> families;  ///< in registration (id) order
    std::uint32_t familyIds = 0;   ///< ids taken by families
    std::vector<std::unique_ptr<char[]>> arena;
    char *arenaTop = nullptr;
    std::size_t arenaLeft = 0;
    sim::StableVector<sim::Counter> counters;
    sim::StableVector<Gauge> gauges;
    sim::StableVector<sim::LogHistogram> histograms;
    sim::StableVector<std::function<double()>> probes;
    /** Ids in path order, extended by the paths() family on demand. */
    mutable std::vector<Id> sorted;

    std::string_view entryPath(std::uint32_t e) const
    {
        return {entries[e].path, entries[e].len};
    }
    /** Index position holding @p path, or the free one it would take. */
    std::size_t indexPos(std::string_view path) const;
    Loc locate(Id id) const;
    /** Where @p path is registered (at == kNoId when nowhere). */
    Loc lookup(std::string_view path) const;
    /** The plain entry of @p path if it is a @p kind, else null. */
    const Entry *find(std::string_view path, Kind kind) const;
    /**
     * The entry index at @p path; when new (second = true), it is
     * registered as @p kind at @p slot of that kind's array. Panics on
     * an empty path, one registered as another kind, or one inside a
     * family's namespace.
     */
    std::pair<std::uint32_t, bool> intern(const std::string &path, Kind kind,
                                          std::size_t slot);
    /** Where the probe @p path lives (panics when it is no probe). */
    Loc probeAt(const std::string &path) const;
    double probeValue(Loc loc) const;
    /** The kind-array slot of @p id, which must be of @p kind. */
    std::uint32_t slotOf(Id id, Kind kind) const;
    /**
     * Scratch text for family paths. Consecutive paths of one member
     * (as in path order) reuse its "<stem>.<name>." prefix.
     */
    struct PathBuf {
        std::string text;
        const Family *fam = nullptr;
        std::uint32_t member = 0;
        std::size_t prefix = 0;
    };
    /** @p loc 's path: a view of the arena, or of @p buf for a family. */
    std::string_view pathAt(Loc loc, PathBuf &buf) const;
    std::string_view pathInto(Id id, PathBuf &buf) const
    {
        return pathAt(locate(id), buf);
    }
    /** The member of @p f named @p name, or kNoId. */
    std::uint32_t memberNamed(const Family &f, std::string_view name) const;
    /** Build every family's rank table pathLess() reads. */
    void rankFamilies() const;
    /** Path order without building strings (families must be ranked). */
    bool pathLess(Id a, Id b) const;
    const std::vector<Id> &sortedIds() const;
    /** @p loc 's snapshot value (the JSON after its path key). */
    void writeValue(std::ostream &os, Loc loc) const;
};

/**
 * The observability bundle handed to components: one registry plus one
 * trace writer per simulation. Components take it by pointer; null means
 * "not observed" and costs nothing.
 */
struct Observability {
    MetricsRegistry registry;
    TraceWriter trace;
    FlightRecorder flows;
};

/**
 * Export DES-kernel health probes for @p eq under `sim.queue.*`:
 *
 *  - `sim.queue.events_per_sec` — events executed per *simulated* second
 *    (wall-clock rates would differ run to run and break byte-identical
 *    same-seed snapshots);
 *  - `sim.queue.live` — currently scheduled, uncancelled events;
 *  - `sim.queue.cancelled` — total cancellations;
 *  - `sim.queue.wheel_overflow` — events parked at the timing wheel's
 *    top level, past the 2^60 ps (~13-day) span of its wheel time.
 *
 * @p eq must outlive @p registry (or probe re-registration).
 */
void registerEventQueueProbes(MetricsRegistry &registry,
                              const sim::EventQueue &eq);

}  // namespace ccsim::obs
