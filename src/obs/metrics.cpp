#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>
#include <string_view>

#include "obs/json_util.hpp"
#include "sim/logging.hpp"

namespace ccsim::obs {

std::size_t
MetricsRegistry::indexPos(std::string_view path) const
{
    const std::size_t mask = index.size() - 1;
    std::size_t i = std::hash<std::string_view>{}(path) & mask;
    while (index[i] != kNoId && entryPath(index[i]) != path)
        i = (i + 1) & mask;
    return i;
}

MetricsRegistry::Loc
MetricsRegistry::locate(Id id) const
{
    // Families are few: find the last one starting at or before id.
    const auto it = std::upper_bound(
        families.begin(), families.end(), id,
        [](Id v, const Family &f) { return v < f.first; });
    if (it == families.begin())
        return {nullptr, id};
    const Family &f = *std::prev(it);
    if (id - f.first < f.count)
        return {&f, id - f.first};
    return {nullptr, id - f.first - f.count + f.plainBefore};
}

std::uint32_t
MetricsRegistry::memberNamed(const Family &f, std::string_view name) const
{
    std::string buf;
    const auto nameOf = [&](std::uint32_t m) -> std::string_view {
        buf.clear();
        f.spec.name(m, buf);
        return buf;
    };
    const auto home = [&f](std::string_view n) {
        return std::hash<std::string_view>{}(n) & (f.byName.size() - 1);
    };
    if (f.byName.empty()) {
        // At most half full; built by the first lookup.
        f.byName.assign(std::bit_ceil(2 * std::size_t{f.spec.members} + 1),
                        kNoId);
        for (std::uint32_t m = 0; m < f.spec.members; ++m) {
            std::size_t i = home(nameOf(m));
            while (f.byName[i] != kNoId)
                i = (i + 1) & (f.byName.size() - 1);
            f.byName[i] = m;
        }
    }
    const std::size_t mask = f.byName.size() - 1;
    for (std::size_t i = home(name); f.byName[i] != kNoId; i = (i + 1) & mask) {
        if (nameOf(f.byName[i]) == name)
            return f.byName[i];
    }
    return kNoId;
}

MetricsRegistry::Loc
MetricsRegistry::lookup(std::string_view path) const
{
    if (!index.empty()) {
        const Id e = index[indexPos(path)];
        if (e != kNoId)
            return {nullptr, e};
    }
    for (const Family &f : families) {
        if (!path.starts_with(f.ns))
            continue;
        // Namespaces are disjoint: only this family can hold the path.
        const std::string_view rest = path.substr(f.ns.size());
        const std::span<const std::string_view> leaves = f.spec.leaves;
        for (std::uint32_t l = 0; l < leaves.size(); ++l) {
            // rest = "<member name>.<leaf>", the name non-empty.
            const std::size_t dot = rest.size() - leaves[l].size() - 1;
            if (rest.size() < leaves[l].size() + 2 ||
                !rest.ends_with(leaves[l]) || rest[dot] != '.')
                continue;
            const std::uint32_t m = memberNamed(f, rest.substr(0, dot));
            if (m != kNoId)
                return {&f, m * static_cast<std::uint32_t>(leaves.size()) + l};
        }
        break;
    }
    return {};
}

const MetricsRegistry::Entry *
MetricsRegistry::find(std::string_view path, Kind kind) const
{
    const Loc loc = lookup(path);
    if (loc.fam != nullptr || loc.at == kNoId ||
        entries[loc.at].kind != kind)
        return nullptr;
    return &entries[loc.at];
}

std::pair<std::uint32_t, bool>
MetricsRegistry::intern(const std::string &path, Kind kind,
                        std::size_t slot)
{
    if (path.empty())
        sim::panic("MetricsRegistry: empty metric path");
    if (path.size() > UINT16_MAX)
        sim::panicf("MetricsRegistry: path '", path, "' is too long");
    // Keep the index at most 3/4 full; growing rehashes every path.
    if ((entries.size() + 1) * 4 > index.size() * 3) {
        index.assign(std::max<std::size_t>(16, index.size() * 2), kNoId);
        for (std::uint32_t e = 0; e < entries.size(); ++e)
            index[indexPos(entryPath(e))] = e;
    }
    const std::size_t pos = indexPos(path);
    if (index[pos] != kNoId) {
        if (entries[index[pos]].kind != kind)
            sim::panicf("MetricsRegistry: path '", path,
                        "' already registered as a different metric kind");
        return {index[pos], false};
    }
    for (const Family &f : families) {
        if (std::string_view(path).starts_with(f.ns))
            sim::panicf("MetricsRegistry: path '", path,
                        "' lies inside probe family '", f.spec.stem, "'");
    }
    if (size() >= kNoId)
        sim::panic("MetricsRegistry: out of ids");
    if (path.size() > arenaLeft) {
        // Chunks double up to 1 MiB; a path never straddles two.
        arenaLeft = std::max(path.size(),
                             std::size_t{256} << std::min<std::size_t>(
                                 arena.size(), 12));
        arena.push_back(std::make_unique_for_overwrite<char[]>(arenaLeft));
        arenaTop = arena.back().get();
    }
    std::copy(path.begin(), path.end(), arenaTop);
    const auto e = static_cast<std::uint32_t>(entries.size());
    entries.emplace_back(Entry{arenaTop, static_cast<std::uint32_t>(slot),
                               static_cast<std::uint16_t>(path.size()), kind});
    arenaTop += path.size();
    arenaLeft -= path.size();
    index[pos] = e;
    return {e, true};
}

std::uint32_t
MetricsRegistry::slotOf(Id id, Kind kind) const
{
    const Loc loc = id < size() ? locate(id) : Loc{};
    if (loc.fam != nullptr || loc.at == kNoId || entries[loc.at].kind != kind)
        sim::panicf("MetricsRegistry: id ", id, " is not a metric of the "
                    "requested kind");
    return entries[loc.at].slot;
}

std::string
MetricsRegistry::pathOf(Id id) const
{
    PathBuf buf;
    return std::string(pathInto(id, buf));
}

std::string_view
MetricsRegistry::pathAt(Loc loc, PathBuf &buf) const
{
    if (loc.fam == nullptr)
        return entryPath(loc.at);
    const ProbeFamily &spec = loc.fam->spec;
    const auto leaves = static_cast<std::uint32_t>(spec.leaves.size());
    const std::uint32_t m = loc.at / leaves;
    if (buf.fam != loc.fam || buf.member != m) {
        buf.text.assign(loc.fam->ns);
        spec.name(m, buf.text);
        buf.text += '.';
        buf.fam = loc.fam;
        buf.member = m;
        buf.prefix = buf.text.size();
    }
    buf.text.resize(buf.prefix);
    buf.text += spec.leaves[loc.at % leaves];
    return buf.text;
}

MetricsRegistry::Kind
MetricsRegistry::kindOf(Id id) const
{
    const Loc loc = locate(id);
    return loc.fam != nullptr ? Kind::kProbe : entries[loc.at].kind;
}

sim::Counter &
MetricsRegistry::counter(const std::string &path)
{
    const auto [e, created] = intern(path, Kind::kCounter, counters.size());
    return created ? counters.emplace_back() : counters[entries[e].slot];
}

Gauge &
MetricsRegistry::gauge(const std::string &path)
{
    const auto [e, created] = intern(path, Kind::kGauge, gauges.size());
    return created ? gauges.emplace_back() : gauges[entries[e].slot];
}

sim::LogHistogram &
MetricsRegistry::histogram(const std::string &path, double min_value,
                           int bins_per_octave)
{
    const auto [e, created] =
        intern(path, Kind::kHistogram, histograms.size());
    return created ? histograms.emplace_back(min_value, bins_per_octave)
                   : histograms[entries[e].slot];
}

void
MetricsRegistry::registerProbe(const std::string &path,
                               std::function<double()> fn)
{
    if (!fn)
        sim::panicf("MetricsRegistry: null probe for '", path, "'");
    const auto [e, created] = intern(path, Kind::kProbe, probes.size());
    if (created)
        probes.emplace_back(std::move(fn));
    else
        probes[entries[e].slot] = std::move(fn);
}

void
MetricsRegistry::registerFamily(ProbeFamily family)
{
    const std::string &stem = family.stem;
    if (stem.empty() || !family.name || !family.value ||
        family.leaves.empty())
        sim::panicf("MetricsRegistry: incomplete probe family '", stem, "'");
    const std::span<const std::string_view> leaves = family.leaves;
    for (std::size_t l = 0; l < leaves.size(); ++l) {
        if (leaves[l].empty() ||
            std::find(leaves.begin(), leaves.begin() + l, leaves[l]) !=
                leaves.begin() + l)
            sim::panicf("MetricsRegistry: family '", stem,
                        "' has an empty or repeated leaf");
    }
    const std::string ns = stem + ".";
    for (const Family &f : families) {
        if (f.ns.starts_with(ns) || ns.starts_with(f.ns))
            sim::panicf("MetricsRegistry: probe family '", stem,
                        "' overlaps family '", f.spec.stem, "'");
    }
    for (std::uint32_t e = 0; e < entries.size(); ++e) {
        if (entryPath(e).starts_with(ns))
            sim::panicf("MetricsRegistry: probe family '", stem,
                        "' covers the registered path '", entryPath(e), "'");
    }
    const std::uint64_t count =
        std::uint64_t{family.members} * leaves.size();
    if (size() + count >= kNoId)
        sim::panic("MetricsRegistry: out of ids");
    Family &f = families.emplace_back();
    f.first = static_cast<Id>(size());
    f.count = static_cast<std::uint32_t>(count);
    f.plainBefore = static_cast<std::uint32_t>(entries.size());
    f.ns = ns;
    f.spec = std::move(family);
    familyIds += f.count;
}

const sim::Counter *
MetricsRegistry::findCounter(const std::string &path) const
{
    const Entry *e = find(path, Kind::kCounter);
    return e == nullptr ? nullptr : &counters[e->slot];
}

const Gauge *
MetricsRegistry::findGauge(const std::string &path) const
{
    const Entry *e = find(path, Kind::kGauge);
    return e == nullptr ? nullptr : &gauges[e->slot];
}

const sim::LogHistogram *
MetricsRegistry::findHistogram(const std::string &path) const
{
    const Entry *e = find(path, Kind::kHistogram);
    return e == nullptr ? nullptr : &histograms[e->slot];
}

bool
MetricsRegistry::hasProbe(const std::string &path) const
{
    const Loc loc = lookup(path);
    return loc.fam != nullptr ||
           (loc.at != kNoId && entries[loc.at].kind == Kind::kProbe);
}

MetricsRegistry::Loc
MetricsRegistry::probeAt(const std::string &path) const
{
    const Loc loc = lookup(path);
    if (loc.fam == nullptr &&
        (loc.at == kNoId || entries[loc.at].kind != Kind::kProbe))
        sim::panicf("MetricsRegistry: no probe at '", path, "'");
    return loc;
}

double
MetricsRegistry::probeValue(Loc loc) const
{
    if (loc.fam == nullptr)
        return probes[entries[loc.at].slot]();
    const auto leaves = static_cast<std::uint32_t>(loc.fam->spec.leaves.size());
    return loc.fam->spec.value(loc.at / leaves, loc.at % leaves);
}

double
MetricsRegistry::probeValue(const std::string &path) const
{
    return probeValue(probeAt(path));
}

double
MetricsRegistry::probeValueAt(Id id) const
{
    const Loc loc = id < size() ? locate(id) : Loc{};
    if (loc.fam == nullptr)
        slotOf(id, Kind::kProbe);  // panics unless a plain probe
    return probeValue(loc);
}

void
MetricsRegistry::rankFamilies() const
{
    for (const Family &f : families) {
        if (!f.rank.empty() || f.count == 0)
            continue;
        const std::span<const std::string_view> leaves = f.spec.leaves;
        const auto nl = static_cast<std::uint32_t>(leaves.size());
        // A path is "<ns><key><leaf>" with key = "<member name>.".
        std::vector<std::string> keys(f.spec.members);
        for (std::uint32_t m = 0; m < keys.size(); ++m) {
            f.spec.name(m, keys[m]);
            keys[m] += '.';
        }
        std::vector<std::uint32_t> members(keys.size()), leafOrder(nl);
        std::iota(members.begin(), members.end(), 0u);
        std::iota(leafOrder.begin(), leafOrder.end(), 0u);
        std::sort(members.begin(), members.end(),
                  [&](auto a, auto b) { return keys[a] < keys[b]; });
        std::sort(leafOrder.begin(), leafOrder.end(),
                  [&](auto a, auto b) { return leaves[a] < leaves[b]; });
        // With no key a prefix of another, key order then leaf order is
        // path order. (Equal keys are duplicate member names.)
        for (std::size_t i = 1; i < members.size(); ++i) {
            if (keys[members[i]].starts_with(keys[members[i - 1]]))
                sim::panicf("MetricsRegistry: in family '", f.spec.stem,
                            "' member '", keys[members[i]],
                            "' repeats or extends member '",
                            keys[members[i - 1]], "'");
        }
        f.rank.resize(f.count);
        std::uint32_t r = 0;
        for (const std::uint32_t m : members)
            for (const std::uint32_t l : leafOrder)
                f.rank[m * nl + l] = r++;
    }
}

bool
MetricsRegistry::pathLess(Id a, Id b) const
{
    const Loc la = locate(a), lb = locate(b);
    if (la.fam != nullptr && la.fam == lb.fam)
        return la.fam->rank[la.at] < lb.fam->rank[lb.at];
    // A family's paths are exactly those under its namespace, which no
    // other path enters: they sort as one block at "<stem>.".
    const auto key = [this](Loc l) {
        return l.fam != nullptr ? std::string_view(l.fam->ns)
                                : entryPath(l.at);
    };
    return key(la) < key(lb);
}

std::vector<MetricsRegistry::Id>
MetricsRegistry::idsInPathOrder(Id from) const
{
    rankFamilies();
    // Plain paths sort by their text. A family's paths are one block
    // in rank order, and the block sits where "<stem>." would.
    std::vector<std::pair<std::string_view, Id>> plain;
    std::vector<const Family *> blocks;
    for (Id id = from; id < size();) {
        const Loc loc = locate(id);
        if (loc.fam != nullptr) {  // a family is never split by @p from
            blocks.push_back(loc.fam);
            id = loc.fam->first + loc.fam->count;
            continue;
        }
        plain.emplace_back(entryPath(loc.at), id++);
    }
    std::sort(plain.begin(), plain.end());
    std::sort(blocks.begin(), blocks.end(),
              [](const Family *a, const Family *b) { return a->ns < b->ns; });
    std::vector<Id> ids;
    ids.reserve(size() - std::min<std::size_t>(from, size()));
    auto next = plain.begin();
    for (const Family *f : blocks) {
        const auto stop = std::lower_bound(
            next, plain.end(), f->ns,
            [](const auto &p, std::string_view ns) { return p.first < ns; });
        for (; next != stop; ++next)
            ids.push_back(next->second);
        const std::size_t base = ids.size();
        ids.resize(base + f->count);
        for (std::uint32_t at = 0; at < f->count; ++at)
            ids[base + f->rank[at]] = f->first + at;
    }
    for (; next != plain.end(); ++next)
        ids.push_back(next->second);
    return ids;
}

const std::vector<MetricsRegistry::Id> &
MetricsRegistry::sortedIds() const
{
    // Ids only grow: order the ones added since the last call and merge.
    const std::size_t had = sorted.size();
    if (had == size())
        return sorted;
    const std::vector<Id> fresh = idsInPathOrder(static_cast<Id>(had));
    sorted.insert(sorted.end(), fresh.begin(), fresh.end());
    std::inplace_merge(sorted.begin(),
                       sorted.begin() + static_cast<std::ptrdiff_t>(had),
                       sorted.end(),
                       [this](Id a, Id b) { return pathLess(a, b); });
    return sorted;
}

std::vector<std::string>
MetricsRegistry::paths() const
{
    std::vector<std::string> all;
    all.reserve(size());
    PathBuf buf;
    for (const Id id : sortedIds())
        all.emplace_back(pathInto(id, buf));
    return all;
}

std::vector<std::string>
MetricsRegistry::children(const std::string &prefix) const
{
    const std::string want = prefix.empty() ? "" : prefix + ".";
    const std::vector<Id> &ids = sortedIds();
    PathBuf buf;
    auto it = std::lower_bound(ids.begin(), ids.end(), want,
                               [&](Id id, const std::string &w) {
                                   return pathInto(id, buf) < w;
                               });
    std::vector<std::string> kids;
    for (; it != ids.end(); ++it) {
        const std::string_view path = pathInto(*it, buf);
        if (!path.starts_with(want))
            break;
        const std::string_view rest = path.substr(want.size());
        if (!rest.empty() &&
            (kids.empty() || kids.back() != rest.substr(0, rest.find('.'))))
            kids.emplace_back(rest.substr(0, rest.find('.')));
    }
    std::sort(kids.begin(), kids.end());
    kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
    return kids;
}

void
MetricsRegistry::writeSnapshot(std::ostream &os) const
{
    writeMergedSnapshot(os, {this});
}

void
MetricsRegistry::writeMergedSnapshot(
    std::ostream &os, const std::vector<const MetricsRegistry *> &regs)
{
    // Every path of every registry in path order: each registry's
    // sorted ids form one run, and adjacent runs merge pairwise. Runs
    // merge by path text, so with several registries family paths are
    // written out once, into chunks that live for this call; with one,
    // a family path is produced when it is written (path left empty).
    struct Ref {
        const MetricsRegistry *reg;
        std::string_view path;
        Loc loc;
        Kind kind;
    };
    std::vector<Ref> refs;
    std::size_t total = 0;
    for (const MetricsRegistry *r : regs)
        total += r->sortedIds().size();
    refs.reserve(total);
    std::vector<std::size_t> bounds{0};
    std::vector<std::unique_ptr<char[]>> chunks;
    char *top = nullptr;
    std::size_t left = 0;
    PathBuf buf;
    for (const MetricsRegistry *r : regs) {
        for (const Id id : r->sortedIds()) {
            const Loc loc = r->locate(id);
            std::string_view path;
            if (loc.fam == nullptr)
                path = r->entryPath(loc.at);
            else if (regs.size() > 1) {
                path = r->pathAt(loc, buf);
                if (path.size() > left) {
                    left = std::max<std::size_t>(path.size(), 1 << 20);
                    chunks.push_back(
                        std::make_unique_for_overwrite<char[]>(left));
                    top = chunks.back().get();
                }
                std::copy(path.begin(), path.end(), top);
                path = {top, path.size()};
                top += path.size();
                left -= path.size();
            }
            refs.push_back({r, path, loc,
                            loc.fam != nullptr ? Kind::kProbe
                                               : r->entries[loc.at].kind});
        }
        bounds.push_back(refs.size());
    }
    const auto byPath = [](const Ref &a, const Ref &b) {
        return a.path < b.path;
    };
    const auto run = [&](std::size_t r) {  // start of run r; end past last
        return refs.begin() +
               static_cast<std::ptrdiff_t>(bounds[std::min(r, regs.size())]);
    };
    for (std::size_t step = 1; step < regs.size(); step *= 2)
        for (std::size_t i = 0; i + step < regs.size(); i += 2 * step)
            std::inplace_merge(run(i), run(i + step), run(i + 2 * step),
                               byPath);
    // One registry never holds a path twice; two may.
    for (std::size_t i = 1; regs.size() > 1 && i < refs.size(); ++i) {
        if (refs[i - 1].path == refs[i].path)
            sim::panicf("MetricsRegistry: path '", refs[i].path,
                        "' registered in more than one shard");
    }

    // One section per kind, each in path order.
    const char *open[] = {"{\"counters\":{", "},\"gauges\":{",
                          "},\"histograms\":{", "},\"probes\":{"};
    for (const Kind kind :
         {Kind::kCounter, Kind::kGauge, Kind::kHistogram, Kind::kProbe}) {
        os << open[static_cast<int>(kind)];
        bool first = true;
        for (const Ref &r : refs) {
            if (r.kind != kind)
                continue;
            os << (first ? "\"" : ",\"");
            first = false;
            detail::jsonEscape(os, r.path.empty() ? r.reg->pathAt(r.loc, buf)
                                                  : r.path);
            os << "\":";
            r.reg->writeValue(os, r.loc);
        }
    }
    os << "}}";
}

void
MetricsRegistry::writeValue(std::ostream &os, Loc loc) const
{
    using detail::jsonFields;
    if (loc.fam != nullptr) {
        os << "{";
        jsonFields(os, {{"value", probeValue(loc)}});
        os << "}";
        return;
    }
    const std::uint32_t slot = entries[loc.at].slot;
    switch (entries[loc.at].kind) {
    case Kind::kCounter:
        os << counters[slot].get();
        return;
    case Kind::kGauge: {
        const Gauge &g = gauges[slot];
        os << "{";
        jsonFields(os, {{"value", g.value()},
                        {"avg", g.timeAverage()},
                        {"peak", g.peak()}});
        break;
    }
    case Kind::kHistogram: {
        const sim::LogHistogram &h = histograms[slot];
        os << "{\"count\":" << h.count();
        if (h.count() > 0)
            jsonFields(os,
                       {{"mean", h.mean()}, {"min", h.min()},
                        {"max", h.max()}, {"p50", h.percentile(50.0)},
                        {"p90", h.percentile(90.0)},
                        {"p99", h.percentile(99.0)},
                        {"p999", h.percentile(99.9)}},
                       true);
        break;
    }
    case Kind::kProbe:
        os << "{";
        jsonFields(os, {{"value", probeValue(loc)}});
        break;
    }
    os << "}";
}

std::string
MetricsRegistry::mergedSnapshotJson(
    const std::vector<const MetricsRegistry *> &regs)
{
    std::ostringstream oss;
    writeMergedSnapshot(oss, regs);
    return oss.str();
}

std::string
MetricsRegistry::snapshotJson() const
{
    std::ostringstream oss;
    writeSnapshot(oss);
    return oss.str();
}

void
registerEventQueueProbes(MetricsRegistry &registry, const sim::EventQueue &eq)
{
    const sim::EventQueue *q = &eq;
    registry.registerProbe("sim.queue.events_per_sec", [q] {
        // Rate over *simulated* time, so same-seed runs snapshot
        // byte-identically regardless of host speed.
        if (q->now() <= 0)
            return 0.0;
        return static_cast<double>(q->eventsExecuted()) /
               (static_cast<double>(q->now()) * 1e-12);
    });
    registry.registerProbe("sim.queue.live", [q] {
        return static_cast<double>(q->size());
    });
    registry.registerProbe("sim.queue.cancelled", [q] {
        return static_cast<double>(q->eventsCancelled());
    });
    registry.registerProbe("sim.queue.wheel_overflow", [q] {
        return static_cast<double>(q->wheelOverflows());
    });
}

}  // namespace ccsim::obs
