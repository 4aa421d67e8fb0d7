/**
 * @file
 * The scaffolding every plain bench shares: its command line, read
 * against one declared flag table (`Flags`), and the merge-writer for
 * the benchmark-trajectory files (`BENCH_*.json`).
 *
 * Perf-sensitive binaries (micro_throughput, fig08_load_vs_latency,
 * fig07_production_5day, ...) each record their headline numbers as a
 * flat {"key": value} JSON object in a shared file, so every perf PR has
 * a machine-readable baseline to compare against and CI can archive the
 * trajectory as an artifact.
 *
 * Writers merge: existing keys not produced by the current run are
 * rewritten unchanged, so running several binaries in any order yields
 * one combined file. Every write also records where the numbers came
 * from under `provenance.*` (commit, build type, core count, command
 * line); the last writer's provenance wins. Keys are emitted sorted with
 * fixed formatting, making the file diffable across runs.
 */
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "obs/json_util.hpp"
#include "sim/logging.hpp"

#ifndef CCSIM_BUILD_TYPE
#define CCSIM_BUILD_TYPE "unknown"
#endif

namespace ccsim::bench {

/** Flat key → value benchmark results. */
using BenchValues = std::map<std::string, double>;

/** A BENCH file's values as the JSON text they are written as. */
using RawBenchJson = std::map<std::string, std::string>;

/** @p s as a JSON string literal. */
inline std::string
quoted(std::string_view s)
{
    std::string q = "\"";
    obs::detail::jsonEscape(q, s);
    return q + "\"";
}

/** @p v as a BENCH value: `%.17g`, or null when it is not finite. */
inline std::string
benchJsonNumber(double v)
{
    char buf[32] = "null";
    if (std::isfinite(v))
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Where this run's numbers came from: the commit as `git describe
 * --always --dirty` names it in the working directory ("unknown" outside
 * a checkout), the CMake build type, the core count, and the command
 * line.
 */
inline RawBenchJson
benchProvenance()
{
    std::string commit;
    if (FILE *git = popen("git describe --always --dirty 2>/dev/null", "r")) {
        char buf[128];
        if (std::fgets(buf, sizeof buf, git) != nullptr)
            commit = buf;
        pclose(git);
    }
    while (!commit.empty() && std::isspace(static_cast<unsigned char>(
                                  commit.back())))
        commit.pop_back();
    std::string command;
    std::ifstream cmdline("/proc/self/cmdline", std::ios::binary);
    for (std::string arg; std::getline(cmdline, arg, '\0');)
        command += (command.empty() ? "" : " ") + arg;
    return {
        {"provenance.build_type", quoted(CCSIM_BUILD_TYPE)},
        {"provenance.command",
         quoted(command.empty() ? "unknown" : command)},
        {"provenance.commit",
         quoted(commit.empty() ? "unknown" : commit)},
        {"provenance.cores",
         std::to_string(std::thread::hardware_concurrency())},
    };
}

/**
 * Merge @p values and this run's provenance over whatever @p path
 * already holds and rewrite it, keys sorted, one per line.
 */
inline void
mergeBenchJson(const std::string &path, const BenchValues &values)
{
    using Kind = obs::JsonValue::Kind;
    RawBenchJson merged;
    if (std::ifstream in(path); in) {
        std::stringstream ss;
        ss << in.rdbuf();
        const auto old = obs::parseJson(ss.str());
        if (!old || old->kind != Kind::kObject)
            sim::fatalf(path, " is not a JSON object; move it away");
        for (const auto &[k, v] : old->obj) {
            if (v.kind != Kind::kString && v.kind != Kind::kNumber &&
                v.kind != Kind::kNull)
                sim::fatalf(path, ": ", k, " is not a number or a string");
            merged[k] = v.kind == Kind::kString ? quoted(v.str)
                        : v.kind == Kind::kNull ? "null"
                                                : benchJsonNumber(v.number);
        }
    }
    for (const auto &[k, v] : values)
        merged[k] = benchJsonNumber(v);
    for (auto &[k, v] : benchProvenance())
        merged[k] = std::move(v);

    std::ofstream out(path);
    out << "{\n";
    bool first = true;
    for (const auto &[k, v] : merged) {
        out << (first ? "" : ",\n") << "  " << quoted(k) << ": " << v;
        first = false;
    }
    out << "\n}\n";
}

/** Host seconds since @p since. */
inline double
wallSeconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

/**
 * Peak resident set size of this process in KiB (VmHWM), or -1 when the
 * platform does not expose it.
 */
inline long
peakRssKb()
{
#ifdef __linux__
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    }
#endif
    return -1;
}

/**
 * One flag of a bench's table: its name and, for a flag that takes a
 * value, the value spec, which the usage line prints as is: "N" is an
 * integer >= 1, and "a|b" is one of the words a and b. A flag without a
 * spec is a switch.
 */
struct Flag {
    std::string_view name;
    std::string_view value = {};
};

/**
 * A bench's command line, read against the table of the flags it
 * accepts. An unknown flag, a missing value or a malformed value is
 * fatal before any run, with a usage line generated from the table. A
 * flag given twice keeps its last value.
 */
class Flags
{
  public:
    Flags(int argc, char **argv, std::initializer_list<Flag> table)
    {
        const std::string_view self = argv[0];
        std::string usage = "usage: ";
        usage += self.substr(self.rfind('/') + 1);
        for (const Flag &f : table)
            usage += " [" + std::string(f.name) +
                     (f.value.empty() ? "" : " ") + std::string(f.value) + "]";
        for (int i = 1; i < argc; ++i) {
            const std::string_view arg = argv[i];
            const Flag *f = std::find_if(
                table.begin(), table.end(),
                [arg](const Flag &flag) { return flag.name == arg; });
            if (f == table.end())
                sim::fatalf("unknown flag '", arg, "'\n", usage);
            if (!f->value.empty() && i + 1 == argc)
                sim::fatalf(arg, " wants a value\n", usage);
            const std::string_view v = f->value.empty() ? "" : argv[++i];
            if (!valid(f->value, v))
                sim::fatalf(arg, " wants ", f->value == "N" ? "an integer >= 1"
                                                            : f->value,
                            " (got '", v, "')\n", usage);
            given[std::string(arg)] = v;
        }
    }

    /** Whether flag @p name was given. */
    bool has(std::string_view name) const
    {
        return given.find(name) != given.end();
    }

    /** Flag @p name's value, or @p dflt when it was not given. */
    std::string value(std::string_view name, std::string dflt) const
    {
        const auto it = given.find(name);
        return it == given.end() ? dflt : it->second;
    }

    /** Integer flag @p name's value, or @p dflt when it was not given. */
    int number(std::string_view name, int dflt) const
    {
        return has(name) ? std::stoi(value(name, "")) : dflt;
    }

  private:
    std::map<std::string, std::string, std::less<>> given;

    /** Whether @p v fits value spec @p spec (see Flag). */
    static bool valid(std::string_view spec, std::string_view v)
    {
        if (spec != "N")
            return spec.empty() || ("|" + std::string(spec) + "|")
                                           .find("|" + std::string(v) + "|") !=
                                       std::string::npos;
        int n = 0;
        const char *end = v.data() + v.size();
        const auto [ptr, ec] = std::from_chars(v.data(), end, n);
        return ec == std::errc{} && ptr == end && n >= 1;
    }
};

}  // namespace ccsim::bench
