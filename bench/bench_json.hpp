/**
 * @file
 * Tiny merge-writer for the benchmark-trajectory files (`BENCH_*.json`).
 *
 * Perf-sensitive binaries (micro_throughput, fig08_load_vs_latency,
 * fig07_production_5day, ...) each record their headline numbers as a
 * flat {"key": value} JSON object in a shared file, so every perf PR has
 * a machine-readable baseline to compare against and CI can archive the
 * trajectory as an artifact.
 *
 * Writers merge: existing keys not produced by the current run are
 * preserved, so running several binaries in any order yields one
 * combined file. Every write also records where the numbers came from
 * under `provenance.*` (commit, build type, core count, command line);
 * the last writer's provenance wins. Keys are emitted sorted with fixed
 * formatting, making the file diffable across runs.
 */
#pragma once

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "sim/logging.hpp"

#ifndef CCSIM_BUILD_TYPE
#define CCSIM_BUILD_TYPE "unknown"
#endif

namespace ccsim::bench {

/** Flat key → value benchmark results. */
using BenchValues = std::map<std::string, double>;

/** A BENCH file's values as JSON text: numbers as written, strings quoted. */
using RawBenchJson = std::map<std::string, std::string>;

/** Parse a flat {"key": number-or-string} object (as mergeBenchJson writes). */
inline RawBenchJson
parseBenchJson(const std::string &text)
{
    RawBenchJson out;
    std::size_t i = 0;
    const std::size_t n = text.size();
    while (i < n) {
        while (i < n && text[i] != '"')
            ++i;
        if (i >= n)
            break;
        const std::size_t keyStart = ++i;
        while (i < n && text[i] != '"')
            ++i;
        if (i >= n)
            break;
        const std::string key = text.substr(keyStart, i - keyStart);
        ++i;
        while (i < n && (std::isspace(static_cast<unsigned char>(text[i])) ||
                         text[i] == ':'))
            ++i;
        const std::size_t valStart = i;
        if (i < n && text[i] == '"') {
            for (++i; i < n && text[i] != '"'; ++i)
                if (text[i] == '\\')
                    ++i;  // the escaped character
            if (i >= n)
                break;
            out[key] = text.substr(valStart, ++i - valStart);
            continue;
        }
        char *end = nullptr;
        std::strtod(text.c_str() + i, &end);
        if (end == text.c_str() + i)
            continue;  // neither a number nor a string: skip
        i = static_cast<std::size_t>(end - text.c_str());
        out[key] = text.substr(valStart, i - valStart);
    }
    return out;
}

/** @p s as a JSON string literal. */
inline std::string
benchJsonString(const std::string &s)
{
    std::string q = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            q += '\\';
        q += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return q + "\"";
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
        {"provenance.build_type", benchJsonString(CCSIM_BUILD_TYPE)},
        {"provenance.command",
         benchJsonString(command.empty() ? "unknown" : command)},
        {"provenance.commit",
         benchJsonString(commit.empty() ? "unknown" : commit)},
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
    RawBenchJson merged;
    {
        std::ifstream in(path);
        if (in) {
            std::stringstream ss;
            ss << in.rdbuf();
            merged = parseBenchJson(ss.str());
        }
    }
    for (const auto &[k, v] : values) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        merged[k] = buf;
    }
    for (auto &[k, v] : benchProvenance())
        merged[k] = std::move(v);

    std::ofstream out(path);
    out << "{\n";
    bool first = true;
    for (const auto &[k, v] : merged) {
        out << (first ? "" : ",\n") << "  \"" << k << "\": " << v;
        first = false;
    }
    out << "\n}\n";
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
 * The value of @p bench's `--shards` flag: an integer >= 1. Anything
 * else is fatal, naming the flag.
 */
inline int
shardsFlag(const char *bench, const char *value)
{
    const char *end = value + std::strlen(value);
    int shards = 0;
    const auto [ptr, ec] = std::from_chars(value, end, shards);
    if (ec != std::errc{} || ptr != end || shards < 1)
        sim::fatalf(bench, ": --shards wants an integer >= 1 (got '", value,
                    "')");
    return shards;
}

}  // namespace ccsim::bench
