/**
 * @file
 * Shared JSON emission helpers for the observability exporters. Both the
 * snapshot and trace writers must be byte-deterministic, so all number
 * formatting funnels through one fixed format.
 */
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace ccsim::obs::detail {

/** Append @p s to a stream or to a string being built. */
inline void
put(std::ostream &os, std::string_view s)
{
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline void
put(std::string &out, std::string_view s)
{
    out.append(s);
}

/**
 * Minimal JSON string escaping (metric paths/names are ASCII). Runs that
 * need no escape are written whole: snapshots emit ~200k paths.
 */
template <typename Out>
void
jsonEscape(Out &out, std::string_view s)
{
    std::size_t run = 0;  // first character not yet written
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        const char *esc = c == '"'  ? "\\\""
                          : c == '\\' ? "\\\\"
                          : c == '\n' ? "\\n"
                          : c == '\t' ? "\\t"
                                      : nullptr;
        if (esc == nullptr && static_cast<unsigned char>(c) >= 0x20)
            continue;
        put(out, s.substr(run, i - run));
        run = i + 1;
        if (esc != nullptr) {
            put(out, esc);
        } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            put(out, buf);
        }
    }
    put(out, s.substr(run));
}

/**
 * Deterministic round-trippable double formatting: shortest
 * representation that parses back to the same bits. Non-finite values
 * (empty-histogram min/max) are mapped to null, which JSON can carry.
 * std::to_chars is an order of magnitude faster than snprintf %.17g,
 * which matters to the per-window export hot path.
 */
template <typename Out>
void
jsonNumber(Out &out, double v)
{
    if (!std::isfinite(v)) {
        put(out, "null");
        return;
    }
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    put(out, std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

/** An unsigned integer in decimal, as operator<< writes it. */
template <typename Out>
void
jsonUint(Out &out, std::uint64_t v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    put(out, std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

/**
 * `"key":number` for each field in order, comma-separated; with
 * @p leading_comma the first field is preceded by a comma too.
 */
template <typename Out>
void
jsonFields(Out &out,
           std::initializer_list<std::pair<const char *, double>> fields,
           bool leading_comma = false)
{
    for (const auto &[key, v] : fields) {
        put(out, leading_comma ? ",\"" : "\"");
        put(out, key);
        put(out, "\":");
        jsonNumber(out, v);
        leading_comma = true;
    }
}

}  // namespace ccsim::obs::detail
