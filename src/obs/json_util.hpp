/**
 * @file
 * Shared JSON emission helpers for the observability exporters. Both the
 * snapshot and trace writers must be byte-deterministic, so all number
 * formatting funnels through one fixed format.
 */
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <ostream>
#include <string_view>
#include <utility>

namespace ccsim::obs::detail {

/**
 * Minimal JSON string escaping (metric paths/names are ASCII). Runs that
 * need no escape are written whole: snapshots emit ~200k paths.
 */
inline void
jsonEscape(std::ostream &os, std::string_view s)
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
        os.write(s.data() + run, static_cast<std::streamsize>(i - run));
        run = i + 1;
        if (esc != nullptr) {
            os << esc;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            os << buf;
        }
    }
    os.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
}

/**
 * Deterministic round-trippable double formatting: shortest
 * representation that parses back to the same bits. Non-finite values
 * (empty-histogram min/max) are mapped to null, which JSON can carry.
 * std::to_chars is an order of magnitude faster than snprintf %.17g,
 * which matters to the per-window export hot path.
 */
inline void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    os << std::string_view(buf, static_cast<std::size_t>(r.ptr - buf));
}

/**
 * `"key":number` for each field in order, comma-separated; with
 * @p leading_comma the first field is preceded by a comma too.
 */
inline void
jsonFields(std::ostream &os,
           std::initializer_list<std::pair<const char *, double>> fields,
           bool leading_comma = false)
{
    for (const auto &[key, v] : fields) {
        os << (leading_comma ? ",\"" : "\"") << key << "\":";
        jsonNumber(os, v);
        leading_comma = true;
    }
}

}  // namespace ccsim::obs::detail
