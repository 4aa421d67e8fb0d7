/**
 * @file
 * The project's one JSON module. The writer half (obs::detail) holds the
 * emission helpers of the observability exporters: both the snapshot and
 * trace writers must be byte-deterministic, so all number formatting
 * funnels through one fixed format. The reader half (obs::JsonValue,
 * obs::parseJson) reads that output back for ccsim_report, the tests
 * and the BENCH-file merge.
 */
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

namespace ccsim::obs {

/** One parsed JSON value; an object keeps its members in document order. */
struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    /** The first member named @p key, or nullptr. */
    const JsonValue *find(std::string_view key) const
    {
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }
    /** The member named @p key; throws std::out_of_range when absent. */
    const JsonValue &at(std::string_view key) const
    {
        if (const JsonValue *v = find(key))
            return *v;
        throw std::out_of_range("no JSON member " + std::string(key));
    }
    /** Member @p key's number, or @p dflt when it is absent or no number. */
    double numOr(std::string_view key, double dflt) const
    {
        const JsonValue *v = find(key);
        return v != nullptr && v->kind == Kind::kNumber ? v->number : dflt;
    }
    /** Member @p key's string, or @p dflt when it is absent or no string. */
    std::string strOr(std::string_view key, std::string dflt) const
    {
        const JsonValue *v = find(key);
        return v != nullptr && v->kind == Kind::kString ? v->str : dflt;
    }
};

/**
 * Recursive-descent reader of the JSON the exporters write: null, bool,
 * number, string, array and object. `ok` turns false at the first syntax
 * error, after which the value read so far means nothing. The writers
 * emit only ASCII, so a `\uXXXX` escape decodes to '?'; `\n`, `\t` and
 * `\r` decode to their control characters and any other escaped
 * character to itself.
 */
class JsonReader
{
  public:
    explicit JsonReader(std::string_view text)
        : p(text.data()), end(text.data() + text.size()) {}

    /** The whole text as one value; trailing non-blank text is an error. */
    JsonValue parse()
    {
        JsonValue v = value();
        ws();
        ok = ok && p == end;
        return v;
    }

    bool ok = true;

  private:
    using Kind = JsonValue::Kind;

    const char *p;
    const char *end;

    void ws()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    /** Skip blanks, then consume @p c if it is next. */
    bool eat(char c)
    {
        ws();
        if (p == end || *p != c)
            return false;
        ++p;
        return true;
    }

    void literal(std::string_view word)
    {
        ok = ok && std::string_view(p, static_cast<std::size_t>(end - p))
                       .starts_with(word);
        p += ok ? word.size() : 0;
    }

    std::string string()
    {
        std::string s;
        if (!eat('"')) {
            ok = false;
            return s;
        }
        for (; p < end && *p != '"'; ++p) {
            if (*p != '\\' || p + 1 == end) {
                s += *p;
                continue;
            }
            switch (*++p) {
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            case 'r': s += '\r'; break;
            case 'u':
                if (end - p >= 5) {
                    s += '?';
                    p += 4;
                }
                break;
            default: s += *p; break;
            }
        }
        if (p == end)
            ok = false;
        else
            ++p;
        return s;
    }

    JsonValue value()
    {
        JsonValue v;
        ws();
        if (p == end) {
            ok = false;
            return v;
        }
        switch (*p) {
        case '{':
        case '[': {
            const char close = *p++ == '{' ? '}' : ']';
            v.kind = close == '}' ? Kind::kObject : Kind::kArray;
            if (eat(close))
                return v;
            do {
                if (v.kind == Kind::kArray) {
                    v.arr.push_back(value());
                    continue;
                }
                std::string key = string();
                if (!eat(':')) {
                    ok = false;
                    return v;
                }
                v.obj.emplace_back(std::move(key), value());
            } while (ok && eat(','));
            if (!eat(close))
                ok = false;
            return v;
        }
        case '"':
            v.kind = Kind::kString;
            v.str = string();
            return v;
        case 't':
            v.kind = Kind::kBool;
            v.boolean = true;
            literal("true");
            return v;
        case 'f':
            v.kind = Kind::kBool;
            literal("false");
            return v;
        case 'n':
            literal("null");
            return v;
        default: {
            v.kind = Kind::kNumber;
            const auto r = std::from_chars(p, end, v.number);
            if (r.ptr == p)
                ok = false;
            p = r.ptr;
            return v;
        }
        }
    }
};

/** @p text read as one JSON value, or nullopt when it is not valid JSON. */
inline std::optional<JsonValue>
parseJson(std::string_view text)
{
    JsonReader reader(text);
    JsonValue v = reader.parse();
    if (!reader.ok)
        return std::nullopt;
    return v;
}

}  // namespace ccsim::obs
