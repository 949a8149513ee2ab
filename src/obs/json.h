/**
 * @file
 * The JSON pieces every obs/ exporter shares: string escaping, finite
 * numbers, and 64-bit ids as hex strings.
 */
#ifndef F1_OBS_JSON_H
#define F1_OBS_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

namespace f1::obs {

/** Writes `s` as a quoted JSON string (RFC 8259 escapes; other
 *  control bytes as \\u00XX). */
inline void
appendJsonString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

/** JSON numbers must not be NaN/inf; those are written as 0. */
inline void
appendJsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os << buf;
}

/** "0x%016llx": full 64-bit ids survive consumers that parse JSON
 *  numbers as doubles. */
inline std::string
hexId(uint64_t id)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(id));
    return buf;
}

} // namespace f1::obs

#endif // F1_OBS_JSON_H
