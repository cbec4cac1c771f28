/**
 * @file
 * The one checked unsigned-integer parser, shared by every reader of
 * user input: CLI flags, the wire protocol, machine TOML and tenant
 * mix specs. strtoul-family calls silently accept `12abc` (parses
 * "12"), `-3` (wraps to a huge unsigned) and overflow (clamps to the
 * maximum with an errno nobody checks) — and a value that half-parsed
 * is worse than one that failed, because the run *looks* configured.
 * parseUInt accepts exactly `[0-9]+` within a caller-chosen bound and
 * reports everything else, so each caller fails loudly with its own
 * error policy. appendUInt() is its inverse: the digits the program
 * writes into canonical strings and reply frames, without printf.
 */

#ifndef LAPERM_COMMON_PARSE_UINT_HH
#define LAPERM_COMMON_PARSE_UINT_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace laperm {

/**
 * Parse a base-10 unsigned value no greater than @p max. Accepts only
 * `[0-9]+` — no sign, no whitespace, no trailing junk. @p out is
 * untouched on failure.
 */
inline bool
parseUInt(std::string_view s, std::uint64_t max, std::uint64_t &out)
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
        if (d > max || v > (max - d) / 10)
            return false; // past the bound
        v = v * 10 + d;
    }
    out = v;
    return true;
}

/** Append the decimal digits of @p v (std::to_string's spelling). */
inline void
appendUInt(std::string &out, std::uint64_t v)
{
    char buf[20];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

} // namespace laperm

#endif // LAPERM_COMMON_PARSE_UINT_HH
