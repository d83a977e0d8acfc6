/**
 * @file
 * The one text codec: every checksummed line format
 * ("scamv-qcache-v1", "scamv-shard-v1", "scamv-rpc-v1"), every number
 * read from a CLI flag, RPC field or environment variable, and every
 * artifact file written goes through these helpers.
 *
 * Line formats share one discipline: space-separated fields, string
 * fields percent-escaped (`esc`), the line ending in a hex fnv1a
 * checksum over everything before its final space.  Doubles travel
 * as `%.17g`, which round-trips every binary64 exactly.
 *
 * Number parsing is strict and whole-string: no leading whitespace,
 * no '+', no sign on unsigned values, no base prefix (`0x`), no
 * trailing bytes, and out-of-range magnitudes are rejected rather
 * than saturated.  Hex is lowercase only, as every writer emits it.
 * Integers are capped at 20 decimal / 16 hex characters, so a value
 * padded with leading zeros past its widest rendering is malformed.
 */

#ifndef SCAMV_SUPPORT_TEXTCODEC_HH
#define SCAMV_SUPPORT_TEXTCODEC_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace scamv::text {

/** FNV-1a over a string (stable across platforms and runs). */
std::uint64_t fnv1a(std::string_view s);

/** Lowercase hex without padding (`%llx`). */
std::string hex(std::uint64_t v);

/** Lowercase hex zero-padded to 16 digits (`%016llx`). */
std::string hex16(std::uint64_t v);

/** `%.17g`: the exact binary64 round-trip rendering. */
std::string g17(double v);

/**
 * Percent-escape a field: '%', ' ' and control bytes become `%XX`,
 * the empty string becomes "-" and a literal "-" becomes "%2D", so an
 * escaped field is never empty and never holds a space or newline.
 */
std::string esc(std::string_view s);

/** Inverse of esc.  @return nullopt on a truncated or non-hex escape. */
std::optional<std::string> unesc(std::string_view s);

/** Escape a string for the inside of a JSON string literal: quotes,
 *  backslashes and control bytes. */
std::string jsonEscape(std::string_view s);

/** Split on `sep`: n separators give n + 1 fields, empty ones kept. */
std::vector<std::string_view> split(std::string_view s, char sep = ' ');

/**
 * Pop the next '\n'-terminated line off `rest` into `line` (getline
 * semantics: a final unterminated line counts, a trailing '\n' does
 * not start an empty one).  @return false once `rest` is exhausted.
 */
bool nextLine(std::string_view &rest, std::string_view &line);

/** Checksum field rendering: 16 zero-padded hex digits (shard and
 *  RPC formats) or unpadded hex (qcache records). */
enum class SumWidth { Fixed, Minimal };

/** @return `line`, a space and the hex fnv1a checksum of `line`. */
std::string withChecksum(std::string_view line,
                         SumWidth width = SumWidth::Fixed);

/**
 * Verify a line's trailing checksum field and strip it.
 * @return the prefix before the final space, or nullopt when the
 * checksum field is missing, malformed for `width`, or wrong.
 */
std::optional<std::string_view>
checkLine(std::string_view line, SumWidth width = SumWidth::Fixed);

/**
 * Strict whole-string parse of an integer (`base` 10 or 16) or a
 * double (decimal, `inf` or `nan`, as `%.17g` prints them; results
 * that overflow or underflow to zero are rejected).
 * @return false, leaving `out` untouched, unless all of `s` is one
 * in-range value.
 */
template <class T>
bool
parseNum(std::string_view s, T &out, int base = 10)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    T v{};
    std::from_chars_result r{};
    if constexpr (std::is_floating_point_v<T>) {
        r = std::from_chars(s.data(), s.data() + s.size(), v);
    } else {
        if (s.size() > (base == 16 ? 16u : 20u) ||
            (base == 16 && s.find_first_of("ABCDEF") !=
                               std::string_view::npos))
            return false;
        r = std::from_chars(s.data(), s.data() + s.size(), v, base);
    }
    if (s.empty() || r.ec != std::errc() || r.ptr != s.data() + s.size())
        return false;
    out = v;
    return true;
}

/** parseNum plus a range check: @return the value iff it lies in
 *  [lo, hi]. */
template <class T>
std::optional<T>
parseInRange(std::string_view s, T lo, T hi)
{
    T v{};
    if (!parseNum(s, v) || !(v >= lo && v <= hi))
        return std::nullopt;
    return v;
}

/** Read a whole file.  @return nullopt when it cannot be opened or
 *  read. */
std::optional<std::string> readFile(const std::string &path);

/**
 * Write `text` to `path`, truncating it.  @return true only when
 * every byte was written and the file closed cleanly — a full disk
 * surfaces here (at the final flush), never as a short artifact that
 * reports success.
 */
bool writeFile(const std::string &path, std::string_view text);

} // namespace scamv::text

#endif // SCAMV_SUPPORT_TEXTCODEC_HH
