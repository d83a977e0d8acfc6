/**
 * @file
 * Validated environment-variable parsing.
 *
 * `std::atof`-style parsing silently turns malformed values into 0,
 * which then masquerades as "fall back to the default" without any
 * indication that the user's setting was dropped.  These helpers
 * parse with the strict codec parser (support/textcodec.hh) — the
 * whole value must be one in-range number, so `SCAMV_THREADS=4x`,
 * " 4", "+4" and overflowing magnitudes are rejected, not truncated
 * or saturated; only trailing blanks are tolerated — and warn,
 * naming the offending variable, so a bad setting is an observable
 * user error rather than a silent no-op.
 */

#ifndef SCAMV_SUPPORT_ENV_HH
#define SCAMV_SUPPORT_ENV_HH

#include <cstdint>
#include <optional>

namespace scamv {

/**
 * Parse an environment variable as a double.
 * @return the value, or nullopt when the variable is unset or does
 *         not parse as a complete finite number (a warning naming
 *         the variable is printed in the malformed case).
 */
std::optional<double> envDouble(const char *name);

/**
 * Parse an environment variable as a double constrained to
 * [lo, hi].  Values outside the range are rejected with a warning
 * that names the variable and the bounds.
 */
std::optional<double> envDouble(const char *name, double lo, double hi);

/**
 * Parse an environment variable as a long.
 * @return the value, or nullopt when unset or malformed — trailing
 *         garbage and magnitudes overflowing long are both rejected
 *         with a warning naming the variable.
 */
std::optional<long> envLong(const char *name);

/**
 * Parse an environment variable as a long constrained to [lo, hi].
 * Values outside the range are rejected with a warning that names
 * the variable and the bounds.
 */
std::optional<long> envLong(const char *name, long lo, long hi);

} // namespace scamv

#endif // SCAMV_SUPPORT_ENV_HH
