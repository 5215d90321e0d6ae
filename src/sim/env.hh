/**
 * @file
 * Centralized runtime environment-variable handling for the simulator.
 *
 * Every knob the simulator reads from the process environment goes
 * through this module, so the rules are uniform and stated once:
 *
 *   - each variable is parsed exactly once per process and the result
 *     cached (getenv + strtoull on every kernel-sweep decision is
 *     cheap, but "cheap" times hot paths is how heuristics drift);
 *   - malformed values are rejected loudly with std::invalid_argument
 *     naming the variable and the offending text — a typo in
 *     CRISC_BLOCK_BYTES must not silently fall back to autodetection;
 *   - an unset or empty variable means "no override" everywhere.
 *
 * The variables (see also the README "Runtime environment variables"
 * table):
 *
 *   CRISC_SIMD_DISPATCH  kernel backend override (sim/dispatch.hh)
 *   CRISC_BLOCK_BYTES    cache-block footprint override (sim/cache.hh)
 *
 * Tests that set these variables with setenv must call
 * resetForTesting() afterwards to drop the caches (the scoped helpers
 * in tests/sim_test_util.hh do).
 */

#ifndef CRISC_SIM_ENV_HH
#define CRISC_SIM_ENV_HH

#include <cstddef>
#include <string>

namespace crisc {
namespace sim {
namespace env {

/**
 * The CRISC_BLOCK_BYTES override as a raw byte count, or 0 when the
 * variable is unset, empty, or "0" (an explicit "no override").
 * Clamping to [kMinBlockBytes, kMaxBlockBytes] is the caller's policy
 * (sim/cache.hh), not a parsing concern.
 * @throws std::invalid_argument when the value is not a decimal byte
 *         count (e.g. "banana", "12abc", "-4").
 */
std::size_t blockBytes();

/**
 * The raw CRISC_SIMD_DISPATCH value, or "" when unset. Interpretation
 * (backend names, "auto") stays with sim/dispatch.hh, which already
 * rejects unknown names loudly; this accessor only centralizes the
 * lookup and caching.
 */
const std::string &simdDispatch();

/**
 * Drops every cached parse so the next accessor call re-reads the
 * environment. For tests that setenv/unsetenv the variables above;
 * production code never needs it.
 */
void resetForTesting();

} // namespace env
} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_ENV_HH
