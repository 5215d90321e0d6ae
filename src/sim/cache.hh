/**
 * @file
 * Cache-geometry heuristics for blocked plan execution (engine.hh).
 *
 * Above ~23 qubits a statevector (2^n * 16 B) falls out of the last-
 * level cache and every kernel sweep streams the whole register from
 * DRAM; the blocked executor instead tiles a run of compatible kernel
 * ops over contiguous amplitude blocks sized to stay resident in L2.
 * This header owns the geometry questions that sizing needs: how many
 * bytes one block should occupy (cacheBlockBytes), the block exponent
 * that footprint implies for a given register (autoBlockQubits), and
 * the block exponent a requested one resolves to (resolveBlockQubits).
 */

#ifndef CRISC_SIM_CACHE_HH
#define CRISC_SIM_CACHE_HH

#include <cstddef>

namespace crisc {
namespace sim {

/** Lower clamp of cacheBlockBytes(): one block never shrinks below a
 *  page (256 amplitudes — smaller tiles drown in loop overhead). */
constexpr std::size_t kMinBlockBytes = std::size_t{4} * 1024;

/** Upper clamp of cacheBlockBytes(): no cache is bigger than this, and
 *  a larger block would be indistinguishable from "off". */
constexpr std::size_t kMaxBlockBytes = std::size_t{1} << 30;

/** Documented fallback when no cache size can be detected: half of a
 *  typical 1 MiB per-core L2. */
constexpr std::size_t kFallbackBlockBytes = std::size_t{512} * 1024;

/**
 * Registers at least this wide turn blocking on under the auto policy
 * (resolveBlockQubits(0, n), which execute() applies): 2^24 amplitudes
 * are 256 MiB — past every L2 and most LLCs — while narrower registers
 * fit some cache level and per-op sweeps stay cheap.
 */
constexpr std::size_t kAutoBlockFromWidth = 24;

/**
 * Target footprint in bytes of one amplitude block for blocked
 * execution: half the detected per-core L2 data cache
 * (sysconf(_SC_LEVEL2_CACHE_SIZE)) — half, so the block shares the
 * cache with the rest of the working set — clamped to
 * [kMinBlockBytes, kMaxBlockBytes], or kFallbackBlockBytes when
 * detection is unavailable or reports nothing.
 */
std::size_t cacheBlockBytes();

/**
 * The block exponent a footprint of @p bytes implies for an n-qubit
 * register: the largest b with 2^b amplitudes (16 B each) not
 * exceeding @p bytes, clamped to [1, n_qubits] (0 for n_qubits == 0).
 */
std::size_t blockQubitsForBytes(std::size_t bytes, std::size_t n_qubits);

/** blockQubitsForBytes(cacheBlockBytes(), n_qubits). */
std::size_t autoBlockQubits(std::size_t n_qubits);

/**
 * Resolves a requested block exponent for an n-qubit plan into an
 * effective one: 0 (auto, what execute() uses) enables blocking at
 * autoBlockQubits(n) for registers of at least kAutoBlockFromWidth
 * qubits and disables it (returns 0) below; any other value forces
 * blocking at that exponent, clamped to [1, n_qubits] (b == n_qubits
 * is the degenerate single-block form, equivalent to unblocked
 * execution). A return of 0 means "execute unblocked".
 */
std::size_t resolveBlockQubits(std::size_t requested, std::size_t n_qubits);

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_CACHE_HH
