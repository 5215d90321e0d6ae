/**
 * @file
 * Runtime ISA dispatch for the statevector kernels. Every binary
 * carries one KernelTable of function pointers per SIMD backend the
 * compiler could build: the scalar table (the sim::scalar kernels,
 * kernels.cc) always, and the AVX2 table (kernels_avx2.cc) on x86-64
 * when the compiler accepts -mavx2 — see CMakeLists.txt. This header
 * exposes the probe-and-pick layer that chooses among them once per
 * process:
 *
 *   - activeBackend() / backendName(): the resolved backend, decided on
 *     first kernel use from the CRISC_SIMD_DISPATCH environment
 *     variable, or by CPU probe when the variable is unset or "auto"
 *     (probe order avx2 > scalar, first backend that is both
 *     compiled in and supported by the host).
 *   - activeKernels(): the resolved KernelTable — the one entry path
 *     to the SIMD gate kernels. The engine's executeOpRange is the only
 *     library code that calls a table entry (circuit::State runs its
 *     gates through the engine too): one atomic load plus one indirect
 *     call per kernel sweep, never per amplitude. Tests pin every
 *     compiled table through kernelTable(b).
 *   - setDispatchOverride(): in-process re-resolution with the same
 *     semantics as the environment variable, used by tests to force
 *     each backend on one binary and by perfbench/ for its
 *     forced-scalar correctness oracle.
 *
 * The choice is process-global: one table pointer serves every thread,
 * plan, and trajectory, resolved once, so no caller has a backend to
 * pass around. Kernels with no SIMD body (the dense k >= 3 fallback and
 * the Pauli noise kernels) are not in the table: each has one scalar
 * definition per layout in kernels.cc that every backend calls.
 * Unknown override names throw
 * std::invalid_argument; names of backends that are not compiled in or
 * not supported by this CPU throw std::runtime_error — never a silent
 * fallback. Every backend is bit-identical to sim::scalar on finite
 * amplitudes (see simd.hh), so switching backends never changes
 * results, only throughput.
 */

#ifndef CRISC_SIM_DISPATCH_HH
#define CRISC_SIM_DISPATCH_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hh"

namespace crisc {
namespace sim {

using linalg::Complex;

/** The kernel backends a binary can carry. Values index probe order
 *  metadata; the set actually compiled in is compiledBackends(). */
enum class Backend
{
    Scalar = 0,
    Avx2,
};

/**
 * One backend's SIMD kernel surface as 8 function pointers: the 1q,
 * 1q-diagonal, 2q and 2q-diagonal group-range kernels, on an
 * interleaved statevector and on SoA batch lanes (a full sweep is the
 * range [0, groups)). Only kernels with a SIMD body belong here; the
 * dense k >= 3 kernel (sim::applyDenseRange / applyDenseBatchRange) and
 * the Pauli noise kernels (sim::applyPauli / applyPauliLane) have one
 * scalar definition per layout. All entries of every registered table
 * are non-null — tests pin this.
 */
struct KernelTable
{
    Backend backend = Backend::Scalar;
    const char *name = "scalar";
    std::size_t lanes = 1;

    // Interleaved statevector.
    void (*apply1qRange)(Complex *, std::size_t, std::size_t,
                         const Complex *, std::size_t,
                         std::size_t) = nullptr;
    void (*apply1qDiagRange)(Complex *, std::size_t, std::size_t, Complex,
                             Complex, std::size_t, std::size_t) = nullptr;
    void (*apply2qRange)(Complex *, std::size_t, std::size_t, std::size_t,
                         const Complex *, std::size_t,
                         std::size_t) = nullptr;
    void (*apply2qDiagRange)(Complex *, std::size_t, std::size_t,
                             std::size_t, const Complex *, std::size_t,
                             std::size_t) = nullptr;

    // SoA batch lanes (SIMD lanes across trajectories).
    void (*apply1qBatchRange)(double *, double *, std::size_t, std::size_t,
                              std::size_t, const Complex *, std::size_t,
                              std::size_t) = nullptr;
    void (*apply1qDiagBatchRange)(double *, double *, std::size_t,
                                  std::size_t, std::size_t, Complex,
                                  Complex, std::size_t,
                                  std::size_t) = nullptr;
    void (*apply2qBatchRange)(double *, double *, std::size_t, std::size_t,
                              std::size_t, std::size_t, const Complex *,
                              std::size_t, std::size_t) = nullptr;
    void (*apply2qDiagBatchRange)(double *, double *, std::size_t,
                                  std::size_t, std::size_t, std::size_t,
                                  const Complex *, std::size_t,
                                  std::size_t) = nullptr;
};

/** Display name of a backend ("scalar", "avx2"). */
const char *backendName(Backend b);

/** The backends compiled into this binary, in probe order (always
 *  contains Backend::Scalar). */
std::vector<Backend> compiledBackends();

/** Whether @p b was compiled into this binary. */
bool backendCompiled(Backend b);

/** Whether this CPU can execute @p b (cpuid on x86; AVX2 is never
 *  supported elsewhere). Scalar is always supported. Independent of
 *  whether the backend is compiled in. */
bool hostSupports(Backend b);

/**
 * The kernel table of a specific compiled backend (tests iterate
 * these).
 * @throws std::runtime_error if @p b is not compiled into this binary.
 */
const KernelTable &kernelTable(Backend b);

/**
 * Parses a CRISC_SIMD_DISPATCH value: "scalar" / "avx2" name a backend;
 * "auto" (or empty) returns nullopt, meaning probe.
 * @throws std::invalid_argument on any other value.
 */
std::optional<Backend> parseDispatchOverride(const std::string &value);

/**
 * The backend serving this process, resolving it on first call: the
 * CRISC_SIMD_DISPATCH environment variable if set (reject-loud
 * semantics as above), else the CPU probe (avx2 > scalar among
 * compiled-in backends). Deterministic for a given environment and
 * host.
 */
Backend activeBackend();

/** backendName(activeBackend()). */
const char *backendName();

/** The resolved kernel table (resolves on first call, like
 *  activeBackend()). */
const KernelTable &activeKernels();

/**
 * Re-resolves the process-global backend from @p value with the exact
 * CRISC_SIMD_DISPATCH semantics ("auto" re-probes). Takes effect for
 * every subsequent sweep in the process; in-flight sweeps keep the
 * table they fetched. Intended for tests and perfbench/ — production
 * binaries use the environment variable.
 * @throws std::invalid_argument on an unknown name.
 * @throws std::runtime_error on a backend that is not compiled in or
 *         not supported by this CPU.
 */
void setDispatchOverride(const std::string &value);

/**
 * Records the resolved backend and lane count as obs gauges
 * ("sim.dispatch.backend", "sim.dispatch.lanes"). Called automatically
 * when the backend resolves; call again after starting a TraceSession
 * to stamp the gauges into that session's trace (gauges set while
 * tracing is off are dropped).
 */
void recordDispatchGauges();

namespace detail {

// Per-backend table builders: the scalar one in kernels.cc, each ISA's
// in its kernels_<isa>.cc; dispatch.cc references the ISA tables CMake
// compiled in (guarded by the CRISC_HAVE_KERNELS_* definitions it sets).
const KernelTable &scalarKernelTable();
const KernelTable &avx2KernelTable();

} // namespace detail

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_DISPATCH_HH
