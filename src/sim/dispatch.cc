#include "dispatch.hh"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>

#include "obs/obs.hh"
#include "sim/env.hh"
#include "sim/kernels.hh"

// Runtime backend resolution (see dispatch.hh) and the public sim::
// kernel wrappers: circuit/noise/tests call the wrappers (one table
// fetch per kernel call), while the engine's executeOpRange fetches
// activeKernels() once per sweep and invokes table entries directly.

namespace crisc {
namespace sim {

namespace {

// Compiled-in table getters, in probe preference order (best first).
// CMake defines CRISC_HAVE_KERNELS_* for exactly the stamp TUs it adds
// to the build; referencing a getter without its TU would not link.
struct BackendSlot
{
    Backend backend;
    const KernelTable &(*table)();
};

constexpr BackendSlot kSlots[] = {
#if defined(CRISC_HAVE_KERNELS_AVX512)
    {Backend::Avx512, &detail::avx512KernelTable},
#endif
#if defined(CRISC_HAVE_KERNELS_AVX2)
    {Backend::Avx2, &detail::avx2KernelTable},
#endif
#if defined(CRISC_HAVE_KERNELS_NEON)
    {Backend::Neon, &detail::neonKernelTable},
#endif
    {Backend::Scalar, &detail::scalarKernelTable},
};

/** The resolved table; null until first use. One atomic acquire-load
 *  per activeKernels() call — the sweep-level cost of dispatch. */
std::atomic<const KernelTable *> g_active{nullptr};

/** Serializes resolution and override changes (the load fast path stays
 *  lock-free). */
std::mutex g_resolveMutex;

const KernelTable *
slotFor(Backend b)
{
    for (const BackendSlot &s : kSlots)
        if (s.backend == b)
            return &s.table();
    return nullptr;
}

/** Best compiled-in backend this CPU supports; scalar worst case. */
const KernelTable &
probe()
{
    for (const BackendSlot &s : kSlots)
        if (hostSupports(s.backend))
            return s.table();
    return detail::scalarKernelTable();
}

/** Resolves an override string with CRISC_SIMD_DISPATCH semantics:
 *  probe on "auto"/empty, reject-loud otherwise (dispatch.hh). */
const KernelTable &
resolve(const std::string &value)
{
    const std::optional<Backend> forced = parseDispatchOverride(value);
    if (!forced)
        return probe();
    const KernelTable *t = slotFor(*forced);
    if (t == nullptr)
        throw std::runtime_error(
            "CRISC_SIMD_DISPATCH: backend '" +
            std::string(backendName(*forced)) +
            "' is not compiled into this binary");
    if (!hostSupports(*forced))
        throw std::runtime_error(
            "CRISC_SIMD_DISPATCH: backend '" +
            std::string(backendName(*forced)) +
            "' is not supported by this CPU");
    return *t;
}

const KernelTable &
resolveFromEnvironment()
{
    return resolve(env::simdDispatch());
}

} // namespace

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Scalar: return "scalar";
      case Backend::Avx2: return "avx2";
      case Backend::Avx512: return "avx512";
      case Backend::Neon: return "neon";
    }
    return "unknown";
}

std::vector<Backend>
compiledBackends()
{
    std::vector<Backend> out;
    for (const BackendSlot &s : kSlots)
        out.push_back(s.backend);
    return out;
}

bool
backendCompiled(Backend b)
{
    return slotFor(b) != nullptr;
}

bool
hostSupports(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return true;
      case Backend::Avx2:
#if defined(__x86_64__) || defined(_M_X64)
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
      case Backend::Avx512:
#if defined(__x86_64__) || defined(_M_X64)
        return __builtin_cpu_supports("avx512f") != 0;
#else
        return false;
#endif
      case Backend::Neon:
#if defined(__aarch64__)
        return true; // NEON is architectural on aarch64.
#else
        return false;
#endif
    }
    return false;
}

const KernelTable &
kernelTable(Backend b)
{
    const KernelTable *t = slotFor(b);
    if (t == nullptr)
        throw std::runtime_error(
            std::string("kernelTable: backend '") + backendName(b) +
            "' is not compiled into this binary");
    return *t;
}

std::optional<Backend>
parseDispatchOverride(const std::string &value)
{
    if (value.empty() || value == "auto")
        return std::nullopt;
    if (value == "scalar")
        return Backend::Scalar;
    if (value == "avx2")
        return Backend::Avx2;
    if (value == "avx512")
        return Backend::Avx512;
    if (value == "neon")
        return Backend::Neon;
    throw std::invalid_argument(
        "CRISC_SIMD_DISPATCH: unknown backend '" + value +
        "' (expected scalar, avx2, avx512, neon, or auto)");
}

const KernelTable &
activeKernels()
{
    const KernelTable *t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        std::lock_guard<std::mutex> lock(g_resolveMutex);
        t = g_active.load(std::memory_order_acquire);
        if (t == nullptr) {
            t = &resolveFromEnvironment();
            g_active.store(t, std::memory_order_release);
        }
        recordDispatchGauges();
    }
    return *t;
}

Backend
activeBackend()
{
    return activeKernels().backend;
}

const char *
backendName()
{
    return activeKernels().name;
}

void
setDispatchOverride(const std::string &value)
{
    // Resolve (and possibly throw) before publishing anything.
    const KernelTable &t = resolve(value);
    {
        std::lock_guard<std::mutex> lock(g_resolveMutex);
        g_active.store(&t, std::memory_order_release);
    }
    recordDispatchGauges();
}

void
recordDispatchGauges()
{
    const KernelTable &t = activeKernels();
    OBS_GAUGE("sim.dispatch.backend",
              static_cast<std::int64_t>(t.backend));
    OBS_GAUGE("sim.dispatch.lanes", static_cast<std::int64_t>(t.lanes));
}

// ---------------------------------------------------------------------
// Public kernel wrappers: the stable sim:: API from kernels.hh, routed
// through the resolved table. A whole-register sweep is the range
// kernel over [0, groups).
// ---------------------------------------------------------------------

const char *
simdBackendName()
{
    return backendName();
}

std::size_t
simdLanes()
{
    return activeKernels().lanes;
}

void
apply1q(Complex *amps, std::size_t n_qubits, std::size_t qubit,
        const Complex m[4])
{
    activeKernels().apply1qRange(amps, n_qubits, qubit, m, 0,
                                 (std::size_t{1} << n_qubits) >> 1);
}

void
apply1qDiag(Complex *amps, std::size_t n_qubits, std::size_t qubit,
            Complex d0, Complex d1)
{
    activeKernels().apply1qDiagRange(amps, n_qubits, qubit, d0, d1, 0,
                                     (std::size_t{1} << n_qubits) >> 1);
}

void
applyPauli(Complex *amps, std::size_t n_qubits, std::size_t qubit,
           std::size_t pauli_index)
{
    activeKernels().applyPauli(amps, n_qubits, qubit, pauli_index);
}

void
apply2q(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
        std::size_t q_lo, const Complex m[16])
{
    activeKernels().apply2qRange(amps, n_qubits, q_hi, q_lo, m, 0,
                                 (std::size_t{1} << n_qubits) >> 2);
}

void
apply2qDiag(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
            std::size_t q_lo, const Complex d[4])
{
    activeKernels().apply2qDiagRange(amps, n_qubits, q_hi, q_lo, d, 0,
                                     (std::size_t{1} << n_qubits) >> 2);
}

void
applyDense(Complex *amps, std::size_t n_qubits, const Matrix &op,
           const std::vector<std::size_t> &qubits)
{
    detail::applyDenseRangeShared(
        amps, n_qubits, op, qubits, 0,
        (std::size_t{1} << n_qubits) >> qubits.size());
}

void
applyDenseRange(Complex *amps, std::size_t n_qubits, const Matrix &op,
                const std::vector<std::size_t> &qubits,
                std::size_t group_begin, std::size_t group_end)
{
    detail::applyDenseRangeShared(amps, n_qubits, op, qubits, group_begin,
                                  group_end);
}

void
applyGate(Complex *amps, std::size_t n_qubits, const Matrix &op,
          const std::vector<std::size_t> &qubits)
{
    switch (qubits.size()) {
      case 1:
        if (op(0, 1) == Complex{0.0, 0.0} && op(1, 0) == Complex{0.0, 0.0}) {
            apply1qDiag(amps, n_qubits, qubits[0], op(0, 0), op(1, 1));
        } else {
            const Complex m[4] = {op(0, 0), op(0, 1), op(1, 0), op(1, 1)};
            apply1q(amps, n_qubits, qubits[0], m);
        }
        return;
      case 2:
        if (exactlyDiagonal(op)) {
            const Complex d[4] = {op(0, 0), op(1, 1), op(2, 2), op(3, 3)};
            apply2qDiag(amps, n_qubits, qubits[0], qubits[1], d);
        } else {
            apply2q(amps, n_qubits, qubits[0], qubits[1], op.data());
        }
        return;
      default:
        applyDense(amps, n_qubits, op, qubits);
        return;
    }
}

void
apply1qRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
             const Complex m[4], std::size_t pair_begin,
             std::size_t pair_end)
{
    activeKernels().apply1qRange(amps, n_qubits, qubit, m, pair_begin,
                                 pair_end);
}

void
apply1qDiagRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                 Complex d0, Complex d1, std::size_t pair_begin,
                 std::size_t pair_end)
{
    activeKernels().apply1qDiagRange(amps, n_qubits, qubit, d0, d1,
                                     pair_begin, pair_end);
}

void
apply2qRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
             std::size_t q_lo, const Complex m[16],
             std::size_t quad_begin, std::size_t quad_end)
{
    activeKernels().apply2qRange(amps, n_qubits, q_hi, q_lo, m, quad_begin,
                                 quad_end);
}

void
apply2qDiagRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
                 std::size_t q_lo, const Complex d[4],
                 std::size_t quad_begin, std::size_t quad_end)
{
    activeKernels().apply2qDiagRange(amps, n_qubits, q_hi, q_lo, d,
                                     quad_begin, quad_end);
}

void
applyPauliLane(double *re, double *im, std::size_t n_qubits,
               std::size_t batch, std::size_t lane, std::size_t qubit,
               std::size_t pauli_index)
{
    activeKernels().applyPauliLane(re, im, n_qubits, batch, lane, qubit,
                                   pauli_index);
}

} // namespace sim
} // namespace crisc
