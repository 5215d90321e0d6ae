#include "dispatch.hh"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "obs/obs.hh"
#include "sim/kernels.hh"

// Runtime backend resolution (see dispatch.hh) and applyGate, the one
// public sim:: entry point kernels.hh keeps outside the engine that
// routes through the resolved table (circuit::State uses it). It
// fetches activeKernels() once per call and invokes table entries
// directly, exactly as the engine's executeOpRange does per sweep.

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
#if defined(CRISC_HAVE_KERNELS_AVX2)
    {Backend::Avx2, &detail::avx2KernelTable},
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

/** Resolves CRISC_SIMD_DISPATCH; unset means probe. Read only on
 *  first use, under g_resolveMutex (activeKernels). */
const KernelTable &
resolveFromEnvironment()
{
    const char *value = std::getenv("CRISC_SIMD_DISPATCH");
    return resolve(value == nullptr ? std::string() : std::string(value));
}

} // namespace

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Scalar: return "scalar";
      case Backend::Avx2: return "avx2";
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
    throw std::invalid_argument(
        "CRISC_SIMD_DISPATCH: unknown backend '" + value +
        "' (expected scalar, avx2, or auto)");
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
    // Unused when -DCRISC_OBS=OFF compiles the gauges away.
    [[maybe_unused]] const KernelTable &t = activeKernels();
    OBS_GAUGE("sim.dispatch.backend",
              static_cast<std::int64_t>(t.backend));
    OBS_GAUGE("sim.dispatch.lanes", static_cast<std::int64_t>(t.lanes));
}

// ---------------------------------------------------------------------
// Public entry points outside the engine. A whole-register sweep is the
// range kernel over [0, groups).
// ---------------------------------------------------------------------

std::size_t
simdLanes()
{
    return activeKernels().lanes;
}

void
applyGate(Complex *amps, std::size_t n_qubits, const Matrix &op,
          const std::vector<std::size_t> &qubits)
{
    const KernelTable &k = activeKernels();
    const std::size_t groups = (std::size_t{1} << n_qubits) >> qubits.size();
    switch (qubits.size()) {
      case 1:
        if (op(0, 1) == Complex{0.0, 0.0} && op(1, 0) == Complex{0.0, 0.0}) {
            k.apply1qDiagRange(amps, n_qubits, qubits[0], op(0, 0),
                               op(1, 1), 0, groups);
        } else {
            const Complex m[4] = {op(0, 0), op(0, 1), op(1, 0), op(1, 1)};
            k.apply1qRange(amps, n_qubits, qubits[0], m, 0, groups);
        }
        return;
      case 2:
        if (exactlyDiagonal(op)) {
            const Complex d[4] = {op(0, 0), op(1, 1), op(2, 2), op(3, 3)};
            k.apply2qDiagRange(amps, n_qubits, qubits[0], qubits[1], d, 0,
                               groups);
        } else {
            k.apply2qRange(amps, n_qubits, qubits[0], qubits[1], op.data(),
                           0, groups);
        }
        return;
      default:
        applyDenseRange(amps, n_qubits, op, qubits, 0, groups);
        return;
    }
}

} // namespace sim
} // namespace crisc
