#include "cache.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "linalg/matrix.hh"

namespace crisc {
namespace sim {

namespace {

std::size_t
clampBlockBytes(unsigned long long bytes)
{
    if (bytes < kMinBlockBytes)
        return kMinBlockBytes;
    if (bytes > kMaxBlockBytes)
        return kMaxBlockBytes;
    return static_cast<std::size_t>(bytes);
}

/** Detected per-core L2 data cache size in bytes, or 0. */
std::size_t
detectedL2Bytes()
{
#if defined(_SC_LEVEL2_CACHE_SIZE)
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (l2 > 0)
        return static_cast<std::size_t>(l2);
#endif
    return 0;
}

} // namespace

std::size_t
cacheBlockBytes()
{
    if (const std::size_t l2 = detectedL2Bytes())
        return clampBlockBytes(l2 / 2);
    return kFallbackBlockBytes;
}

std::size_t
blockQubitsForBytes(std::size_t bytes, std::size_t n_qubits)
{
    const std::size_t budget = bytes / sizeof(linalg::Complex);
    std::size_t b = 0;
    while ((std::size_t{2} << b) <= budget)
        ++b; // largest b with 2^b amplitudes within budget.
    if (b < 1)
        b = 1;
    return b < n_qubits ? b : n_qubits;
}

std::size_t
autoBlockQubits(std::size_t n_qubits)
{
    return blockQubitsForBytes(cacheBlockBytes(), n_qubits);
}

std::size_t
resolveBlockQubits(std::size_t requested, std::size_t n_qubits)
{
    if (n_qubits == 0)
        return 0;
    if (requested == 0)
        return n_qubits >= kAutoBlockFromWidth ? autoBlockQubits(n_qubits)
                                               : 0;
    return requested < n_qubits ? requested : n_qubits;
}

} // namespace sim
} // namespace crisc
