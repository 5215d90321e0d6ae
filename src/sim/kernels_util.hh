/**
 * @file
 * Index and lane helpers shared by every kernel translation unit — the
 * backend-stamped TUs (kernels_<backend>.cc via kernels_impl.hh) and
 * the backend-independent reference/dense TU (kernels.cc).
 */

#ifndef CRISC_SIM_KERNELS_UTIL_HH
#define CRISC_SIM_KERNELS_UTIL_HH

#include <cstddef>

#include "linalg/matrix.hh"

namespace crisc {
namespace sim {
namespace detail {
// Internal linkage, like simd.hh: the stamp TUs include this header
// under different ISA flags, so no helper may be a shared weak symbol.
namespace {

/** Inserts a zero bit at position @p pos, shifting higher bits left. */
inline std::size_t
insertZeroBit(std::size_t x, std::size_t pos)
{
    const std::size_t low = x & ((std::size_t{1} << pos) - 1);
    return ((x >> pos) << (pos + 1)) | low;
}

/** Lane read/write in the split (SoA) batched layout. */
inline linalg::Complex
laneAmp(const double *re, const double *im, std::size_t at)
{
    return {re[at], im[at]};
}

inline void
setLane(double *re, double *im, std::size_t at, linalg::Complex v)
{
    re[at] = v.real();
    im[at] = v.imag();
}

} // namespace
} // namespace detail
} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_KERNELS_UTIL_HH
