/**
 * @file
 * Backend-stamped kernel implementations. This header is the single
 * source of every SIMD-dependent statevector kernel; each per-backend
 * translation unit (kernels_scalar.cc, kernels_avx2.cc) defines
 *
 *   - one CRISC_SIMD_STAMP_* backend selector (consumed by simd.hh),
 *   - CRISC_KERNEL_TABLE_FN: the name of the exported table builder
 *     (e.g. avx2KernelTable, declared in dispatch.hh detail), and
 *   - CRISC_KERNEL_BACKEND_ID: the sim::Backend enumerator,
 *
 * then includes this header exactly once. The kernels land in an
 * anonymous namespace (no cross-TU symbol collisions); the only export
 * is the KernelTable builder the dispatcher links against.
 *
 * Every kernel is a group-range kernel: a full sweep is the range
 * [0, groups). Every simd:: lane replays the scalar reference
 * operation order (see simd.hh), and short-stride sweeps fall back to
 * the sim::scalar references (compiled once, without ISA flags, in
 * kernels.cc). The batched kernels run the batch % kLanes lane tails
 * through a scalar per-lane remainder loop with the same per-lane
 * operation sequence. Kernels with no SIMD body — the Pauli noise
 * kernels and the dense k >= 3 fallback — are not stamped: each has
 * one scalar definition per layout in kernels.cc. Compile every stamp
 * TU with -ffp-contract=off.
 */

#ifndef CRISC_SIM_KERNELS_IMPL_HH
#define CRISC_SIM_KERNELS_IMPL_HH

#if !defined(CRISC_KERNEL_TABLE_FN) || !defined(CRISC_KERNEL_BACKEND_ID)
#error "kernels_impl.hh: stamp TU must define CRISC_KERNEL_TABLE_FN " \
       "and CRISC_KERNEL_BACKEND_ID before including"
#endif

#include <algorithm>

#include "sim/dispatch.hh"
#include "sim/kernels.hh"
#include "sim/kernels_util.hh"
#include "sim/simd.hh"

namespace crisc {
namespace sim {
namespace {

using detail::insertZeroBit;
using detail::laneAmp;
using detail::setLane;

// ---------------------------------------------------------------------
// Group-range kernels (see kernels.hh): one sub-interval of the group
// index space; runs narrower than a vector take the scalar reference
// path. A range decomposes into whole contiguous stride runs plus partial
// runs at its ends; within a run the base index advances with the
// group counter, so the vector body applies unchanged and partial-
// vector tails fall back to the scalar per-group body. Both bodies
// perform the identical per-amplitude IEEE operation sequence, so any
// partition reassembles the serial sweep bit for bit.
// ---------------------------------------------------------------------

void
apply1qRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
             const Complex m[4], std::size_t pair_begin,
             std::size_t pair_end)
{
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = std::size_t{1} << pos;
    if (stride < simd::kLanes) {
        scalar::apply1qRange(amps, n_qubits, qubit, m, pair_begin,
                             pair_end);
        return;
    }
    const simd::CVec m00 = simd::broadcast(m[0]);
    const simd::CVec m01 = simd::broadcast(m[1]);
    const simd::CVec m10 = simd::broadcast(m[2]);
    const simd::CVec m11 = simd::broadcast(m[3]);
    std::size_t p = pair_begin;
    while (p < pair_end) {
        // Pairs [p, runEnd) share one contiguous stride run.
        const std::size_t runEnd =
            std::min(pair_end, (p & ~(stride - 1)) + stride);
        std::size_t i = insertZeroBit(p, pos);
        for (; p + simd::kLanes <= runEnd;
             p += simd::kLanes, i += simd::kLanes) {
            const simd::CVec a0 = simd::loadc(amps + i);
            const simd::CVec a1 = simd::loadc(amps + i + stride);
            simd::storec(amps + i,
                         simd::add(simd::mul(m00, a0), simd::mul(m01, a1)));
            simd::storec(amps + i + stride,
                         simd::add(simd::mul(m10, a0), simd::mul(m11, a1)));
        }
        for (; p < runEnd; ++p, ++i) {
            const Complex a0 = amps[i];
            const Complex a1 = amps[i + stride];
            amps[i] = m[0] * a0 + m[1] * a1;
            amps[i + stride] = m[2] * a0 + m[3] * a1;
        }
    }
}

void
apply1qDiagRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                 Complex d0, Complex d1, std::size_t pair_begin,
                 std::size_t pair_end)
{
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = std::size_t{1} << pos;
    if (stride < simd::kLanes) {
        scalar::apply1qDiagRange(amps, n_qubits, qubit, d0, d1, pair_begin,
                                 pair_end);
        return;
    }
    const simd::CVec v0 = simd::broadcast(d0);
    const simd::CVec v1 = simd::broadcast(d1);
    std::size_t p = pair_begin;
    while (p < pair_end) {
        const std::size_t runEnd =
            std::min(pair_end, (p & ~(stride - 1)) + stride);
        std::size_t i = insertZeroBit(p, pos);
        for (; p + simd::kLanes <= runEnd;
             p += simd::kLanes, i += simd::kLanes) {
            simd::storec(amps + i, simd::mul(simd::loadc(amps + i), v0));
            simd::storec(amps + i + stride,
                         simd::mul(simd::loadc(amps + i + stride), v1));
        }
        for (; p < runEnd; ++p, ++i) {
            amps[i] *= d0;
            amps[i + stride] *= d1;
        }
    }
}

void
apply2qRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
             std::size_t q_lo, const Complex m[16],
             std::size_t quad_begin, std::size_t quad_end)
{
    const std::size_t p_hi = n_qubits - 1 - q_hi;
    const std::size_t p_lo = n_qubits - 1 - q_lo;
    const std::size_t m_hi = std::size_t{1} << p_hi;
    const std::size_t m_lo = std::size_t{1} << p_lo;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;
    const std::size_t s1 = std::size_t{1} << first;
    if (s1 < simd::kLanes) {
        scalar::apply2qRange(amps, n_qubits, q_hi, q_lo, m, quad_begin,
                             quad_end);
        return;
    }
    simd::CVec mv[16];
    for (std::size_t i = 0; i < 16; ++i)
        mv[i] = simd::broadcast(m[i]);
    std::size_t g = quad_begin;
    while (g < quad_end) {
        // Quads [g, runEnd) share one contiguous run of s1 bases.
        const std::size_t runEnd =
            std::min(quad_end, (g & ~(s1 - 1)) + s1);
        std::size_t base = insertZeroBit(insertZeroBit(g, first), second);
        for (; g + simd::kLanes <= runEnd;
             g += simd::kLanes, base += simd::kLanes) {
            const simd::CVec a0 = simd::loadc(amps + base);
            const simd::CVec a1 = simd::loadc(amps + base + m_lo);
            const simd::CVec a2 = simd::loadc(amps + base + m_hi);
            const simd::CVec a3 = simd::loadc(amps + base + m_hi + m_lo);
            simd::storec(
                amps + base,
                simd::add(simd::add(simd::add(simd::mul(mv[0], a0),
                                              simd::mul(mv[1], a1)),
                                    simd::mul(mv[2], a2)),
                          simd::mul(mv[3], a3)));
            simd::storec(
                amps + base + m_lo,
                simd::add(simd::add(simd::add(simd::mul(mv[4], a0),
                                              simd::mul(mv[5], a1)),
                                    simd::mul(mv[6], a2)),
                          simd::mul(mv[7], a3)));
            simd::storec(
                amps + base + m_hi,
                simd::add(simd::add(simd::add(simd::mul(mv[8], a0),
                                              simd::mul(mv[9], a1)),
                                    simd::mul(mv[10], a2)),
                          simd::mul(mv[11], a3)));
            simd::storec(
                amps + base + m_hi + m_lo,
                simd::add(simd::add(simd::add(simd::mul(mv[12], a0),
                                              simd::mul(mv[13], a1)),
                                    simd::mul(mv[14], a2)),
                          simd::mul(mv[15], a3)));
        }
        for (; g < runEnd; ++g, ++base) {
            const std::size_t i1 = base | m_lo;
            const std::size_t i2 = base | m_hi;
            const std::size_t i3 = base | m_hi | m_lo;
            const Complex a0 = amps[base];
            const Complex a1 = amps[i1];
            const Complex a2 = amps[i2];
            const Complex a3 = amps[i3];
            amps[base] = m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
            amps[i1] = m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
            amps[i2] = m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
            amps[i3] = m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
        }
    }
}

void
apply2qDiagRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
                 std::size_t q_lo, const Complex d[4],
                 std::size_t quad_begin, std::size_t quad_end)
{
    const std::size_t p_hi = n_qubits - 1 - q_hi;
    const std::size_t p_lo = n_qubits - 1 - q_lo;
    const std::size_t m_hi = std::size_t{1} << p_hi;
    const std::size_t m_lo = std::size_t{1} << p_lo;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;
    const std::size_t s1 = std::size_t{1} << first;
    if (s1 < simd::kLanes) {
        scalar::apply2qDiagRange(amps, n_qubits, q_hi, q_lo, d, quad_begin,
                                 quad_end);
        return;
    }
    const simd::CVec d0 = simd::broadcast(d[0]);
    const simd::CVec d1 = simd::broadcast(d[1]);
    const simd::CVec d2 = simd::broadcast(d[2]);
    const simd::CVec d3 = simd::broadcast(d[3]);
    std::size_t g = quad_begin;
    while (g < quad_end) {
        const std::size_t runEnd =
            std::min(quad_end, (g & ~(s1 - 1)) + s1);
        std::size_t base = insertZeroBit(insertZeroBit(g, first), second);
        for (; g + simd::kLanes <= runEnd;
             g += simd::kLanes, base += simd::kLanes) {
            simd::storec(amps + base,
                         simd::mul(simd::loadc(amps + base), d0));
            simd::storec(amps + base + m_lo,
                         simd::mul(simd::loadc(amps + base + m_lo), d1));
            simd::storec(amps + base + m_hi,
                         simd::mul(simd::loadc(amps + base + m_hi), d2));
            simd::storec(
                amps + base + m_hi + m_lo,
                simd::mul(simd::loadc(amps + base + m_hi + m_lo), d3));
        }
        for (; g < runEnd; ++g, ++base) {
            amps[base] *= d[0];
            amps[base | m_lo] *= d[1];
            amps[base | m_hi] *= d[2];
            amps[base | m_hi | m_lo] *= d[3];
        }
    }
}

// ---------------------------------------------------------------------
// Batched SoA kernels (batch_state.hh layout): SIMD lanes run across
// the trajectory axis. Per amplitude group the batch lanes are contiguous
// in the split re/im arrays, so the vector body consumes whole vectors
// of lanes (simd::loads / stores, no permutation); the remaining
// batch % kLanes lanes run through a scalar per-lane tail. Both replay
// the serial scalar operation sequence per lane, so lane t of any
// batched sweep — over any partition of the group range — is
// bit-identical to the serial kernel applied to statevector t.
// ---------------------------------------------------------------------

void
apply1qBatchRange(double *re, double *im, std::size_t n_qubits,
                  std::size_t batch, std::size_t qubit, const Complex m[4],
                  std::size_t pair_begin, std::size_t pair_end)
{
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = (std::size_t{1} << pos) * batch;
    const simd::CVec m00 = simd::broadcast(m[0]);
    const simd::CVec m01 = simd::broadcast(m[1]);
    const simd::CVec m10 = simd::broadcast(m[2]);
    const simd::CVec m11 = simd::broadcast(m[3]);
    for (std::size_t p = pair_begin; p < pair_end; ++p) {
        const std::size_t o0 = insertZeroBit(p, pos) * batch;
        const std::size_t o1 = o0 + stride;
        std::size_t t = 0;
        for (; t + simd::kLanes <= batch; t += simd::kLanes) {
            const simd::CVec a0 = simd::loads(re + o0 + t, im + o0 + t);
            const simd::CVec a1 = simd::loads(re + o1 + t, im + o1 + t);
            simd::stores(re + o0 + t, im + o0 + t,
                         simd::add(simd::mul(m00, a0), simd::mul(m01, a1)));
            simd::stores(re + o1 + t, im + o1 + t,
                         simd::add(simd::mul(m10, a0), simd::mul(m11, a1)));
        }
        for (; t < batch; ++t) {
            const Complex a0 = laneAmp(re, im, o0 + t);
            const Complex a1 = laneAmp(re, im, o1 + t);
            setLane(re, im, o0 + t, m[0] * a0 + m[1] * a1);
            setLane(re, im, o1 + t, m[2] * a0 + m[3] * a1);
        }
    }
}

void
apply1qDiagBatchRange(double *re, double *im, std::size_t n_qubits,
                      std::size_t batch, std::size_t qubit, Complex d0,
                      Complex d1, std::size_t pair_begin,
                      std::size_t pair_end)
{
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = (std::size_t{1} << pos) * batch;
    const simd::CVec v0 = simd::broadcast(d0);
    const simd::CVec v1 = simd::broadcast(d1);
    for (std::size_t p = pair_begin; p < pair_end; ++p) {
        const std::size_t o0 = insertZeroBit(p, pos) * batch;
        const std::size_t o1 = o0 + stride;
        std::size_t t = 0;
        for (; t + simd::kLanes <= batch; t += simd::kLanes) {
            simd::stores(
                re + o0 + t, im + o0 + t,
                simd::mul(simd::loads(re + o0 + t, im + o0 + t), v0));
            simd::stores(
                re + o1 + t, im + o1 + t,
                simd::mul(simd::loads(re + o1 + t, im + o1 + t), v1));
        }
        for (; t < batch; ++t) {
            setLane(re, im, o0 + t, laneAmp(re, im, o0 + t) * d0);
            setLane(re, im, o1 + t, laneAmp(re, im, o1 + t) * d1);
        }
    }
}

void
apply2qBatchRange(double *re, double *im, std::size_t n_qubits,
                  std::size_t batch, std::size_t q_hi, std::size_t q_lo,
                  const Complex m[16], std::size_t quad_begin,
                  std::size_t quad_end)
{
    const std::size_t p_hi = n_qubits - 1 - q_hi;
    const std::size_t p_lo = n_qubits - 1 - q_lo;
    const std::size_t o_hi = (std::size_t{1} << p_hi) * batch;
    const std::size_t o_lo = (std::size_t{1} << p_lo) * batch;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;
    simd::CVec mv[16];
    for (std::size_t i = 0; i < 16; ++i)
        mv[i] = simd::broadcast(m[i]);
    for (std::size_t g = quad_begin; g < quad_end; ++g) {
        const std::size_t b0 =
            insertZeroBit(insertZeroBit(g, first), second) * batch;
        const std::size_t b1 = b0 + o_lo;
        const std::size_t b2 = b0 + o_hi;
        const std::size_t b3 = b0 + o_hi + o_lo;
        std::size_t t = 0;
        for (; t + simd::kLanes <= batch; t += simd::kLanes) {
            const simd::CVec a0 = simd::loads(re + b0 + t, im + b0 + t);
            const simd::CVec a1 = simd::loads(re + b1 + t, im + b1 + t);
            const simd::CVec a2 = simd::loads(re + b2 + t, im + b2 + t);
            const simd::CVec a3 = simd::loads(re + b3 + t, im + b3 + t);
            simd::stores(
                re + b0 + t, im + b0 + t,
                simd::add(simd::add(simd::add(simd::mul(mv[0], a0),
                                              simd::mul(mv[1], a1)),
                                    simd::mul(mv[2], a2)),
                          simd::mul(mv[3], a3)));
            simd::stores(
                re + b1 + t, im + b1 + t,
                simd::add(simd::add(simd::add(simd::mul(mv[4], a0),
                                              simd::mul(mv[5], a1)),
                                    simd::mul(mv[6], a2)),
                          simd::mul(mv[7], a3)));
            simd::stores(
                re + b2 + t, im + b2 + t,
                simd::add(simd::add(simd::add(simd::mul(mv[8], a0),
                                              simd::mul(mv[9], a1)),
                                    simd::mul(mv[10], a2)),
                          simd::mul(mv[11], a3)));
            simd::stores(
                re + b3 + t, im + b3 + t,
                simd::add(simd::add(simd::add(simd::mul(mv[12], a0),
                                              simd::mul(mv[13], a1)),
                                    simd::mul(mv[14], a2)),
                          simd::mul(mv[15], a3)));
        }
        for (; t < batch; ++t) {
            const Complex a0 = laneAmp(re, im, b0 + t);
            const Complex a1 = laneAmp(re, im, b1 + t);
            const Complex a2 = laneAmp(re, im, b2 + t);
            const Complex a3 = laneAmp(re, im, b3 + t);
            setLane(re, im, b0 + t,
                    m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3);
            setLane(re, im, b1 + t,
                    m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3);
            setLane(re, im, b2 + t,
                    m[8] * a0 + m[9] * a1 + m[10] * a2 +
                        m[11] * a3);
            setLane(re, im, b3 + t,
                    m[12] * a0 + m[13] * a1 + m[14] * a2 +
                        m[15] * a3);
        }
    }
}

void
apply2qDiagBatchRange(double *re, double *im, std::size_t n_qubits,
                      std::size_t batch, std::size_t q_hi,
                      std::size_t q_lo, const Complex d[4],
                      std::size_t quad_begin, std::size_t quad_end)
{
    const std::size_t p_hi = n_qubits - 1 - q_hi;
    const std::size_t p_lo = n_qubits - 1 - q_lo;
    const std::size_t o_hi = (std::size_t{1} << p_hi) * batch;
    const std::size_t o_lo = (std::size_t{1} << p_lo) * batch;
    const std::size_t first = p_hi < p_lo ? p_hi : p_lo;
    const std::size_t second = p_hi < p_lo ? p_lo : p_hi;
    const simd::CVec d0 = simd::broadcast(d[0]);
    const simd::CVec d1 = simd::broadcast(d[1]);
    const simd::CVec d2 = simd::broadcast(d[2]);
    const simd::CVec d3 = simd::broadcast(d[3]);
    for (std::size_t g = quad_begin; g < quad_end; ++g) {
        const std::size_t b0 =
            insertZeroBit(insertZeroBit(g, first), second) * batch;
        const std::size_t b1 = b0 + o_lo;
        const std::size_t b2 = b0 + o_hi;
        const std::size_t b3 = b0 + o_hi + o_lo;
        std::size_t t = 0;
        for (; t + simd::kLanes <= batch; t += simd::kLanes) {
            simd::stores(
                re + b0 + t, im + b0 + t,
                simd::mul(simd::loads(re + b0 + t, im + b0 + t), d0));
            simd::stores(
                re + b1 + t, im + b1 + t,
                simd::mul(simd::loads(re + b1 + t, im + b1 + t), d1));
            simd::stores(
                re + b2 + t, im + b2 + t,
                simd::mul(simd::loads(re + b2 + t, im + b2 + t), d2));
            simd::stores(
                re + b3 + t, im + b3 + t,
                simd::mul(simd::loads(re + b3 + t, im + b3 + t), d3));
        }
        for (; t < batch; ++t) {
            setLane(re, im, b0 + t, laneAmp(re, im, b0 + t) * d[0]);
            setLane(re, im, b1 + t, laneAmp(re, im, b1 + t) * d[1]);
            setLane(re, im, b2 + t, laneAmp(re, im, b2 + t) * d[2]);
            setLane(re, im, b3 + t, laneAmp(re, im, b3 + t) * d[3]);
        }
    }
}

} // namespace

namespace detail {

const KernelTable &
CRISC_KERNEL_TABLE_FN()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.backend = CRISC_KERNEL_BACKEND_ID;
        t.name = simd::kBackendName;
        t.lanes = simd::kLanes;
        t.apply1qRange = &apply1qRange;
        t.apply1qDiagRange = &apply1qDiagRange;
        t.apply2qRange = &apply2qRange;
        t.apply2qDiagRange = &apply2qDiagRange;
        t.apply1qBatchRange = &apply1qBatchRange;
        t.apply1qDiagBatchRange = &apply1qDiagBatchRange;
        t.apply2qBatchRange = &apply2qBatchRange;
        t.apply2qDiagBatchRange = &apply2qDiagBatchRange;
        return t;
    }();
    return table;
}

} // namespace detail
} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_KERNELS_IMPL_HH
