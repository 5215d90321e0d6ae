/**
 * @file
 * Backend-stamped kernel implementations. This header is the single
 * source of every SIMD-dependent statevector kernel; each per-backend
 * translation unit (kernels_scalar.cc, kernels_avx2.cc,
 * kernels_neon.cc) defines
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
 * Every kernel except the whole-register Pauli sweep is a group-range
 * kernel: a full sweep is the range [0, groups). Every simd:: lane
 * replays the scalar reference operation order (see simd.hh),
 * short-stride sweeps fall back to the sim::scalar references
 * (compiled once, without ISA flags, in kernels.cc), and per-lane
 * Pauli noise replays the serial kernel's stride-dependent negation
 * flavour via the backend's kNegIsSubFromZero trait. The batched
 * kernels run the batch % kLanes lane tails through a scalar per-lane
 * remainder loop with the same per-lane operation sequence. Compile
 * every stamp TU with -ffp-contract=off.
 */

#ifndef CRISC_SIM_KERNELS_IMPL_HH
#define CRISC_SIM_KERNELS_IMPL_HH

#if !defined(CRISC_KERNEL_TABLE_FN) || !defined(CRISC_KERNEL_BACKEND_ID)
#error "kernels_impl.hh: stamp TU must define CRISC_KERNEL_TABLE_FN " \
       "and CRISC_KERNEL_BACKEND_ID before including"
#endif

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/dispatch.hh"
#include "sim/kernels.hh"
#include "sim/kernels_util.hh"
#include "sim/simd.hh"

namespace crisc {
namespace sim {
namespace {
// Named inner namespace so unqualified kernel names never collide with
// the sim::apply* dispatch wrappers visible from kernels.hh.
namespace stamped {

using detail::insertZeroBit;
using detail::laneAmp;
using detail::setLane;

/**
 * Negation as this backend's serial dispatching Pauli kernel performs
 * it for a sweep whose addressed run takes the vector path: AVX2 neg
 * computes 0 - x (mapping +0 to +0), scalar and NEON flip
 * the sign bit (+0 to -0). Batched lanes replay the serial kernel's
 * stride-dependent choice so they stay bit-identical to the
 * per-trajectory run even on signed zeros.
 */
inline double
negLikeSerial(bool vector_path, double x)
{
    if constexpr (simd::kNegIsSubFromZero) {
        if (vector_path)
            return 0.0 - x;
    } else {
        (void)vector_path;
    }
    return -x;
}

// ---------------------------------------------------------------------
// Whole-register Pauli sweep (the serial noise kernel). Each addressed
// contiguous run has power-of-two length, so once a run is at least
// simd::kLanes wide it divides evenly — no tail loops. Shorter runs
// take the scalar reference path.
// ---------------------------------------------------------------------

void
applyPauli(Complex *amps, std::size_t n_qubits, std::size_t qubit,
           std::size_t pauli_index)
{
    const std::size_t dim = std::size_t{1} << n_qubits;
    const std::size_t stride = std::size_t{1} << (n_qubits - 1 - qubit);
    if (stride < simd::kLanes) {
        scalar::applyPauli(amps, n_qubits, qubit, pauli_index);
        return;
    }
    switch (pauli_index) {
      case 1: // X: swap the pair.
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t i = base; i < base + stride;
                 i += simd::kLanes) {
                const simd::CVec a0 = simd::loadc(amps + i);
                const simd::CVec a1 = simd::loadc(amps + i + stride);
                simd::storec(amps + i, a1);
                simd::storec(amps + i + stride, a0);
            }
        }
        return;
      case 2: // Y = [[0, -i], [i, 0]].
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t i = base; i < base + stride;
                 i += simd::kLanes) {
                const simd::CVec a0 = simd::loadc(amps + i);
                const simd::CVec a1 = simd::loadc(amps + i + stride);
                simd::storec(amps + i, simd::mulNegI(a1));
                simd::storec(amps + i + stride, simd::mulPosI(a0));
            }
        }
        return;
      case 3: // Z: negate the |1> half of each pair.
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t i = base; i < base + stride;
                 i += simd::kLanes) {
                simd::storec(amps + i + stride,
                             simd::neg(simd::loadc(amps + i + stride)));
            }
        }
        return;
      default:
        throw std::invalid_argument("applyPauli: index must be 1..3");
    }
}

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
applyPauliLane(double *re, double *im, std::size_t n_qubits,
               std::size_t batch, std::size_t lane, std::size_t qubit,
               std::size_t pauli_index)
{
    const std::size_t pairs = (std::size_t{1} << n_qubits) >> 1;
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = (std::size_t{1} << pos) * batch;
    const bool vec = (std::size_t{1} << pos) >= simd::kLanes;
    switch (pauli_index) {
      case 1:
        for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t o0 = insertZeroBit(p, pos) * batch + lane;
            const std::size_t o1 = o0 + stride;
            std::swap(re[o0], re[o1]);
            std::swap(im[o0], im[o1]);
        }
        return;
      case 2:
        for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t o0 = insertZeroBit(p, pos) * batch + lane;
            const std::size_t o1 = o0 + stride;
            const double a0r = re[o0], a0i = im[o0];
            const double a1r = re[o1], a1i = im[o1];
            re[o0] = a1i;
            im[o0] = negLikeSerial(vec, a1r);
            re[o1] = negLikeSerial(vec, a0i);
            im[o1] = a0r;
        }
        return;
      case 3:
        for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t o1 =
                insertZeroBit(p, pos) * batch + lane + stride;
            re[o1] = negLikeSerial(vec, re[o1]);
            im[o1] = negLikeSerial(vec, im[o1]);
        }
        return;
      default:
        throw std::invalid_argument(
            "applyPauliLane: index must be 1..3");
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

void
applyDenseBatchRange(double *re, double *im, std::size_t n_qubits,
                     std::size_t batch, const Matrix &op,
                     const std::vector<std::size_t> &qubits,
                     std::size_t group_begin, std::size_t group_end)
{
    const std::size_t k = qubits.size();
    const std::size_t gdim = std::size_t{1} << k;

    std::vector<std::size_t> pos(k);
    for (std::size_t b = 0; b < k; ++b)
        pos[b] = n_qubits - 1 - qubits[b];
    std::vector<std::size_t> sorted = pos;
    std::sort(sorted.begin(), sorted.end());

    // Per-group scratch in the same SoA layout: gather the 2^k
    // amplitudes of all lanes, multiply rows with lanes in the vector,
    // scatter back. s starts at broadcast(0) so the first accumulation
    // replays the scalar kernel's 0 + term.
    std::vector<double> inRe(gdim * batch), inIm(gdim * batch);
    std::vector<double> outRe(gdim * batch), outIm(gdim * batch);
    std::vector<std::size_t> idx(gdim);
    const simd::CVec zero = simd::broadcast(Complex{0.0, 0.0});
    for (std::size_t grp = group_begin; grp < group_end; ++grp) {
        std::size_t base = grp;
        for (std::size_t p : sorted)
            base = insertZeroBit(base, p);
        for (std::size_t g = 0; g < gdim; ++g) {
            std::size_t address = base;
            for (std::size_t b = 0; b < k; ++b)
                if ((g >> (k - 1 - b)) & 1)
                    address |= std::size_t{1} << pos[b];
            idx[g] = address * batch;
            std::copy(re + idx[g], re + idx[g] + batch,
                      inRe.data() + g * batch);
            std::copy(im + idx[g], im + idx[g] + batch,
                      inIm.data() + g * batch);
        }
        for (std::size_t r = 0; r < gdim; ++r) {
            std::size_t t = 0;
            for (; t + simd::kLanes <= batch; t += simd::kLanes) {
                simd::CVec s = zero;
                for (std::size_t c = 0; c < gdim; ++c)
                    s = simd::add(
                        s, simd::mul(simd::broadcast(op(r, c)),
                                     simd::loads(
                                         inRe.data() + c * batch + t,
                                         inIm.data() + c * batch + t)));
                simd::stores(outRe.data() + r * batch + t,
                             outIm.data() + r * batch + t, s);
            }
            for (; t < batch; ++t) {
                Complex s = 0.0;
                for (std::size_t c = 0; c < gdim; ++c)
                    s += op(r, c) * Complex{inRe[c * batch + t],
                                            inIm[c * batch + t]};
                outRe[r * batch + t] = s.real();
                outIm[r * batch + t] = s.imag();
            }
        }
        for (std::size_t g = 0; g < gdim; ++g) {
            std::copy(outRe.data() + g * batch,
                      outRe.data() + (g + 1) * batch, re + idx[g]);
            std::copy(outIm.data() + g * batch,
                      outIm.data() + (g + 1) * batch, im + idx[g]);
        }
    }
}

} // namespace stamped
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
        t.applyPauli = &stamped::applyPauli;
        t.apply1qRange = &stamped::apply1qRange;
        t.apply1qDiagRange = &stamped::apply1qDiagRange;
        t.apply2qRange = &stamped::apply2qRange;
        t.apply2qDiagRange = &stamped::apply2qDiagRange;
        t.applyDenseRange = &applyDenseRangeShared;
        t.apply1qBatchRange = &stamped::apply1qBatchRange;
        t.apply1qDiagBatchRange = &stamped::apply1qDiagBatchRange;
        t.apply2qBatchRange = &stamped::apply2qBatchRange;
        t.apply2qDiagBatchRange = &stamped::apply2qDiagBatchRange;
        t.applyDenseBatchRange = &stamped::applyDenseBatchRange;
        t.applyPauliLane = &stamped::applyPauliLane;
        return t;
    }();
    return table;
}

} // namespace detail
} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_KERNELS_IMPL_HH
