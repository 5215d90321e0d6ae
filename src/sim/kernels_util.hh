/**
 * @file
 * Helpers shared by every kernel translation unit: the scalar, dense
 * and Pauli kernels (kernels.cc) and each ISA's gate kernels
 * (kernels_<isa>.cc). Besides index and lane helpers this is where the
 * two amplitude layouts and the four gate sweeps live. A sweep walks
 * its groups as contiguous runs and finishes each run element by
 * element; an ISA passes the vector loop that goes first, the scalar
 * kernels pass none. So every backend and layout runs one body per
 * gate kind.
 *
 * A layout's *element* is one complex amplitude of one lane. Amplitude
 * i of an interleaved statevector is element i (Interleaved, one lane
 * known at compile time); lane t of amplitude i in a SoA batch of B
 * lanes (batch_state.hh) is element i * B + t (Split). The groups of a
 * contiguous run — consecutive pairs (quads) whose base indices ascend
 * by one — cover run * B consecutive elements, and each partner
 * amplitude sits stride * B elements further on.
 *
 * The arithmetic is spelled out per component (Amp), in the order every
 * SIMD lane replays (simd.hh): two multiplies and a subtract for the
 * real part of a product, two multiplies and an add for the imaginary
 * part, sums left to right, no fused multiply-add. For finite operands
 * that is what std::complex computes, without its NaN-recovery branch.
 */

#ifndef CRISC_SIM_KERNELS_UTIL_HH
#define CRISC_SIM_KERNELS_UTIL_HH

#include <algorithm>
#include <cstddef>

#include "linalg/matrix.hh"

namespace crisc {
namespace sim {
namespace detail {
// Internal linkage, like simd.hh: the kernel TUs include this header
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

/** One complex value as its two components. */
struct Amp
{
    double re;
    double im;
};

inline Amp
toAmp(linalg::Complex c)
{
    return {c.real(), c.imag()};
}

inline Amp
add(Amp a, Amp b)
{
    return {a.re + b.re, a.im + b.im};
}

inline Amp
mul(Amp a, Amp b)
{
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/** One interleaved statevector: element e is amplitude e. */
struct Interleaved
{
    linalg::Complex *amps;

    static constexpr std::size_t lanes() { return 1; }
    // std::complex<double> is array-compatible with double[2].
    Amp get(std::size_t e) const
    {
        const double *p = reinterpret_cast<const double *>(amps + e);
        return {p[0], p[1]};
    }
    void set(std::size_t e, Amp v) const
    {
        double *p = reinterpret_cast<double *>(amps + e);
        p[0] = v.re;
        p[1] = v.im;
    }
};

/** SoA batch lanes: element i * batch + t is lane t of amplitude i. */
struct Split
{
    double *re;
    double *im;
    std::size_t batch;

    std::size_t lanes() const { return batch; }
    Amp get(std::size_t e) const { return {re[e], im[e]}; }
    void set(std::size_t e, Amp v) const
    {
        re[e] = v.re;
        im[e] = v.im;
    }
};

/**
 * Calls body(e, end) once per contiguous run of the groups [g0, g1):
 * runs of @p run groups (a power of two), cut at g0 and g1, whose base
 * amplitudes base(g) ascend by one; [e, end) are the run's base
 * elements in a layout of @p lanes lanes.
 */
template <class Base, class Body>
inline void
forEachRun(std::size_t run, std::size_t lanes, std::size_t g0,
           std::size_t g1, Base base, Body body)
{
    for (std::size_t g = g0; g < g1;) {
        const std::size_t runEnd = std::min(g1, (g & ~(run - 1)) + run);
        const std::size_t e = base(g) * lanes;
        body(e, e + (runEnd - g) * lanes);
        g = runEnd;
    }
}

/** forEachRun over pairs of @p qubit: body(e, end, partner), partner
 *  the |1> element's distance from its |0> element. */
template <class Body>
inline void
forEachPairRun(std::size_t n_qubits, std::size_t lanes, std::size_t qubit,
               std::size_t g0, std::size_t g1, Body body)
{
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t partner = (std::size_t{1} << pos) * lanes;
    forEachRun(
        std::size_t{1} << pos, lanes, g0, g1,
        [pos](std::size_t p) { return insertZeroBit(p, pos); },
        [&](std::size_t e, std::size_t end) { body(e, end, partner); });
}

/** forEachRun over quads of (q_hi, q_lo): body(e, end, o_lo, o_hi), the
 *  element offsets of the |01> and |10> partners (|11> is their sum). */
template <class Body>
inline void
forEachQuadRun(std::size_t n_qubits, std::size_t lanes, std::size_t q_hi,
               std::size_t q_lo, std::size_t g0, std::size_t g1, Body body)
{
    const std::size_t p_hi = n_qubits - 1 - q_hi; // weight-2 gate bit.
    const std::size_t p_lo = n_qubits - 1 - q_lo; // weight-1 gate bit.
    const std::size_t first = std::min(p_hi, p_lo);
    const std::size_t second = std::max(p_hi, p_lo);
    const std::size_t o_lo = (std::size_t{1} << p_lo) * lanes;
    const std::size_t o_hi = (std::size_t{1} << p_hi) * lanes;
    forEachRun(
        std::size_t{1} << first, lanes, g0, g1,
        [first, second](std::size_t g) {
            return insertZeroBit(insertZeroBit(g, first), second);
        },
        [&](std::size_t e, std::size_t end) { body(e, end, o_lo, o_hi); });
}

/** row . (a0, a1, a2, a3) as ((r0 a0 + r1 a1) + r2 a2) + r3 a3. */
inline Amp
dot4(const Amp *row, Amp a0, Amp a1, Amp a2, Amp a3)
{
    return add(add(add(mul(row[0], a0), mul(row[1], a1)), mul(row[2], a2)),
               mul(row[3], a3));
}

// The four gate kernels over groups [g0, g1), written once for every
// backend and layout. Per run, vec(e, end, partner offsets) applies the
// gate to whole vectors from element e on and returns the first element
// it left (an ISA body's vector loop; noVectors for the scalar
// kernels), and the per-element step finishes the run.

/** The scalar kernels' vector loop: none. */
inline constexpr auto noVectors = [](std::size_t e, auto...) { return e; };

template <class Layout, class Vec>
inline void
sweep1q(const Layout &s, std::size_t n_qubits, std::size_t qubit,
        const linalg::Complex m[4], std::size_t g0, std::size_t g1, Vec vec)
{
    const Amp m00 = toAmp(m[0]), m01 = toAmp(m[1]);
    const Amp m10 = toAmp(m[2]), m11 = toAmp(m[3]);
    forEachPairRun(
        n_qubits, s.lanes(), qubit, g0, g1,
        [&](std::size_t e, std::size_t end, std::size_t partner) {
            for (e = vec(e, end, partner); e < end; ++e) {
                const Amp a0 = s.get(e);
                const Amp a1 = s.get(e + partner);
                s.set(e, add(mul(m00, a0), mul(m01, a1)));
                s.set(e + partner, add(mul(m10, a0), mul(m11, a1)));
            }
        });
}

template <class Layout, class Vec>
inline void
sweep1qDiag(const Layout &s, std::size_t n_qubits, std::size_t qubit,
            linalg::Complex d0, linalg::Complex d1, std::size_t g0,
            std::size_t g1, Vec vec)
{
    const Amp v0 = toAmp(d0), v1 = toAmp(d1);
    forEachPairRun(
        n_qubits, s.lanes(), qubit, g0, g1,
        [&](std::size_t e, std::size_t end, std::size_t partner) {
            for (e = vec(e, end, partner); e < end; ++e) {
                s.set(e, mul(s.get(e), v0));
                s.set(e + partner, mul(s.get(e + partner), v1));
            }
        });
}

template <class Layout, class Vec>
inline void
sweep2q(const Layout &s, std::size_t n_qubits, std::size_t q_hi,
        std::size_t q_lo, const linalg::Complex m[16], std::size_t g0,
        std::size_t g1, Vec vec)
{
    Amp mv[16];
    for (std::size_t i = 0; i < 16; ++i)
        mv[i] = toAmp(m[i]);
    forEachQuadRun(
        n_qubits, s.lanes(), q_hi, q_lo, g0, g1,
        [&](std::size_t e, std::size_t end, std::size_t o_lo,
            std::size_t o_hi) {
            const std::size_t o_3 = o_hi + o_lo;
            for (e = vec(e, end, o_lo, o_hi); e < end; ++e) {
                const Amp a0 = s.get(e);
                const Amp a1 = s.get(e + o_lo);
                const Amp a2 = s.get(e + o_hi);
                const Amp a3 = s.get(e + o_3);
                s.set(e, dot4(mv, a0, a1, a2, a3));
                s.set(e + o_lo, dot4(mv + 4, a0, a1, a2, a3));
                s.set(e + o_hi, dot4(mv + 8, a0, a1, a2, a3));
                s.set(e + o_3, dot4(mv + 12, a0, a1, a2, a3));
            }
        });
}

template <class Layout, class Vec>
inline void
sweep2qDiag(const Layout &s, std::size_t n_qubits, std::size_t q_hi,
            std::size_t q_lo, const linalg::Complex d[4], std::size_t g0,
            std::size_t g1, Vec vec)
{
    const Amp v0 = toAmp(d[0]), v1 = toAmp(d[1]);
    const Amp v2 = toAmp(d[2]), v3 = toAmp(d[3]);
    forEachQuadRun(
        n_qubits, s.lanes(), q_hi, q_lo, g0, g1,
        [&](std::size_t e, std::size_t end, std::size_t o_lo,
            std::size_t o_hi) {
            const std::size_t o_3 = o_hi + o_lo;
            for (e = vec(e, end, o_lo, o_hi); e < end; ++e) {
                s.set(e, mul(s.get(e), v0));
                s.set(e + o_lo, mul(s.get(e + o_lo), v1));
                s.set(e + o_hi, mul(s.get(e + o_hi), v2));
                s.set(e + o_3, mul(s.get(e + o_3), v3));
            }
        });
}

} // namespace
} // namespace detail
} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_KERNELS_UTIL_HH
