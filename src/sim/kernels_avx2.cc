/**
 * @file
 * The AVX2 backend: the four SIMD gate kernels (1q, 1q-diagonal, 2q,
 * 2q-diagonal), each written once over a layout policy, and the
 * 8-entry KernelTable that instantiates them for the interleaved
 * statevector and for SoA batch lanes. Compiled with -mavx2
 * -ffp-contract=off (see CMakeLists.txt); only dispatch.cc may call
 * into this TU, and only after the CPU probe (or an explicit override)
 * confirmed AVX2.
 *
 * Each body is the shared gate sweep of kernels_util.hh — the run walk
 * and the per-element step the scalar kernels use — with a vector loop
 * over kLanes elements at a time; a run's partial vector finishes with
 * the per-element step. Every lane keeps the scalar IEEE operation
 * sequence (simd.hh), so any partition of any range, at any batch
 * width, reproduces sim::scalar bit for bit. When every run is
 * narrower than one vector (stride * B < kLanes) no vector loop runs
 * and the body is the sim::scalar kernel of its layout.
 */

#include "sim/dispatch.hh"
#include "sim/kernels.hh"
#include "sim/kernels_util.hh"
#include "sim/simd.hh"

namespace crisc {
namespace sim {
namespace {

using detail::Interleaved;
using detail::Split;
using simd::CVec;

// Vector access to kLanes consecutive elements of each layout.

CVec
load(const Interleaved &s, std::size_t e)
{
    return simd::loadc(s.amps + e);
}

void
store(const Interleaved &s, std::size_t e, CVec v)
{
    simd::storec(s.amps + e, v);
}

CVec
load(const Split &s, std::size_t e)
{
    return simd::loads(s.re + e, s.im + e);
}

void
store(const Split &s, std::size_t e, CVec v)
{
    simd::stores(s.re + e, s.im + e, v);
}

/** row . (a0, a1, a2, a3) in the scalar order ((r0 a0 + r1 a1) + r2 a2)
 *  + r3 a3. */
CVec
dot4(const CVec *row, CVec a0, CVec a1, CVec a2, CVec a3)
{
    return simd::add(simd::add(simd::add(simd::mul(row[0], a0),
                                         simd::mul(row[1], a1)),
                               simd::mul(row[2], a2)),
                     simd::mul(row[3], a3));
}

// The four gate bodies: the shared sweeps of kernels_util.hh with an
// AVX2 vector loop. A run narrower than a vector skips the loop, so the
// sweep is then exactly the sim::scalar kernel.

template <class Layout>
void
apply1q(Layout s, std::size_t n_qubits, std::size_t qubit,
        const Complex m[4], std::size_t pair_begin, std::size_t pair_end)
{
    const CVec m00 = simd::broadcast(m[0]);
    const CVec m01 = simd::broadcast(m[1]);
    const CVec m10 = simd::broadcast(m[2]);
    const CVec m11 = simd::broadcast(m[3]);
    detail::sweep1q(
        s, n_qubits, qubit, m, pair_begin, pair_end,
        [&](std::size_t e, std::size_t end, std::size_t partner) {
            for (; e + simd::kLanes <= end; e += simd::kLanes) {
                const CVec a0 = load(s, e);
                const CVec a1 = load(s, e + partner);
                store(s, e,
                      simd::add(simd::mul(m00, a0), simd::mul(m01, a1)));
                store(s, e + partner,
                      simd::add(simd::mul(m10, a0), simd::mul(m11, a1)));
            }
            return e;
        });
}

template <class Layout>
void
apply1qDiag(Layout s, std::size_t n_qubits, std::size_t qubit, Complex d0,
            Complex d1, std::size_t pair_begin, std::size_t pair_end)
{
    const CVec v0 = simd::broadcast(d0);
    const CVec v1 = simd::broadcast(d1);
    detail::sweep1qDiag(
        s, n_qubits, qubit, d0, d1, pair_begin, pair_end,
        [&](std::size_t e, std::size_t end, std::size_t partner) {
            for (; e + simd::kLanes <= end; e += simd::kLanes) {
                store(s, e, simd::mul(load(s, e), v0));
                store(s, e + partner, simd::mul(load(s, e + partner), v1));
            }
            return e;
        });
}

template <class Layout>
void
apply2q(Layout s, std::size_t n_qubits, std::size_t q_hi, std::size_t q_lo,
        const Complex m[16], std::size_t quad_begin, std::size_t quad_end)
{
    CVec mv[16];
    for (std::size_t i = 0; i < 16; ++i)
        mv[i] = simd::broadcast(m[i]);
    detail::sweep2q(
        s, n_qubits, q_hi, q_lo, m, quad_begin, quad_end,
        [&](std::size_t e, std::size_t end, std::size_t o_lo,
            std::size_t o_hi) {
            const std::size_t o_3 = o_hi + o_lo;
            for (; e + simd::kLanes <= end; e += simd::kLanes) {
                const CVec a0 = load(s, e);
                const CVec a1 = load(s, e + o_lo);
                const CVec a2 = load(s, e + o_hi);
                const CVec a3 = load(s, e + o_3);
                store(s, e, dot4(mv, a0, a1, a2, a3));
                store(s, e + o_lo, dot4(mv + 4, a0, a1, a2, a3));
                store(s, e + o_hi, dot4(mv + 8, a0, a1, a2, a3));
                store(s, e + o_3, dot4(mv + 12, a0, a1, a2, a3));
            }
            return e;
        });
}

template <class Layout>
void
apply2qDiag(Layout s, std::size_t n_qubits, std::size_t q_hi,
            std::size_t q_lo, const Complex d[4], std::size_t quad_begin,
            std::size_t quad_end)
{
    const CVec v0 = simd::broadcast(d[0]);
    const CVec v1 = simd::broadcast(d[1]);
    const CVec v2 = simd::broadcast(d[2]);
    const CVec v3 = simd::broadcast(d[3]);
    detail::sweep2qDiag(
        s, n_qubits, q_hi, q_lo, d, quad_begin, quad_end,
        [&](std::size_t e, std::size_t end, std::size_t o_lo,
            std::size_t o_hi) {
            const std::size_t o_3 = o_hi + o_lo;
            for (; e + simd::kLanes <= end; e += simd::kLanes) {
                store(s, e, simd::mul(load(s, e), v0));
                store(s, e + o_lo, simd::mul(load(s, e + o_lo), v1));
                store(s, e + o_hi, simd::mul(load(s, e + o_hi), v2));
                store(s, e + o_3, simd::mul(load(s, e + o_3), v3));
            }
            return e;
        });
}

} // namespace

namespace detail {

const KernelTable &
avx2KernelTable()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.backend = Backend::Avx2;
        t.name = backendName(Backend::Avx2);
        t.lanes = simd::kLanes;
        // One instantiation of each body per layout.
        t.apply1qRange = [](Complex *a, std::size_t n, std::size_t q,
                            const Complex *m, std::size_t g0,
                            std::size_t g1) {
            apply1q(Interleaved{a}, n, q, m, g0, g1);
        };
        t.apply1qDiagRange = [](Complex *a, std::size_t n, std::size_t q,
                                Complex d0, Complex d1, std::size_t g0,
                                std::size_t g1) {
            apply1qDiag(Interleaved{a}, n, q, d0, d1, g0, g1);
        };
        t.apply2qRange = [](Complex *a, std::size_t n, std::size_t q_hi,
                            std::size_t q_lo, const Complex *m,
                            std::size_t g0, std::size_t g1) {
            apply2q(Interleaved{a}, n, q_hi, q_lo, m, g0, g1);
        };
        t.apply2qDiagRange = [](Complex *a, std::size_t n, std::size_t q_hi,
                                std::size_t q_lo, const Complex *d,
                                std::size_t g0, std::size_t g1) {
            apply2qDiag(Interleaved{a}, n, q_hi, q_lo, d, g0, g1);
        };
        t.apply1qBatchRange = [](double *re, double *im, std::size_t n,
                                 std::size_t b, std::size_t q,
                                 const Complex *m, std::size_t g0,
                                 std::size_t g1) {
            apply1q(Split{re, im, b}, n, q, m, g0, g1);
        };
        t.apply1qDiagBatchRange = [](double *re, double *im, std::size_t n,
                                     std::size_t b, std::size_t q,
                                     Complex d0, Complex d1, std::size_t g0,
                                     std::size_t g1) {
            apply1qDiag(Split{re, im, b}, n, q, d0, d1, g0, g1);
        };
        t.apply2qBatchRange = [](double *re, double *im, std::size_t n,
                                 std::size_t b, std::size_t q_hi,
                                 std::size_t q_lo, const Complex *m,
                                 std::size_t g0, std::size_t g1) {
            apply2q(Split{re, im, b}, n, q_hi, q_lo, m, g0, g1);
        };
        t.apply2qDiagBatchRange = [](double *re, double *im, std::size_t n,
                                     std::size_t b, std::size_t q_hi,
                                     std::size_t q_lo, const Complex *d,
                                     std::size_t g0, std::size_t g1) {
            apply2qDiag(Split{re, im, b}, n, q_hi, q_lo, d, g0, g1);
        };
        return t;
    }();
    return table;
}

} // namespace detail
} // namespace sim
} // namespace crisc
