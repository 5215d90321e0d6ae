/**
 * @file
 * AVX2 vector traits for the SIMD gate kernels (kernels_avx2.cc): a
 * split (structure-of-arrays) complex vector type `CVec` holding kLanes
 * real parts and kLanes imaginary parts in separate hardware vectors,
 * with deinterleaving loads / interleaving stores from the library's
 * interleaved std::complex<double> statevectors (loadc / storec), plus
 * plain contiguous loads / stores (loads / stores) for data that is
 * already split into separate re/im double arrays — the batched
 * trajectory layout of sim::BatchState.
 *
 * Only the TU that is compiled with -mavx2 may include this header;
 * anywhere else it is a hard #error — never a silent downgrade. The
 * scalar backend has no vector traits: its kernels are the sim::scalar
 * bodies in kernels.cc, whose per-element arithmetic (detail::Amp in
 * kernels_util.hh) the vector operations below replay lane by lane. A new ISA brings its own traits with these
 * names next to its kernels_<isa>.cc.
 *
 * Numerical contract: every lane of every operation performs exactly
 * the same IEEE-754 double operations, in the same order, as the
 * scalar reference kernels (two multiplies and a subtract for the real
 * part of a complex product, two multiplies and an add for the
 * imaginary part; no fused multiply-add). Vectorized kernels are
 * therefore bit-identical to the scalar path for finite inputs — the
 * pinned Figure-7 regressions hold on every backend. Keep it that way:
 * do not introduce FMA or reassociation here without revisiting the
 * pinned tests, and compile every kernel TU with -ffp-contract=off.
 *
 * The traits are kLanes, CVec, the four load/store forms, broadcast,
 * add and mul — exactly what the gate kernels use. There is no
 * negation: the Pauli kernels, the only code that negates, are scalar
 * on every backend (kernels.cc), so no backend can give a zero a
 * different sign.
 *
 * Lane order note: the deinterleaving load permutes lanes
 * (unpacklo/unpackhi yield element order 0,2,1,3 per 256-bit vector),
 * which is harmless — all CVec operations are elementwise, every CVec
 * in flight uses the same permutation, and the store applies the exact
 * inverse.
 */

#ifndef CRISC_SIM_SIMD_HH
#define CRISC_SIM_SIMD_HH

#include <complex>
#include <cstddef>

#if !defined(__AVX2__)
#error "simd.hh requires -mavx2 (build system bug)"
#endif

#include <immintrin.h>

namespace crisc {
namespace sim {
namespace simd {
// Internal linkage: these helpers are compiled with ISA flags, and
// with external linkage an identically named weak symbol in another
// TU could be kept in their place at -O0, where nothing is inlined.
namespace {

inline constexpr std::size_t kLanes = 4;

/** kLanes complex doubles in split (SoA) form. */
struct CVec
{
    __m256d re;
    __m256d im;
};

/** Deinterleaving load of kLanes consecutive complex amplitudes. */
inline CVec
loadc(const std::complex<double> *p)
{
    const double *d = reinterpret_cast<const double *>(p);
    const __m256d lo = _mm256_loadu_pd(d);     // r0 i0 r1 i1
    const __m256d hi = _mm256_loadu_pd(d + 4); // r2 i2 r3 i3
    return {_mm256_unpacklo_pd(lo, hi),        // r0 r2 r1 r3
            _mm256_unpackhi_pd(lo, hi)};       // i0 i2 i1 i3
}

/** Interleaving store; exact inverse of loadc's permutation. */
inline void
storec(std::complex<double> *p, CVec a)
{
    double *d = reinterpret_cast<double *>(p);
    _mm256_storeu_pd(d, _mm256_unpacklo_pd(a.re, a.im));
    _mm256_storeu_pd(d + 4, _mm256_unpackhi_pd(a.re, a.im));
}

/** Load of kLanes already-split amplitudes (no permutation). */
inline CVec
loads(const double *re, const double *im)
{
    return {_mm256_loadu_pd(re), _mm256_loadu_pd(im)};
}

/** Store of kLanes already-split amplitudes; inverse of loads. */
inline void
stores(double *re, double *im, CVec a)
{
    _mm256_storeu_pd(re, a.re);
    _mm256_storeu_pd(im, a.im);
}

inline CVec
broadcast(std::complex<double> c)
{
    return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

inline CVec
add(CVec a, CVec b)
{
    return {_mm256_add_pd(a.re, b.re), _mm256_add_pd(a.im, b.im)};
}

/** Complex product, scalar operation order: (ar*br - ai*bi, ar*bi + ai*br). */
inline CVec
mul(CVec a, CVec b)
{
    return {_mm256_sub_pd(_mm256_mul_pd(a.re, b.re),
                          _mm256_mul_pd(a.im, b.im)),
            _mm256_add_pd(_mm256_mul_pd(a.re, b.im),
                          _mm256_mul_pd(a.im, b.re))};
}

} // namespace
} // namespace simd
} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_SIMD_HH
