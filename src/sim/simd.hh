/**
 * @file
 * Portable SIMD abstraction for the statevector kernels: a split
 * (structure-of-arrays) complex vector type `CVec` holding kLanes
 * real parts and kLanes imaginary parts in separate hardware vectors,
 * with deinterleaving loads / interleaving stores from the library's
 * interleaved std::complex<double> statevectors, plus plain contiguous
 * loads / stores (loads / stores) for data that is already split into
 * separate re/im double arrays — the batched trajectory layout of
 * sim::BatchState.
 *
 * Backend selection is per translation unit: every kernels_<backend>.cc
 * stamp TU defines exactly one of
 *
 *   CRISC_SIMD_STAMP_SCALAR   portable scalar (kLanes == 1)
 *   CRISC_SIMD_STAMP_AVX2     AVX2, 4 lanes   (requires -mavx2)
 *
 * before including this header (via kernels_impl.hh). All stamped
 * backends are compiled into the same binary and selected at runtime by
 * src/sim/dispatch.cc (CPU probe + CRISC_SIMD_DISPATCH override). A
 * stamp whose ISA the compiler has not enabled is a hard #error — never
 * a silent downgrade; CMake compiles only the stamp TUs the target and
 * compiler can build, so hitting the #error means the build system and
 * this header disagree.
 *
 * Numerical contract: every lane of every operation performs exactly
 * the same IEEE-754 double operations, in the same order, as the
 * scalar reference kernels (two multiplies and a subtract for the real
 * part of a complex product, two multiplies and an add for the
 * imaginary part; no fused multiply-add). Vectorized kernels are
 * therefore bit-identical to the scalar path for finite inputs — the
 * pinned Figure-7 regressions hold on every backend. Keep it that way:
 * do not introduce FMA or reassociation here without revisiting the
 * pinned tests, and compile every stamp TU with -ffp-contract=off.
 *
 * Besides kLanes / kBackendName / CVec and the arithmetic ops, each
 * backend exposes one trait the kernels branch on at compile time:
 *
 *   kNegIsSubFromZero  how neg() treats signed zero: the AVX2 backend
 *                      computes 0 - x (mapping +0 to +0), scalar flips
 *                      the sign bit (+0 to -0). The batched Pauli
 *                      kernels replay the serial kernel's flavour per
 *                      backend (see negLikeSerial in kernels_impl.hh).
 *
 * AVX2 lane order note: the deinterleaving load permutes lanes
 * (unpacklo/unpackhi yield element order 0,2,1,3 per 256-bit vector),
 * which is harmless — all CVec operations are elementwise, every CVec
 * in flight uses the same permutation, and the store applies the exact
 * inverse.
 */

#ifndef CRISC_SIM_SIMD_HH
#define CRISC_SIM_SIMD_HH

#include <complex>
#include <cstddef>

#if defined(CRISC_SIMD_STAMP_SCALAR) + defined(CRISC_SIMD_STAMP_AVX2) != 1
#error "simd.hh: define exactly one CRISC_SIMD_STAMP_* before including"
#endif

#if defined(CRISC_SIMD_STAMP_AVX2) && !defined(__AVX2__)
#error "simd.hh: CRISC_SIMD_STAMP_AVX2 requires -mavx2 (build system bug)"
#endif

#if defined(CRISC_SIMD_STAMP_AVX2)
#include <immintrin.h>
#endif

namespace crisc {
namespace sim {
namespace simd {
// Internal linkage: every stamp TU compiles these helpers with its own
// ISA flags, and with external linkage they would be identically named
// weak symbols across TUs — at -O0, where nothing is inlined, the
// linker would keep one ISA's copy for every backend.
namespace {

#if defined(CRISC_SIMD_STAMP_AVX2)

inline constexpr std::size_t kLanes = 4;
inline constexpr const char *kBackendName = "avx2";
inline constexpr bool kNegIsSubFromZero = true;

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

inline CVec
neg(CVec a)
{
    const __m256d zero = _mm256_setzero_pd();
    return {_mm256_sub_pd(zero, a.re), _mm256_sub_pd(zero, a.im)};
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

/** Multiplication by -i: (re, im) -> (im, -re). */
inline CVec
mulNegI(CVec a)
{
    return {a.im, _mm256_sub_pd(_mm256_setzero_pd(), a.re)};
}

/** Multiplication by +i: (re, im) -> (-im, re). */
inline CVec
mulPosI(CVec a)
{
    return {_mm256_sub_pd(_mm256_setzero_pd(), a.im), a.re};
}

#else // CRISC_SIMD_STAMP_SCALAR

inline constexpr std::size_t kLanes = 1;
inline constexpr const char *kBackendName = "scalar";
inline constexpr bool kNegIsSubFromZero = false;

struct CVec
{
    double re;
    double im;
};

inline CVec
loadc(const std::complex<double> *p)
{
    return {p->real(), p->imag()};
}

inline void
storec(std::complex<double> *p, CVec a)
{
    *p = {a.re, a.im};
}

inline CVec
loads(const double *re, const double *im)
{
    return {*re, *im};
}

inline void
stores(double *re, double *im, CVec a)
{
    *re = a.re;
    *im = a.im;
}

inline CVec
broadcast(std::complex<double> c)
{
    return {c.real(), c.imag()};
}

inline CVec
add(CVec a, CVec b)
{
    return {a.re + b.re, a.im + b.im};
}

inline CVec
neg(CVec a)
{
    return {-a.re, -a.im};
}

inline CVec
mul(CVec a, CVec b)
{
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

inline CVec
mulNegI(CVec a)
{
    return {a.im, -a.re};
}

inline CVec
mulPosI(CVec a)
{
    return {-a.im, a.re};
}

#endif

} // namespace
} // namespace simd
} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_SIMD_HH
