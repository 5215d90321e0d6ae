/**
 * @file
 * Shared statevector test fixtures: a seeded random normalized state,
 * the group counts of a whole-register sweep, an element-wise
 * max-difference metric, a bitwise-equality predicate, and a random
 * circuit covering all five KernelKinds. Used by the
 * simulation (test_sim.cc), SIMD-equivalence (test_simd.cc), and
 * blocked-execution (test_blocked.cc) suites so they all exercise
 * identical state and circuit generation.
 */

#ifndef CRISC_TESTS_SIM_TEST_UTIL_HH
#define CRISC_TESTS_SIM_TEST_UTIL_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "circuit/circuit.hh"
#include "linalg/matrix.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"

namespace crisc {
namespace testutil {

/** A Haar-ish random normalized n-qubit statevector. */
inline linalg::CVector
randomState(linalg::Rng &rng, std::size_t n)
{
    linalg::CVector v(std::size_t{1} << n);
    double norm2 = 0.0;
    for (linalg::Complex &a : v) {
        a = linalg::Complex{rng.gaussian(), rng.gaussian()};
        norm2 += std::norm(a);
    }
    const double scale = 1.0 / std::sqrt(norm2);
    for (linalg::Complex &a : v)
        a *= scale;
    return v;
}

/** Group counts of a whole-register 1q (pairs) and 2q (quads) sweep:
 *  a full sweep is the range kernel over [0, pairsOf(n)) or
 *  [0, quadsOf(n)). */
inline std::size_t
pairsOf(std::size_t n)
{
    return (std::size_t{1} << n) >> 1;
}

inline std::size_t
quadsOf(std::size_t n)
{
    return (std::size_t{1} << n) >> 2;
}

/** max_i |a[i] - b[i]| over two equal-length vectors. */
inline double
maxDiff(const linalg::CVector &a, const linalg::CVector &b)
{
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

/** Exact bitwise equality of two equal-length statevectors: the bit
 *  patterns of every real and imaginary part, so -0 differs from +0. */
inline bool
bitIdentical(const linalg::CVector &a, const linalg::CVector &b)
{
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t i = 0; i < a.size(); ++i)
        if (bits(a[i].real()) != bits(b[i].real()) ||
            bits(a[i].imag()) != bits(b[i].imag()))
            return false;
    return true;
}

/**
 * Random circuit whose compiled (fused) plan covers all five
 * KernelKinds: dense and diagonal 1q, dense and diagonal 2q, and the
 * k = 3 dense fallback.
 */
inline circuit::Circuit
randomCircuit(linalg::Rng &rng, std::size_t n, std::size_t gates)
{
    circuit::Circuit c(n);
    for (std::size_t g = 0; g < gates; ++g) {
        const std::size_t kind = rng.index(6);
        const std::size_t a = rng.index(n);
        std::size_t b = rng.index(n - 1);
        if (b >= a)
            ++b;
        switch (kind) {
          case 0:
            c.add(linalg::haarUnitary(rng, 2), {a}, "u1");
            break;
          case 1:
            c.add(qop::rz(rng.uniform(0.0, 6.28)), {a}, "rz");
            break;
          case 2:
            c.add(linalg::haarSU(rng, 4), {a, b}, "u2");
            break;
          case 3:
            c.add(qop::cz(), {a, b}, "cz");
            break;
          case 4:
            c.add(qop::cnot(), {a, b}, "cx");
            break;
          default: {
            std::size_t d = rng.index(n - 2);
            for (std::size_t q : {std::min(a, b), std::max(a, b)})
                if (d >= q)
                    ++d;
            c.add(linalg::haarUnitary(rng, 8), {a, b, d}, "u3");
            break;
          }
        }
    }
    return c;
}

} // namespace testutil
} // namespace crisc

#endif // CRISC_TESTS_SIM_TEST_UTIL_HH
