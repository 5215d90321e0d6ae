/**
 * @file
 * Scalar-vs-SIMD kernel equivalence suite (fast; runs under the CI
 * sanitizer matrix). Every dispatching kernel in sim/kernels.hh must
 * reproduce its sim::scalar reference on random states — the SIMD
 * lanes replay the scalar IEEE operation order exactly, so the paths
 * agree bit for bit on finite amplitudes; the acceptance bound asserted
 * here is 1e-12, with an additional exact check guarding the
 * bit-identical contract the pinned Figure-7 regressions rely on.
 * Register widths sweep past the vector length so both the vectorized
 * inner loops and the short-stride scalar fallback are exercised.
 *
 * The same pinning extends to the partition substrate: group-range
 * kernels over arbitrary partitions and the generic dense (k >= 3)
 * fallback must be bit-identical to the serial sweeps. Chunked pool,
 * SoA and blocked execution are pinned by the engine oracle
 * (test_engine_oracle.cc).
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/random.hh"
#include "qop/gates.hh"
#include "sim/kernels.hh"
#include "sim_test_util.hh"

namespace {

using namespace crisc;
using linalg::Complex;
using linalg::CVector;
using linalg::Matrix;
using testutil::bitIdentical;
using testutil::maxDiff;
using testutil::randomState;

TEST(Simd, BackendIsWellFormed)
{
    const std::string backend = sim::simdBackendName();
    EXPECT_TRUE(backend == "avx2" || backend == "avx512" ||
                backend == "neon" || backend == "scalar")
        << backend;
    const std::size_t lanes = sim::simdLanes();
    EXPECT_GE(lanes, 1u);
    EXPECT_EQ(lanes & (lanes - 1), 0u) << "lane count must be 2^k";
}

TEST(Simd, Apply1qMatchesScalarOnAllStrides)
{
    linalg::Rng rng(101);
    for (std::size_t n = 1; n <= 9; ++n) {
        const Matrix u = linalg::haarUnitary(rng, 2);
        const Complex m[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
        for (std::size_t q = 0; q < n; ++q) {
            const CVector in = randomState(rng, n);
            CVector viaScalar = in, viaSimd = in;
            sim::scalar::apply1q(viaScalar.data(), n, q, m);
            sim::apply1q(viaSimd.data(), n, q, m);
            EXPECT_LT(maxDiff(viaSimd, viaScalar), 1e-12);
            EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(Simd, Apply1qDiagMatchesScalarOnAllStrides)
{
    linalg::Rng rng(102);
    const Matrix u = qop::rz(1.2345);
    for (std::size_t n = 1; n <= 9; ++n) {
        for (std::size_t q = 0; q < n; ++q) {
            const CVector in = randomState(rng, n);
            CVector viaScalar = in, viaSimd = in;
            sim::scalar::apply1qDiag(viaScalar.data(), n, q, u(0, 0),
                                     u(1, 1));
            sim::apply1qDiag(viaSimd.data(), n, q, u(0, 0), u(1, 1));
            EXPECT_LT(maxDiff(viaSimd, viaScalar), 1e-12);
            EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(Simd, ApplyPauliMatchesScalarOnAllStrides)
{
    linalg::Rng rng(103);
    for (std::size_t n = 1; n <= 9; ++n) {
        for (std::size_t q = 0; q < n; ++q) {
            for (std::size_t p = 1; p <= 3; ++p) {
                const CVector in = randomState(rng, n);
                CVector viaScalar = in, viaSimd = in;
                sim::scalar::applyPauli(viaScalar.data(), n, q, p);
                sim::applyPauli(viaSimd.data(), n, q, p);
                EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                    << "n=" << n << " q=" << q << " pauli=" << p;
            }
        }
    }
    CVector buf(2, Complex{1.0, 0.0});
    EXPECT_THROW(sim::applyPauli(buf.data(), 1, 0, 4),
                 std::invalid_argument);
    EXPECT_THROW(sim::applyPauli(buf.data(), 1, 0, 0),
                 std::invalid_argument);
}

TEST(Simd, Apply2qMatchesScalarOnAllPairs)
{
    linalg::Rng rng(104);
    for (std::size_t n = 2; n <= 8; ++n) {
        const Matrix u = linalg::haarUnitary(rng, 4);
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                const CVector in = randomState(rng, n);
                CVector viaScalar = in, viaSimd = in;
                sim::scalar::apply2q(viaScalar.data(), n, a, b, u.data());
                sim::apply2q(viaSimd.data(), n, a, b, u.data());
                EXPECT_LT(maxDiff(viaSimd, viaScalar), 1e-12);
                EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                    << "n=" << n << " pair (" << a << ", " << b << ")";
            }
        }
    }
}

TEST(Simd, Apply2qDiagMatchesScalarOnAllPairs)
{
    linalg::Rng rng(105);
    const Complex d[4] = {Complex{1.0, 0.0},
                          std::polar(1.0, 0.3),
                          std::polar(1.0, -0.7),
                          std::polar(1.0, 2.1)};
    for (std::size_t n = 2; n <= 8; ++n) {
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                const CVector in = randomState(rng, n);
                CVector viaScalar = in, viaSimd = in;
                sim::scalar::apply2qDiag(viaScalar.data(), n, a, b, d);
                sim::apply2qDiag(viaSimd.data(), n, a, b, d);
                EXPECT_TRUE(bitIdentical(viaSimd, viaScalar))
                    << "n=" << n << " pair (" << a << ", " << b << ")";
            }
        }
    }
}

TEST(Simd, RangeKernelsMatchFullKernelsOnArbitraryPartitions)
{
    // Any partition of the group index space — including boundaries
    // that are not SIMD- or cache-aligned — must reassemble the scalar
    // reference sweep bit for bit, for both the dispatching and the
    // scalar reference range kernels.
    linalg::Rng rng(107);
    const Matrix u2 = linalg::haarUnitary(rng, 2);
    const Complex m2[4] = {u2(0, 0), u2(0, 1), u2(1, 0), u2(1, 1)};
    const Matrix u4 = linalg::haarUnitary(rng, 4);
    const Complex d4[4] = {Complex{1.0, 0.0}, std::polar(1.0, 0.4),
                           std::polar(1.0, -1.1), std::polar(1.0, 2.6)};
    const Matrix rz = qop::rz(0.9173);

    const auto partitionPoints = [](std::size_t groups) {
        std::vector<std::size_t> cuts{0, 1, 3, groups / 3,
                                      groups / 2 + 5, groups - 1, groups};
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        while (!cuts.empty() && cuts.back() > groups)
            cuts.pop_back();
        return cuts;
    };

    for (std::size_t n = 4; n <= 9; ++n) {
        const std::size_t pairs = (std::size_t{1} << n) / 2;
        const std::size_t quads = (std::size_t{1} << n) / 4;
        for (std::size_t q = 0; q < n; ++q) {
            const CVector in = randomState(rng, n);
            CVector full = in, ranged = in, scalarRanged = in;
            sim::scalar::apply1q(full.data(), n, q, m2);
            const auto cuts = partitionPoints(pairs);
            for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                sim::apply1qRange(ranged.data(), n, q, m2, cuts[c],
                                  cuts[c + 1]);
                sim::scalar::apply1qRange(scalarRanged.data(), n, q, m2,
                                          cuts[c], cuts[c + 1]);
            }
            EXPECT_TRUE(bitIdentical(ranged, full)) << "n=" << n
                                                    << " q=" << q;
            EXPECT_TRUE(bitIdentical(scalarRanged, full))
                << "n=" << n << " q=" << q;

            CVector diagFull = in, diagRanged = in;
            sim::scalar::apply1qDiag(diagFull.data(), n, q, rz(0, 0),
                                     rz(1, 1));
            for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
                sim::apply1qDiagRange(diagRanged.data(), n, q, rz(0, 0),
                                      rz(1, 1), cuts[c], cuts[c + 1]);
            EXPECT_TRUE(bitIdentical(diagRanged, diagFull))
                << "n=" << n << " q=" << q;
        }
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                const CVector in = randomState(rng, n);
                CVector full = in, ranged = in, scalarRanged = in;
                sim::scalar::apply2q(full.data(), n, a, b, u4.data());
                const auto cuts = partitionPoints(quads);
                for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                    sim::apply2qRange(ranged.data(), n, a, b, u4.data(),
                                      cuts[c], cuts[c + 1]);
                    sim::scalar::apply2qRange(scalarRanged.data(), n, a, b,
                                              u4.data(), cuts[c],
                                              cuts[c + 1]);
                }
                EXPECT_TRUE(bitIdentical(ranged, full))
                    << "n=" << n << " pair (" << a << ", " << b << ")";
                EXPECT_TRUE(bitIdentical(scalarRanged, full))
                    << "n=" << n << " pair (" << a << ", " << b << ")";

                CVector diagFull = in, diagRanged = in;
                sim::scalar::apply2qDiag(diagFull.data(), n, a, b, d4);
                for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
                    sim::apply2qDiagRange(diagRanged.data(), n, a, b, d4,
                                          cuts[c], cuts[c + 1]);
                EXPECT_TRUE(bitIdentical(diagRanged, diagFull))
                    << "n=" << n << " pair (" << a << ", " << b << ")";
            }
        }
    }
}

TEST(Simd, DenseKernelMatchesEmbeddingAndRangePartition)
{
    // The k >= 3 generic fallback previously had no equivalence pin of
    // its own: check it against the dense embedding (1e-12) and check
    // that an arbitrary partition of its group sweep is bit-identical
    // to the full kernel.
    linalg::Rng rng(108);
    for (std::size_t n = 4; n <= 6; ++n) {
        for (const std::size_t k : {std::size_t{3}, std::size_t{4}}) {
            if (k > n)
                continue;
            // A scattered, non-ascending qubit list stresses the
            // bit-expansion path.
            std::vector<std::size_t> qubits;
            for (std::size_t q = 0; q < n; ++q)
                qubits.push_back(q);
            std::shuffle(qubits.begin(), qubits.end(), rng.engine());
            qubits.resize(k);
            const Matrix u =
                linalg::haarUnitary(rng, std::size_t{1} << k);
            const CVector in = randomState(rng, n);

            CVector viaKernel = in;
            sim::applyDense(viaKernel.data(), n, u, qubits);
            const CVector viaEmbed = qop::embed(u, qubits, n) * in;
            EXPECT_LT(maxDiff(viaKernel, viaEmbed), 1e-12)
                << "n=" << n << " k=" << k;

            const std::size_t groups = (std::size_t{1} << n) >> k;
            CVector viaRange = in;
            std::size_t g = 0;
            std::size_t step = 1;
            while (g < groups) {
                const std::size_t end = std::min(groups, g + step);
                sim::applyDenseRange(viaRange.data(), n, u, qubits, g,
                                     end);
                g = end;
                step = step * 2 + 1; // uneven, unaligned chunks
            }
            EXPECT_TRUE(bitIdentical(viaRange, viaKernel))
                << "n=" << n << " k=" << k;
        }
    }
}

TEST(Simd, LargeRegisterSpotCheck)
{
    // One 16-qubit sweep (65k amplitudes, fully vectorized strides) so
    // the equivalence evidence is not limited to toy sizes.
    linalg::Rng rng(106);
    const std::size_t n = 16;
    const Matrix u2 = linalg::haarUnitary(rng, 2);
    const Complex m[4] = {u2(0, 0), u2(0, 1), u2(1, 0), u2(1, 1)};
    const Matrix u4 = linalg::haarUnitary(rng, 4);
    const CVector in = randomState(rng, n);
    CVector viaScalar = in, viaSimd = in;
    for (std::size_t q = 0; q < n; ++q) {
        sim::scalar::apply1q(viaScalar.data(), n, q, m);
        sim::apply1q(viaSimd.data(), n, q, m);
    }
    for (std::size_t q = 0; q + 1 < n; q += 2) {
        sim::scalar::apply2q(viaScalar.data(), n, q, q + 1, u4.data());
        sim::apply2q(viaSimd.data(), n, q, q + 1, u4.data());
    }
    EXPECT_LT(maxDiff(viaSimd, viaScalar), 1e-12);
    EXPECT_TRUE(bitIdentical(viaSimd, viaScalar));
}

} // namespace
