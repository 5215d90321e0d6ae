/**
 * @file
 * Scalar-vs-SIMD kernel equivalence suite (fast; runs under the CI
 * sanitizer matrix). Every interleaved kernel of every compiled
 * KernelTable (sim::compiledBackends(), whatever CRISC_SIMD_DISPATCH
 * resolved) must reproduce its sim::scalar reference on random states —
 * the SIMD lanes replay the scalar IEEE operation order exactly, so the
 * paths agree bit for bit on finite amplitudes; the acceptance bound
 * asserted here is 1e-12, with an additional exact check guarding the
 * bit-identical contract the pinned Figure-7 regressions rely on.
 * Register widths sweep past the vector length so both the vectorized
 * inner loops and the short-stride scalar fallback are exercised.
 *
 * The same pinning extends to the partition substrate: group-range
 * kernels over arbitrary partitions and the generic dense (k >= 3)
 * fallback (no SIMD body, one definition for every backend) must be
 * bit-identical to the whole-register sweeps (the range [0, groups)).
 * The Pauli kernel is pinned against its dense embedding in
 * test_sim.cc. Chunked pool, SoA and blocked execution are pinned by
 * the engine oracle (test_engine_oracle.cc).
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/random.hh"
#include "qop/gates.hh"
#include "sim/dispatch.hh"
#include "sim/kernels.hh"
#include "sim_test_util.hh"

namespace {

using namespace crisc;
using linalg::Complex;
using linalg::CVector;
using linalg::Matrix;
using testutil::bitIdentical;
using testutil::maxDiff;
using testutil::pairsOf;
using testutil::quadsOf;
using testutil::randomState;

TEST(Simd, BackendIsWellFormed)
{
    const std::string backend = sim::backendName();
    EXPECT_TRUE(backend == "avx2" || backend == "scalar") << backend;
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
            CVector viaScalar = in;
            sim::scalar::apply1qRange(viaScalar.data(), n, q, m, 0, pairsOf(n));
            for (const sim::Backend b : sim::compiledBackends()) {
                CVector viaTable = in;
                sim::kernelTable(b).apply1qRange(viaTable.data(), n, q, m,
                                                 0, pairsOf(n));
                EXPECT_LT(maxDiff(viaTable, viaScalar), 1e-12);
                EXPECT_TRUE(bitIdentical(viaTable, viaScalar))
                    << sim::backendName(b) << " n=" << n << " q=" << q;
            }
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
            CVector viaScalar = in;
            sim::scalar::apply1qDiagRange(viaScalar.data(), n, q, u(0, 0),
                                          u(1, 1), 0, pairsOf(n));
            for (const sim::Backend b : sim::compiledBackends()) {
                CVector viaTable = in;
                sim::kernelTable(b).apply1qDiagRange(
                    viaTable.data(), n, q, u(0, 0), u(1, 1), 0, pairsOf(n));
                EXPECT_LT(maxDiff(viaTable, viaScalar), 1e-12);
                EXPECT_TRUE(bitIdentical(viaTable, viaScalar))
                    << sim::backendName(b) << " n=" << n << " q=" << q;
            }
        }
    }
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
                CVector viaScalar = in;
                sim::scalar::apply2qRange(viaScalar.data(), n, a, b, u.data(),
                                          0, quadsOf(n));
                for (const sim::Backend be : sim::compiledBackends()) {
                    CVector viaTable = in;
                    sim::kernelTable(be).apply2qRange(viaTable.data(), n, a,
                                                      b, u.data(), 0,
                                                      quadsOf(n));
                    EXPECT_LT(maxDiff(viaTable, viaScalar), 1e-12);
                    EXPECT_TRUE(bitIdentical(viaTable, viaScalar))
                        << sim::backendName(be) << " n=" << n << " pair ("
                        << a << ", " << b << ")";
                }
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
                CVector viaScalar = in;
                sim::scalar::apply2qDiagRange(viaScalar.data(), n, a, b, d, 0,
                                              quadsOf(n));
                for (const sim::Backend be : sim::compiledBackends()) {
                    CVector viaTable = in;
                    sim::kernelTable(be).apply2qDiagRange(
                        viaTable.data(), n, a, b, d, 0, quadsOf(n));
                    EXPECT_TRUE(bitIdentical(viaTable, viaScalar))
                        << sim::backendName(be) << " n=" << n << " pair ("
                        << a << ", " << b << ")";
                }
            }
        }
    }
}

TEST(Simd, RangeKernelsMatchFullKernelsOnArbitraryPartitions)
{
    // Any partition of the group index space — including boundaries
    // that are not SIMD- or cache-aligned — must reassemble the scalar
    // reference sweep bit for bit, for every compiled table and for the
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
        for (std::size_t q = 0; q < n; ++q) {
            const CVector in = randomState(rng, n);
            CVector full = in, scalarRanged = in, diagFull = in;
            sim::scalar::apply1qRange(full.data(), n, q, m2, 0, pairsOf(n));
            sim::scalar::apply1qDiagRange(diagFull.data(), n, q, rz(0, 0),
                                          rz(1, 1), 0, pairsOf(n));
            const auto cuts = partitionPoints(pairsOf(n));
            for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
                sim::scalar::apply1qRange(scalarRanged.data(), n, q, m2,
                                          cuts[c], cuts[c + 1]);
            EXPECT_TRUE(bitIdentical(scalarRanged, full))
                << "n=" << n << " q=" << q;
            for (const sim::Backend b : sim::compiledBackends()) {
                const sim::KernelTable &k = sim::kernelTable(b);
                CVector ranged = in, diagRanged = in;
                for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                    k.apply1qRange(ranged.data(), n, q, m2, cuts[c],
                                   cuts[c + 1]);
                    k.apply1qDiagRange(diagRanged.data(), n, q, rz(0, 0),
                                       rz(1, 1), cuts[c], cuts[c + 1]);
                }
                EXPECT_TRUE(bitIdentical(ranged, full))
                    << sim::backendName(b) << " n=" << n << " q=" << q;
                EXPECT_TRUE(bitIdentical(diagRanged, diagFull))
                    << sim::backendName(b) << " n=" << n << " q=" << q;
            }
        }
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                const CVector in = randomState(rng, n);
                CVector full = in, scalarRanged = in, diagFull = in;
                sim::scalar::apply2qRange(full.data(), n, a, b, u4.data(), 0,
                                          quadsOf(n));
                sim::scalar::apply2qDiagRange(diagFull.data(), n, a, b, d4, 0,
                                              quadsOf(n));
                const auto cuts = partitionPoints(quadsOf(n));
                for (std::size_t c = 0; c + 1 < cuts.size(); ++c)
                    sim::scalar::apply2qRange(scalarRanged.data(), n, a, b,
                                              u4.data(), cuts[c], cuts[c + 1]);
                EXPECT_TRUE(bitIdentical(scalarRanged, full))
                    << "n=" << n << " pair (" << a << ", " << b << ")";
                for (const sim::Backend be : sim::compiledBackends()) {
                    const sim::KernelTable &k = sim::kernelTable(be);
                    CVector ranged = in, diagRanged = in;
                    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                        k.apply2qRange(ranged.data(), n, a, b, u4.data(),
                                       cuts[c], cuts[c + 1]);
                        k.apply2qDiagRange(diagRanged.data(), n, a, b, d4,
                                           cuts[c], cuts[c + 1]);
                    }
                    EXPECT_TRUE(bitIdentical(ranged, full))
                        << sim::backendName(be) << " n=" << n << " pair ("
                        << a << ", " << b << ")";
                    EXPECT_TRUE(bitIdentical(diagRanged, diagFull))
                        << sim::backendName(be) << " n=" << n << " pair ("
                        << a << ", " << b << ")";
                }
            }
        }
    }
}

TEST(Simd, DenseKernelMatchesEmbeddingAndRangePartition)
{
    // The k >= 3 generic fallback (one scalar definition that every
    // backend calls): check it against the dense embedding (1e-12) and
    // check that an arbitrary partition of its group sweep is
    // bit-identical to the whole-register sweep.
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
            const CVector viaEmbed = qop::embed(u, qubits, n) * in;
            const std::size_t groups = (std::size_t{1} << n) >> k;

            CVector viaKernel = in;
            sim::applyDenseRange(viaKernel.data(), n, u, qubits, 0, groups);
            EXPECT_LT(maxDiff(viaKernel, viaEmbed), 1e-12)
                << "n=" << n << " k=" << k;

            CVector viaRange = in;
            std::size_t g = 0;
            std::size_t step = 1;
            while (g < groups) {
                const std::size_t end = std::min(groups, g + step);
                sim::applyDenseRange(viaRange.data(), n, u, qubits, g, end);
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
    CVector viaScalar = in;
    for (std::size_t q = 0; q < n; ++q)
        sim::scalar::apply1qRange(viaScalar.data(), n, q, m, 0, pairsOf(n));
    for (std::size_t q = 0; q + 1 < n; q += 2)
        sim::scalar::apply2qRange(viaScalar.data(), n, q, q + 1, u4.data(), 0,
                                  quadsOf(n));
    for (const sim::Backend b : sim::compiledBackends()) {
        const sim::KernelTable &k = sim::kernelTable(b);
        CVector viaTable = in;
        for (std::size_t q = 0; q < n; ++q)
            k.apply1qRange(viaTable.data(), n, q, m, 0, pairsOf(n));
        for (std::size_t q = 0; q + 1 < n; q += 2)
            k.apply2qRange(viaTable.data(), n, q, q + 1, u4.data(), 0,
                           quadsOf(n));
        EXPECT_LT(maxDiff(viaTable, viaScalar), 1e-12)
            << sim::backendName(b);
        EXPECT_TRUE(bitIdentical(viaTable, viaScalar)) << sim::backendName(b);
    }
}

} // namespace
