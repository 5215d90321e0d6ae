/**
 * @file
 * Tests for the synthesis substrate: two-qubit CNOT/AshN compilation,
 * CSD, multiplexors (incl. the paper's Lemma 14), QSD, the three-qubit
 * generic construction (Theorem 12), and numerical instantiation.
 */

#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "qop/metrics.hh"
#include "synth/csd.hh"
#include "synth/instantiate.hh"
#include "synth/multiplexor.hh"
#include "synth/qsd.hh"
#include "synth/three_qubit.hh"
#include "synth/two_qubit.hh"

namespace {

using namespace crisc;
using circuit::Circuit;
using linalg::Complex;
using linalg::Matrix;

TEST(TwoQubit, ThreeCnotDecompositionOfHaarGates)
{
    linalg::Rng rng(1);
    for (int t = 0; t < 10; ++t) {
        const Matrix u = linalg::haarUnitary(rng, 4);
        const Circuit c = synth::decomposeCNOT(u);
        EXPECT_LE(c.twoQubitCount(), 3u);
        EXPECT_TRUE(qop::equalUpToGlobalPhase(c.toUnitary(), u, 1e-6));
    }
}

TEST(TwoQubit, CnotCostMatchesGateClass)
{
    linalg::Rng rng(2);
    EXPECT_EQ(synth::cnotCost(Matrix::identity(4)), 0u);
    EXPECT_EQ(synth::cnotCost(linalg::kron(qop::hadamard(), qop::sGate())),
              0u);
    EXPECT_EQ(synth::cnotCost(qop::cnot()), 1u);
    EXPECT_EQ(synth::cnotCost(qop::cz()), 1u);
    EXPECT_EQ(synth::cnotCost(qop::iswap()), 2u);
    EXPECT_EQ(synth::cnotCost(qop::sqisw()), 2u);
    EXPECT_EQ(synth::cnotCost(qop::swapGate()), 3u);
    EXPECT_EQ(synth::cnotCost(linalg::haarUnitary(rng, 4)), 3u);
}

TEST(TwoQubit, MinimalCountsAreExact)
{
    // 1-CNOT case (a CZ) and 2-CNOT case (iSWAP) reconstruct exactly.
    for (const Matrix &u : {qop::cz(), qop::iswap(), qop::sqisw()}) {
        const Circuit c = synth::decomposeCNOT(u);
        EXPECT_TRUE(qop::equalUpToGlobalPhase(c.toUnitary(), u, 1e-7));
    }
}

TEST(TwoQubit, LocalGateNeedsNoCnot)
{
    linalg::Rng rng(3);
    const Matrix u =
        linalg::kron(linalg::haarUnitary(rng, 2), linalg::haarUnitary(rng, 2));
    const Circuit c = synth::decomposeCNOT(u);
    EXPECT_EQ(c.twoQubitCount(), 0u);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(c.toUnitary(), u, 1e-8));
}

TEST(TwoQubit, DecomposesOntoArbitraryRegisterQubits)
{
    linalg::Rng rng(4);
    const Matrix u = linalg::haarUnitary(rng, 4);
    const Circuit c = synth::decomposeCNOT(u, 2, 0, 3);
    const Matrix expected = qop::embed(u, {2, 0}, 3);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(c.toUnitary(), expected, 1e-6));
}

TEST(TwoQubit, AshnCompilationIsExact)
{
    linalg::Rng rng(5);
    for (double h : {0.0, 0.35}) {
        const Matrix u = linalg::haarUnitary(rng, 4);
        const synth::AshnCompiled ac = synth::compileToAshn(u, h, 0.5);
        EXPECT_LT(linalg::maxAbsDiff(ac.compose(), u), 1e-5);
    }
}

class CsdSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(CsdSizes, ReconstructsHaarUnitaries)
{
    const int dim = GetParam();
    linalg::Rng rng(100 + dim);
    for (int t = 0; t < 5; ++t) {
        const Matrix u = linalg::haarUnitary(rng, dim);
        const synth::CSDResult f = synth::csd(u);
        EXPECT_LT(linalg::maxAbsDiff(f.compose(), u), 1e-7);
        for (double th : f.theta) {
            EXPECT_GE(th, -1e-12);
            EXPECT_LE(th, M_PI / 2.0 + 1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, CsdSizes, ::testing::Values(2, 4, 8, 16));

TEST(Csd, HandlesBlockDiagonalInput)
{
    // U00 unitary (all cosines 1) exercises the degenerate S = 0 path.
    linalg::Rng rng(7);
    const Matrix a = linalg::haarUnitary(rng, 4);
    const Matrix b = linalg::haarUnitary(rng, 4);
    const Matrix u = synth::multiplexorMatrix(a, b);
    const synth::CSDResult f = synth::csd(u);
    EXPECT_LT(linalg::maxAbsDiff(f.compose(), u), 1e-7);
}

TEST(Csd, HandlesOffDiagonalInput)
{
    // U00 = 0 (all sines 1): the opposite degenerate branch.
    linalg::Rng rng(8);
    const Matrix a = linalg::haarUnitary(rng, 2);
    const Matrix b = linalg::haarUnitary(rng, 2);
    Matrix u(4, 4);
    u.setBlock(0, 2, Complex{-1.0, 0.0} * a);
    u.setBlock(2, 0, b);
    const synth::CSDResult f = synth::csd(u);
    EXPECT_LT(linalg::maxAbsDiff(f.compose(), u), 1e-7);
}

TEST(Multiplexor, DemultiplexReconstructs)
{
    linalg::Rng rng(9);
    const Matrix u0 = linalg::haarUnitary(rng, 4);
    const Matrix u1 = linalg::haarUnitary(rng, 4);
    const synth::Demultiplexed d = synth::demultiplex(u0, u1);
    Matrix diag(4, 4);
    for (int i = 0; i < 4; ++i)
        diag(i, i) = std::polar(1.0, d.phases[i]);
    EXPECT_LT(linalg::maxAbsDiff(d.v * diag * d.w, u0), 1e-8);
    EXPECT_LT(linalg::maxAbsDiff(d.v * diag.dagger() * d.w, u1), 1e-8);
}

class MuxRotation : public ::testing::TestWithParam<char>
{
};

TEST_P(MuxRotation, GrayCircuitMatchesBlockMatrix)
{
    const char axis = GetParam();
    linalg::Rng rng(11);
    // 1- and 2-select multiplexed rotations on several layouts.
    struct Layout
    {
        std::vector<std::size_t> selects;
        std::size_t target;
        std::size_t n;
    };
    const Layout layouts[] = {
        {{0}, 1, 2}, {{1}, 0, 2}, {{1, 2}, 0, 3}, {{0, 2}, 1, 3}};
    for (const auto &lay : layouts) {
        std::vector<double> angles(std::size_t{1} << lay.selects.size());
        for (auto &a : angles)
            a = rng.uniform(-3.0, 3.0);
        const Circuit c = axis == 'z'
                              ? synth::multiplexedRz(angles, lay.selects,
                                                     lay.target, lay.n)
                              : synth::multiplexedRy(angles, lay.selects,
                                                     lay.target, lay.n);
        const Matrix expected = synth::multiplexedRotationMatrix(
            axis, angles, lay.selects, lay.target, lay.n);
        EXPECT_TRUE(qop::equalUpToGlobalPhase(c.toUnitary(), expected, 1e-9))
            << "axis=" << axis << " n=" << lay.n;
    }
}

INSTANTIATE_TEST_SUITE_P(Axes, MuxRotation, ::testing::Values('z', 'y'));

class Lemma14Param : public ::testing::TestWithParam<bool>
{
};

TEST_P(Lemma14Param, FiveGatesThreeDiagonal)
{
    const bool diagFirst = GetParam();
    linalg::Rng rng(13 + diagFirst);
    for (int t = 0; t < 8; ++t) {
        const Matrix u0 = linalg::haarUnitary(rng, 4);
        const Matrix u1 = linalg::haarUnitary(rng, 4);
        const Circuit c = synth::multiplexorLemma14(u0, u1, diagFirst);
        EXPECT_EQ(c.twoQubitCount(), 5u);
        // Three of the five two-qubit gates are diagonal.
        int diagonal = 0;
        for (const auto &g : c.gates()) {
            if (g.qubits.size() != 2)
                continue;
            double off = 0.0;
            for (int r = 0; r < 4; ++r)
                for (int col = 0; col < 4; ++col)
                    if (r != col)
                        off = std::max(off, std::abs(g.op(r, col)));
            if (off < 1e-12)
                ++diagonal;
        }
        EXPECT_EQ(diagonal, 3);
        EXPECT_TRUE(qop::equalUpToGlobalPhase(
            c.toUnitary(), synth::multiplexorMatrix(u0, u1), 1e-6));
    }
}

INSTANTIATE_TEST_SUITE_P(DiagSide, Lemma14Param, ::testing::Bool());

TEST(Lemma14, HandlesEqualBlocks)
{
    // u0 = u1 degenerates W to the identity.
    linalg::Rng rng(17);
    const Matrix u = linalg::haarUnitary(rng, 4);
    const Circuit c = synth::multiplexorLemma14(u, u);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(
        c.toUnitary(), synth::multiplexorMatrix(u, u), 1e-6));
}

class QsdSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(QsdSizes, ReconstructsAndMatchesCount)
{
    const int n = GetParam();
    linalg::Rng rng(200 + n);
    const Matrix u = linalg::haarUnitary(rng, std::size_t{1} << n);
    const Circuit c = synth::qsd(u);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(c.toUnitary(), u, 1e-5));
    EXPECT_LE(c.twoQubitCount(), synth::qsdCnotCount(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, QsdSizes, ::testing::Values(1, 2, 3, 4));

TEST(Qsd, CountFormulas)
{
    // Recursion c_n = 4 c_{n-1} + 3 * 2^{n-1}, c_2 = 3.
    EXPECT_EQ(synth::qsdCnotCount(2), 3u);
    EXPECT_EQ(synth::qsdCnotCount(3), 24u);
    EXPECT_EQ(synth::qsdCnotCount(4), 120u);
    // Paper-quoted optimized counts: 20 at n=3, 100 at n=4.
    EXPECT_EQ(synth::optimizedQsdCnotCount(3), 20u);
    EXPECT_EQ(synth::optimizedQsdCnotCount(4), 100u);
    // Lower bounds: 14 CNOT / 6 generic gates at n=3 (Fig. 6c).
    EXPECT_EQ(synth::cnotLowerBound(3), 14u);
    EXPECT_EQ(synth::su4LowerBound(3), 6u);
    EXPECT_EQ(synth::cnotLowerBound(4), 61u);
    EXPECT_EQ(synth::su4LowerBound(4), 27u);
    // Theorem 13: 11 at n=3, 68 at n=4.
    EXPECT_EQ(synth::theorem13Count(3), 11u);
    EXPECT_EQ(synth::theorem13Count(4), 68u);
}

TEST(ThreeQubit, GenericConstructionNearPaperCount)
{
    linalg::Rng rng(23);
    for (int t = 0; t < 5; ++t) {
        const Matrix u = linalg::haarUnitary(rng, 8);
        const Circuit c = synth::threeQubitGeneric(u);
        EXPECT_TRUE(qop::equalUpToGlobalPhase(c.toUnitary(), u, 1e-5));
        // Paper's Theorem 12 reaches 11; our mechanical merge reaches 12.
        EXPECT_LE(c.twoQubitCount(), 12u);
    }
}

TEST(ThreeQubit, NaNInputIsRejected)
{
    // isUnitary must reject a NaN entry (std::max alone would drop it).
    linalg::Rng rng(31);
    Matrix u = linalg::haarUnitary(rng, 8);
    u(5, 2) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(synth::threeQubitGeneric(u), std::invalid_argument);
    EXPECT_THROW(synth::csd(u), std::invalid_argument);
}

TEST(ThreeQubit, MergePassPreservesUnitary)
{
    linalg::Rng rng(29);
    Circuit c(3);
    c.add(linalg::haarUnitary(rng, 2), {1}, "a");
    c.add(linalg::haarUnitary(rng, 4), {0, 1}, "b");
    c.add(linalg::haarUnitary(rng, 4), {1, 0}, "c"); // same pair, swapped
    c.add(linalg::haarUnitary(rng, 2), {2}, "d");
    c.add(linalg::haarUnitary(rng, 4), {1, 2}, "e");
    const Matrix before = c.toUnitary();
    const Circuit m = synth::mergeTwoQubitGates(c);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(m.toUnitary(), before, 1e-9));
    EXPECT_EQ(m.twoQubitCount(), 2u);
    EXPECT_EQ(m.size(), 2u);
}

TEST(Instantiate, ExactTemplateConvergesToZero)
{
    // A 3-gate generic template can express a 3-CNOT-depth target built
    // from the same structure.
    linalg::Rng rng(31);
    synth::Template tmpl = synth::genericTemplate(3, 4);
    // Build a target from a random instance of the same template.
    Matrix target = Matrix::identity(8);
    for (const auto &slot : tmpl.slots)
        target = qop::embed(linalg::haarUnitary(rng, 4), slot.qubits, 3) *
                 target;
    const synth::InstantiationResult r =
        synth::instantiate(target, tmpl, rng, 200, 1e-11, 2);
    EXPECT_LT(r.distance, 1e-9);
}

TEST(Instantiate, ElevenGenericGatesReachHaarTargets)
{
    // Theorem 12 numerically: 11 generic gates suffice for SU(8).
    linalg::Rng rng(37);
    const Matrix target = linalg::haarUnitary(rng, 8);
    const synth::InstantiationResult r = synth::instantiate(
        target, synth::genericTemplate(3, 11), rng, 300, 1e-10, 2);
    EXPECT_LT(r.distance, 1e-8);
}

TEST(Instantiate, TooFewGatesCannotReachHaarTargets)
{
    // 3 generic gates are far below the 6-gate lower bound: the residual
    // distance must stay large.
    linalg::Rng rng(41);
    const Matrix target = linalg::haarUnitary(rng, 8);
    const synth::InstantiationResult r = synth::instantiate(
        target, synth::genericTemplate(3, 3), rng, 150, 1e-11, 1);
    EXPECT_GT(r.distance, 1e-3);
}

TEST(Instantiate, CnotTemplateMatchesCnotExpressibleTarget)
{
    linalg::Rng rng(43);
    // Target: 2 CNOTs with random locals, expressible by cnotTemplate(2).
    Circuit c(3);
    c.add(linalg::haarUnitary(rng, 2), {0});
    c.add(linalg::haarUnitary(rng, 2), {1});
    c.add(linalg::haarUnitary(rng, 2), {2});
    c.add(qop::cnot(), {0, 1});
    c.add(linalg::haarUnitary(rng, 2), {0});
    c.add(linalg::haarUnitary(rng, 2), {1});
    c.add(qop::cnot(), {0, 2});
    c.add(linalg::haarUnitary(rng, 2), {0});
    c.add(linalg::haarUnitary(rng, 2), {2});
    const synth::InstantiationResult r = synth::instantiate(
        c.toUnitary(), synth::cnotTemplate(3, 2), rng, 300, 1e-11, 3);
    EXPECT_LT(r.distance, 1e-8);
}

} // namespace
