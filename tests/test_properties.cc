/**
 * @file
 * Cross-module property tests: randomized invariants that tie the
 * substrates together (synthesis against KAK, chamber geometry against
 * gate algebra, simulator against dense matrices, cost model against
 * interaction-time theory).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "ashn/scheme.hh"
#include "ashn/special.hh"
#include "calib/cartan.hh"
#include "circuit/circuit.hh"
#include "device/native_set.hh"
#include "linalg/expm.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "qop/metrics.hh"
#include "synth/two_qubit.hh"
#include "weyl/measure.hh"
#include "weyl/optimal_time.hh"
#include "weyl/weyl.hh"

namespace {

using namespace crisc;
using device::NativeKind;
using linalg::Matrix;
using weyl::WeylPoint;

class SeededProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SeededProperty, DaggerMirrorsZCoordinate)
{
    // U and U^dagger have z-mirrored chamber points.
    linalg::Rng rng(GetParam());
    const Matrix u = linalg::haarUnitary(rng, 4);
    const WeylPoint p = weyl::weylCoordinates(u);
    const WeylPoint q = weyl::weylCoordinates(u.dagger());
    const WeylPoint mirrored = weyl::canonicalizePoint({p.x, p.y, -p.z});
    EXPECT_LT(weyl::pointDistance(q, mirrored), 1e-7);
}

TEST_P(SeededProperty, SwapConjugationPreservesCoordinates)
{
    // SWAP . U . SWAP has the same chamber point as U.
    linalg::Rng rng(100 + GetParam());
    const Matrix u = linalg::haarUnitary(rng, 4);
    const Matrix v = qop::swapGate() * u * qop::swapGate();
    EXPECT_TRUE(weyl::locallyEquivalent(u, v));
}

TEST_P(SeededProperty, ProductTimeIsSubadditive)
{
    // Interaction cost is subadditive: t_opt(UV) <= t_opt(U) + t_opt(V).
    linalg::Rng rng(200 + GetParam());
    const Matrix u = linalg::haarUnitary(rng, 4);
    const Matrix v = linalg::haarUnitary(rng, 4);
    const double tu = weyl::optimalTime(weyl::weylCoordinates(u));
    const double tv = weyl::optimalTime(weyl::weylCoordinates(v));
    const double tuv = weyl::optimalTime(weyl::weylCoordinates(u * v));
    EXPECT_LE(tuv, tu + tv + 1e-9);
}

TEST_P(SeededProperty, AshnBeatsOrMatchesEveryNativeSetInTime)
{
    // At r=0 the AshN single-pulse time is the interaction-cost optimum,
    // so no multi-application scheme can be faster.
    linalg::Rng rng(300 + GetParam());
    const WeylPoint p = weyl::sampleChamber(rng);
    const auto ashn = device::makeNativeGateSet(NativeKind::AshN)->cost(p);
    const auto sq = device::makeNativeGateSet(NativeKind::SQiSW)->cost(p);
    const auto cz = device::makeNativeGateSet(NativeKind::CZ)->cost(p);
    EXPECT_LE(ashn.totalTime, sq.totalTime + 1e-9);
    EXPECT_LE(ashn.totalTime, cz.totalTime + 1e-9);
}

TEST_P(SeededProperty, SynthesisRoundTripThroughCartanReadout)
{
    // synthesize -> evolve -> Cartan-double readout -> the same point.
    linalg::Rng rng(400 + GetParam());
    const WeylPoint p = weyl::sampleChamber(rng);
    const Matrix u = ashn::realize(ashn::synthesize(p, 0.0, 1.1));
    const WeylPoint read = calib::coordinatesFromCartanDouble(u, &p);
    EXPECT_LT(weyl::pointDistance(read, p), 1e-5);
}

TEST_P(SeededProperty, CnotDecompositionAgreesWithSimulator)
{
    // Dense circuit unitary == statevector columns, through the full
    // decomposition pipeline on 3 qubits.
    linalg::Rng rng(500 + GetParam());
    const Matrix u = linalg::haarUnitary(rng, 4);
    const circuit::Circuit c = synth::decomposeCNOT(u, 2, 0, 3);
    circuit::State s(3);
    s.apply(qop::hadamard(), {1}); // touch the bystander qubit
    s.run(c);
    circuit::State ref(3);
    ref.apply(qop::hadamard(), {1});
    const Matrix full = c.toUnitary();
    // Column 2 of full (H|0> has support on |010>): compare against
    // running the circuit.
    linalg::CVector expect(8, {0.0, 0.0});
    for (int i = 0; i < 8; ++i)
        expect[i] = (full(i, 0) + full(i, 2)) / std::sqrt(2.0);
    for (int i = 0; i < 8; ++i)
        EXPECT_NEAR(std::abs(s.amplitudes()[i] - expect[i]), 0.0, 1e-8);
}

TEST_P(SeededProperty, VirtualZPhaseKeepsWeylPoint)
{
    // Sec. 4.4: shifting the common drive phase phibar conjugates the
    // Hamiltonian by Z rotations, so the realized chamber point is
    // untouched (the free virtual-Z gate).
    linalg::Rng rng(600 + GetParam());
    const double a1 = rng.uniform(0.5, 2.0), a2 = rng.uniform(0.5, 2.0);
    const double d = rng.uniform(0.0, 1.0), tau = rng.uniform(0.5, 2.5);
    const double phibar = rng.uniform(0.0, 2.0 * M_PI);
    const Matrix h0 = ashn::hamiltonianWithPhases(0.1, a1, 0.0, a2, 0.0, d);
    const Matrix h1 =
        ashn::hamiltonianWithPhases(0.1, a1, phibar, a2, phibar, d);
    const Matrix u0 = linalg::propagator(h0, tau);
    const Matrix u1 = linalg::propagator(h1, tau);
    EXPECT_TRUE(weyl::locallyEquivalent(u0, u1, 1e-6));
}

TEST_P(SeededProperty, GateTimeMonotoneInCutoff)
{
    // Larger cutoff never shortens a gate.
    linalg::Rng rng(700 + GetParam());
    const WeylPoint p = weyl::sampleChamber(rng);
    double prev = 0.0;
    for (double r : {0.0, 0.4, 0.8, 1.2, M_PI / 2.0}) {
        const double t = ashn::gateTime(p, 0.0, r);
        EXPECT_GE(t, prev - 1e-12);
        prev = t;
    }
}

TEST_P(SeededProperty, OptimalTimeRespectsChamberOrdering)
{
    // t_opt is invariant under the z-mirror at the x = pi/4 boundary
    // and bounded by the SWAP time 3pi/4 at h = 0.
    linalg::Rng rng(800 + GetParam());
    const WeylPoint p = weyl::sampleChamber(rng);
    EXPECT_LE(weyl::optimalTime(p), 3.0 * M_PI / 4.0 + 1e-12);
    EXPECT_GE(weyl::optimalTime(p), 2.0 * p.x - 1e-12);
}

TEST_P(SeededProperty, LocalEquivalenceIsTransitiveUnderSynthesis)
{
    // compileToAshn produces a gate equal to the target, and therefore
    // locally equivalent to any local dressing of it.
    linalg::Rng rng(900 + GetParam());
    const Matrix u = linalg::haarUnitary(rng, 4);
    const synth::AshnCompiled c = synth::compileToAshn(u, 0.2, 0.9);
    const Matrix dressed =
        linalg::kron(linalg::haarSU(rng, 2), linalg::haarSU(rng, 2)) * u;
    EXPECT_TRUE(weyl::locallyEquivalent(c.compose(), dressed, 1e-5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range(1, 13));

TEST(ChamberGeometry, EdgeGatesSynthesizeEverywhere)
{
    // Deterministic sweep over chamber edges and faces, including the
    // boundary cases that stress canonicalization.
    std::vector<WeylPoint> edges;
    for (int i = 0; i <= 8; ++i) {
        const double t = i / 8.0;
        const double q = M_PI / 4.0;
        edges.push_back({q * t, 0, 0});          // I -> CNOT edge
        edges.push_back({q, q * t, 0});          // CNOT -> iSWAP edge
        edges.push_back({q, q, q * t});          // iSWAP -> SWAP edge
        edges.push_back({q * t, q * t, 0});      // I -> iSWAP edge
        edges.push_back({q * t, q * t, q * t});  // I -> SWAP edge
        edges.push_back({q, q * t, q * t});      // CNOT -> SWAP-ish face
    }
    for (const WeylPoint &p : edges) {
        for (double h : {0.0, 0.35}) {
            const ashn::GateParams g = ashn::synthesize(p, h, 0.0);
            const WeylPoint got = weyl::weylCoordinates(ashn::realize(g));
            EXPECT_LT(weyl::pointDistance(got, weyl::canonicalizePoint(p)),
                      1e-5)
                << "(" << p.x << "," << p.y << "," << p.z << ") h=" << h;
            EXPECT_NEAR(g.tau, weyl::optimalTime(p, h), 1e-6);
        }
    }
}

TEST(ChamberGeometry, MirrorPointIsEquivalent)
{
    linalg::Rng rng(3);
    for (int t = 0; t < 20; ++t) {
        const WeylPoint p = weyl::sampleChamber(rng);
        const WeylPoint m = ashn::mirrorPoint(p);
        EXPECT_LT(weyl::pointDistance(weyl::canonicalizePoint(m), p), 1e-9);
    }
}

TEST(CostModel, HaarAverageTimesMatchFigureFive)
{
    // The per-scheme Haar-average interaction times used by the QV cost
    // model agree with the Sec. 6.1 numbers.
    linalg::Rng rng(5);
    const auto ashnSet = device::makeNativeGateSet(NativeKind::AshN);
    const auto sqiswSet = device::makeNativeGateSet(NativeKind::SQiSW);
    double ashn = 0.0, sqisw = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const WeylPoint p = weyl::sampleChamber(rng);
        ashn += ashnSet->cost(p).totalTime;
        sqisw += sqiswSet->cost(p).totalTime;
    }
    EXPECT_NEAR(ashn / n, 1.341, 0.02);
    EXPECT_NEAR(sqisw / n, 1.736, 0.02);
}

} // namespace
