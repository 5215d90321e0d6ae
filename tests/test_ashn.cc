/**
 * @file
 * Tests for the AshN gate scheme: chamber coverage of every sub-scheme,
 * time optimality, drive-strength bounds, ZZ robustness, special gate
 * classes, and the free virtual-Z property.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "ashn/hamiltonian.hh"
#include "ashn/scheme.hh"
#include "ashn/special.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "qop/metrics.hh"
#include "weyl/measure.hh"
#include "weyl/optimal_time.hh"
#include "weyl/weyl.hh"

namespace {

using namespace crisc;
using ashn::GateParams;
using ashn::SubScheme;
using linalg::Matrix;
using weyl::WeylPoint;

void
expectRealizes(const GateParams &p, const WeylPoint &target,
               double tol = 1e-5)
{
    const WeylPoint got = weyl::weylCoordinates(ashn::realize(p));
    const WeylPoint want = weyl::canonicalizePoint(target);
    EXPECT_LT(weyl::pointDistance(got, want), tol)
        << ashn::subSchemeName(p.scheme) << " tau=" << p.tau
        << " om1=" << p.omega1 << " om2=" << p.omega2 << " d=" << p.delta
        << " target=(" << target.x << "," << target.y << "," << target.z
        << ") h=" << p.h;
}

TEST(Hamiltonian, MatchesPauliExpansion)
{
    const Matrix h = ashn::hamiltonian(0.3, 0.5, 0.2, 0.7);
    // <00|H|00> = h/2 + 2 delta; <01|H|01> = -h/2.
    EXPECT_NEAR(h(0, 0).real(), 0.15 + 1.4, 1e-12);
    EXPECT_NEAR(h(1, 1).real(), -0.15, 1e-12);
    // XX+YY couples |01> and |10> with coefficient 1.
    EXPECT_NEAR(h(1, 2).real(), 1.0, 1e-12);
    EXPECT_TRUE(linalg::isHermitian(h, 1e-12));
}

TEST(Hamiltonian, PhasedDriveIsVirtualZConjugation)
{
    // Sec. 4.4: H(phi1, phi2) = (Z_-phibar x Z_-phibar) H(phi', -phi')
    //           (Z_phibar x Z_phibar).
    const double phi1 = 0.8, phi2 = 0.3;
    const double phibar = (phi1 + phi2) / 2.0, phip = (phi1 - phi2) / 2.0;
    const Matrix lhs =
        ashn::hamiltonianWithPhases(0.2, 1.1, phi1, 0.6, phi2, 0.4);
    // Z_theta in the paper's notation is exp(-i theta Z / 2) = rz(theta).
    const Matrix zp = qop::rz(phibar);
    const Matrix zm = qop::rz(-phibar);
    const Matrix inner =
        ashn::hamiltonianWithPhases(0.2, 1.1, phip, 0.6, -phip, 0.4);
    const Matrix rhs = linalg::kron(zm, zm) * inner * linalg::kron(zp, zp);
    EXPECT_LT(linalg::maxAbsDiff(lhs, rhs), 1e-10);
}

TEST(Hamiltonian, ZeroPhaseReducesToStandardForm)
{
    const double om1 = 0.4, om2 = 0.25, d = 0.3, h = 0.1;
    const Matrix a = ashn::hamiltonian(h, om1, om2, d);
    const Matrix b = ashn::hamiltonianWithPhases(
        h, ashn::driveA1(om1, om2), 0.0, ashn::driveA2(om1, om2), 0.0, d);
    EXPECT_LT(linalg::maxAbsDiff(a, b), 1e-12);
}

/** The closed form's oracle: the full 4x4 evolution, singlet removed. */
linalg::Complex
tripletTraceViaEvolve(double tau, double h, double omega, double delta)
{
    return (ashn::evolve(tau, h, omega, 0.0, delta) * qop::pauliYY())
               .trace() +
           std::polar(1.0, (2.0 + h) * tau / 2.0);
}

TEST(Hamiltonian, SymmetricSlotTraceMatchesEvolve)
{
    // Random draws over the EA solver's whole seed-grid domain:
    // tau in (0, pi], |h| <= 1, and omega, delta in [0, 2(pi/tau + 1)].
    linalg::Rng rng(4242);
    for (int i = 0; i < 400; ++i) {
        const double tau = M_PI * (1.0 - rng.uniform());
        const double h = rng.uniform(-1.0, 1.0);
        const double bound = 2.0 * (M_PI / tau + 1.0);
        const double om = rng.uniform(0.0, bound);
        const double d = rng.uniform(0.0, bound);
        EXPECT_LT(std::abs(ashn::symmetricSlotTrace(tau, h, om, d) -
                           tripletTraceViaEvolve(tau, h, om, d)),
                  1e-12)
            << "tau=" << tau << " h=" << h << " om=" << om << " d=" << d;
    }
    // Edges: no drive, no detuning, both (T already diagonal, with the
    // |00>/|11> pair degenerate), h = +-1, and tau -> 0.
    for (const double tau : {1e-9, 1e-4, 0.7, M_PI})
        for (const double h : {-1.0, 0.0, 1.0})
            for (const double om : {0.0, 0.3, 2.5})
                for (const double d : {0.0, 0.45, 1.7}) {
                    EXPECT_LT(
                        std::abs(ashn::symmetricSlotTrace(tau, h, om, d) -
                                 tripletTraceViaEvolve(tau, h, om, d)),
                        1e-12)
                        << "tau=" << tau << " h=" << h << " om=" << om
                        << " d=" << d;
                }
    // At tau = 0 the evolution is the identity: trace(P) = 1.
    EXPECT_LT(std::abs(ashn::symmetricSlotTrace(0.0, 0.3, 0.8, 0.2) - 1.0),
              1e-15);
}

TEST(SchemeND, RealizesCnotClassAtOptimalTime)
{
    const GateParams p = ashn::synthesizeND(ashn::cnotPoint(), 0.0);
    EXPECT_NEAR(p.tau, M_PI / 2.0, 1e-12);
    // Table 1: A1 = -sqrt(15), A2 = 0.
    EXPECT_NEAR(p.a1(), -std::sqrt(15.0), 1e-6);
    EXPECT_NEAR(p.a2(), 0.0, 1e-6);
    expectRealizes(p, ashn::cnotPoint());
}

TEST(SchemeND, RealizesBGateClass)
{
    const GateParams p = ashn::synthesizeND(ashn::bGatePoint(), 0.0);
    EXPECT_NEAR(p.tau, M_PI / 2.0, 1e-12);
    // Table 1: A1 = -2.238 g (4 significant figures), A2 = 0.
    EXPECT_NEAR(p.a1(), -2.238, 5e-4);
    EXPECT_NEAR(p.a2(), 0.0, 1e-6);
    expectRealizes(p, ashn::bGatePoint());
}

class NDChamberSweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(NDChamberSweep, CoversItsSector)
{
    // Points with tau_ND = 2x dominating; y, z scaled inside the sector.
    const auto [h, scale] = GetParam();
    for (double x : {0.15, 0.4, 0.6, M_PI / 4.0}) {
        for (double frac : {0.0, 0.3, 0.9}) {
            // Sector budgets in this library's convention: y+z is fed by
            // the (1-h) drive, y-z by the (1+h) drive.
            const double budgetSum = std::min((1 - h) * x, M_PI - (1 - h) * x);
            const double budgetDiff = std::min((1 + h) * x, M_PI - (1 + h) * x);
            const double ypz = scale * budgetSum;
            const double ymz = frac * scale * budgetDiff;
            const WeylPoint target{x, (ypz + ymz) / 2.0, (ypz - ymz) / 2.0};
            const GateParams p = ashn::synthesizeND(target, h);
            EXPECT_NEAR(p.tau, 2.0 * x, 1e-12);
            expectRealizes(p, target);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NDChamberSweep,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.5, -0.4),
                       ::testing::Values(0.2, 0.7, 0.95)));

TEST(SchemeEA, RealizesSwapClass)
{
    const GateParams p = ashn::synthesize(ashn::swapPoint(), 0.0, 0.0);
    EXPECT_NEAR(p.tau, 3.0 * M_PI / 4.0, 1e-9);
    expectRealizes(p, ashn::swapPoint());
    // Table 1: A1 = -2.108, A2 = 2.108, 2 delta = -1.528 (up to the
    // symmetry Omega -> -Omega, delta -> -delta of the realized class).
    EXPECT_NEAR(std::abs(p.a1()), 2.108, 5e-4);
    EXPECT_NEAR(std::abs(p.a2()), 2.108, 5e-4);
    EXPECT_NEAR(std::abs(2.0 * p.delta), 1.528, 5e-4);
}

TEST(SchemeEA, SwapRealizesZZTimesSwapExactly)
{
    // Sec. 6.4: the realized [SWAP] gate is ZZ * SWAP on the nose.
    const GateParams p = ashn::synthesize(ashn::swapPoint(), 0.0, 0.0);
    const Matrix expected = qop::pauliZZ() * qop::swapGate();
    EXPECT_TRUE(qop::equalUpToGlobalPhase(ashn::realize(p), expected, 1e-5));
}

class FullSchemeSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(FullSchemeSweep, SpansChamberAtOptimalTime)
{
    const double h = GetParam();
    linalg::Rng rng(1234 + static_cast<int>(h * 100));
    for (int trial = 0; trial < 30; ++trial) {
        const WeylPoint target = weyl::sampleChamber(rng);
        const GateParams p = ashn::synthesize(target, h, 0.0);
        expectRealizes(p, target);
        EXPECT_NEAR(p.tau, weyl::optimalTime(target, h), 1e-7)
            << "scheme=" << ashn::subSchemeName(p.scheme);
    }
}

INSTANTIATE_TEST_SUITE_P(ZZRatios, FullSchemeSweep,
                         ::testing::Values(0.0, 0.2, 0.4, 0.8, -0.3, -0.8));

class CutoffSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(CutoffSweep, BoundedDrivesAndCorrectGates)
{
    const double r = GetParam();
    linalg::Rng rng(77);
    const double bound = ashn::driveBound(r);
    for (int trial = 0; trial < 25; ++trial) {
        const WeylPoint target = weyl::sampleChamber(rng);
        const GateParams p = ashn::synthesize(target, 0.0, r);
        expectRealizes(p, target);
        // Eq. (4.4): max{|A1|/2,|A2|/2,|delta|} <= pi/r + 1/2.
        EXPECT_LE(p.maxDrive(), bound + 1e-6);
        EXPECT_NEAR(p.tau, ashn::gateTime(target, 0.0, r), 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, CutoffSweep,
                         ::testing::Values(0.3, 0.7, 1.1, M_PI / 2.0));

TEST(Scheme, NearIdentityGatesUseNDExt)
{
    const WeylPoint tiny{0.02, 0.01, -0.005};
    const GateParams p = ashn::synthesize(tiny, 0.0, 1.1);
    EXPECT_EQ(p.scheme, SubScheme::NDExt);
    EXPECT_NEAR(p.tau, M_PI - 0.04, 1e-9);
    expectRealizes(p, tiny);
}

TEST(Scheme, IdentityTargetIsFree)
{
    const GateParams p = ashn::synthesize({0, 0, 0}, 0.3, 0.0);
    EXPECT_EQ(p.scheme, SubScheme::Identity);
    EXPECT_EQ(p.tau, 0.0);
}

TEST(Scheme, GateTimeMatchesPaperTimeFunction)
{
    // App. A.7.1: T(x,y,z;r) = max{2x, x+y+|z|} when >= r, else pi-2x.
    linalg::Rng rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        const WeylPoint p = weyl::sampleChamber(rng);
        for (double r : {0.0, 0.5, 1.1}) {
            const double topt = std::max(2 * p.x, p.x + p.y + std::abs(p.z));
            const double expected = topt >= r ? topt : M_PI - 2 * p.x;
            EXPECT_NEAR(ashn::gateTime(p, 0.0, r), expected, 1e-10);
        }
    }
}

class CnotZZSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(CnotZZSweep, ClosedFormHandlesZZCoupling)
{
    const double h = GetParam();
    const GateParams p = ashn::cnotClassParams(h);
    EXPECT_NEAR(p.tau, M_PI / 2.0, 1e-12);
    EXPECT_NEAR(p.delta, 0.0, 1e-12);
    expectRealizes(p, ashn::cnotPoint());
}

INSTANTIATE_TEST_SUITE_P(ZZ, CnotZZSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.6, 0.9, -0.5,
                                           -0.9));

TEST(CnotZZ, RealizesMolmerSorensenAtZeroZZ)
{
    const Matrix u = ashn::realize(ashn::cnotClassParams(0.0));
    EXPECT_TRUE(qop::equalUpToGlobalPhase(u, qop::msGate(), 1e-9));
}

TEST(SwapZZ, ZZCouplingShortensSwap)
{
    // Sec. 6.4: tau_opt([SWAP]) = 3 pi / (4 (1 + |h|/2)); realized by the
    // scheme for either sign of h.
    for (double h : {0.3, -0.3, 0.7}) {
        const GateParams p = ashn::synthesize(ashn::swapPoint(), h, 0.0);
        EXPECT_NEAR(p.tau, 3.0 * M_PI / (4.0 * (1.0 + std::abs(h) / 2.0)),
                    1e-7)
            << "h=" << h;
        expectRealizes(p, ashn::swapPoint());
    }
}

TEST(Bounds, GeneralBoundHoldsAtMaximalCutoff)
{
    linalg::Rng rng(3);
    for (double h : {0.0, 0.4, -0.6}) {
        const double r = (1.0 - std::abs(h)) * M_PI / 2.0;
        const double bound = ashn::driveBoundGeneral(h);
        for (int trial = 0; trial < 10; ++trial) {
            const WeylPoint target = weyl::sampleChamber(rng);
            const GateParams p = ashn::synthesize(target, h, r);
            expectRealizes(p, target);
            EXPECT_LE(p.maxDrive(), bound + 1e-6);
        }
    }
}

TEST(Scheme, RejectsInvalidArguments)
{
    EXPECT_THROW(ashn::synthesize({0.1, 0, 0}, 1.5, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(ashn::synthesize({0.1, 0, 0}, 0.0, -0.1),
                 std::invalid_argument);
    EXPECT_THROW(ashn::synthesize({0.1, 0, 0}, 0.5, M_PI / 2.0),
                 std::invalid_argument);
    EXPECT_THROW(ashn::driveBound(0.0), std::invalid_argument);

    // Non-finite controls and targets fail loudly, before any search.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const WeylPoint p{0.5, 0.3, 0.1};
    EXPECT_THROW(ashn::synthesize(p, 0.1, nan), std::invalid_argument);
    EXPECT_THROW(ashn::synthesize(p, nan, 0.0), std::invalid_argument);
    EXPECT_THROW(ashn::synthesize(p, inf, 0.0), std::invalid_argument);
    EXPECT_THROW(ashn::synthesize({nan, 0.3, 0.1}, 0.1, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(ashn::synthesize({0.5, 0.3, inf}, 0.1, 0.0),
                 std::invalid_argument);
    // gateTime shares synthesize's domain.
    EXPECT_THROW(ashn::gateTime(p, nan, 0.0), std::invalid_argument);
    EXPECT_THROW(ashn::gateTime(p, 1.5, 0.0), std::invalid_argument);
    EXPECT_THROW(ashn::gateTime(p, 0.1, -1.0), std::invalid_argument);
    EXPECT_THROW(ashn::gateTime(p, 0.1, nan), std::invalid_argument);
    EXPECT_THROW(ashn::gateTime(p, 0.5, M_PI / 2.0), std::invalid_argument);
    EXPECT_THROW(ashn::gateTime({nan, 0.1, 0.0}, 0.1, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(ashn::cnotClassParams(nan), std::invalid_argument);
    // The message names the caller and the value.
    try {
        ashn::gateTime(p, 0.1, -1.0);
        FAIL() << "gateTime accepted r = -1";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("gateTime"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("-1"), std::string::npos);
    }
    // The bounds themselves stay valid.
    EXPECT_NO_THROW(ashn::gateTime(p, 1.0, 0.0));
    EXPECT_NO_THROW(ashn::gateTime(p, 0.0, M_PI / 2.0));
}

TEST(Scheme, SubSchemeAndTimeUnchanged)
{
    // Sub-scheme and the bit pattern of tau for sixteen Haar chamber
    // points (weyl::sampleChamber, Rng(20240427)) under three ZZ ratios
    // and two cutoffs, recorded from the 4x4-evolve EA solver. tau only
    // depends on the sub-scheme, so a root the symmetric-slot solve
    // misses shows up here as a fallback with a different scheme and
    // time. r = 1.1 is clipped to each h's bound (1-|h|) pi/2.
    const WeylPoint points[] = {
        {0.55334488089966294, 0.43740846609556094, -0.31323136080960057},
        {0.62716601974160757, 0.24491705706754555, 0.067186315616558634},
        {0.74632752175347628, 0.55629990853209577, 0.011836878430977471},
        {0.75441066584848226, 0.47172555182334214, -0.12118692074317894},
        {0.53970542975312219, 0.38563167784831753, -0.029665126839119815},
        {0.68480046607706169, 0.47491840327336593, 0.23561719634693956},
        {0.59449134286919902, 0.56461509951305633, -0.26256795264667687},
        {0.7435893380759665, 0.41589891285547748, 0.0055960860486158337},
        {0.6278923945722048, 0.59607634663654285, 0.2621243144134795},
        {0.4122516593156505, 0.2773946377944394, 0.015488193252999216},
        {0.5414238290364225, 0.45980143625616277, 0.06188309447011775},
        {0.76566573076418531, 0.51289583588675702, -0.18187566798841326},
        {0.6757649312442443, 0.37663950313331857, -0.017798203568680782},
        {0.72175380931402, 0.4647281827446354, 0.086256204285780624},
        {0.76442207824346875, 0.7122865123878187, 0.21875821860651512},
        {0.71768536609286371, 0.14811217088356629, 0.059378311995869959},
    };
    using S = SubScheme;
    struct Pinned
    {
        SubScheme scheme;
        std::uint64_t tauBits;
    };
    const Pinned pinned[] = {
        // h = 0.1, r = 0
        {S::EAPlus, 0x3ff3dec84193e601}, {S::ND, 0x3ff411be78fe7c7a},
        {S::ND, 0x3ff7e1ea4141262b}, {S::ND, 0x3ff82421d6325481},
        {S::ND, 0x3ff1454452486cd5}, {S::EAMinus, 0x3ff7801a02cf2644},
        {S::EAPlus, 0x3ff5a9e25570e977}, {S::ND, 0x3ff7cb7bde161919},
        {S::EAMinus, 0x3ff90768540bf5fa}, {S::ND, 0x3fea6254c89ee081},
        {S::EAMinus, 0x3ff1e7acf59c610f}, {S::ND, 0x3ff880556b299a8f},
        {S::ND, 0x3ff59fddc6ef4977}, {S::ND, 0x3ff7189b71d88c61},
        {S::EAPlus, 0x3ffa7996b55e74fc}, {S::ND, 0x3ff6f7474d05f8ee},
        // h = 0.1, r = 1.1
        {S::EAPlus, 0x3ff3dec84193e601}, {S::ND, 0x3ff411be78fe7c7a},
        {S::ND, 0x3ff7e1ea4141262b}, {S::ND, 0x3ff82421d6325481},
        {S::NDExt, 0x40007f592b1ff6ae}, {S::EAMinus, 0x3ff7801a02cf2644},
        {S::EAPlus, 0x3ff5a9e25570e977}, {S::ND, 0x3ff7cb7bde161919},
        {S::EAMinus, 0x3ff90768540bf5fa}, {S::NDExt, 0x40028966221c74f8},
        {S::EAMinus, 0x3ff1e7acf59c610f}, {S::ND, 0x3ff880556b299a8f},
        {S::ND, 0x3ff59fddc6ef4977}, {S::ND, 0x3ff7189b71d88c61},
        {S::EAPlus, 0x3ffa7996b55e74fc}, {S::ND, 0x3ff6f7474d05f8ee},
        // h = -0.3, r = 0
        {S::EAPlus, 0x3ff88bac14c5c1c6}, {S::ND, 0x3ff411be78fe7c7a},
        {S::EAPlus, 0x3ff84c1785a1e808}, {S::EAPlus, 0x3ff95c832f574693},
        {S::EAPlus, 0x3ff1f9fcbba08c5d}, {S::ND, 0x3ff5e9e2aac2c4ea},
        {S::EAPlus, 0x3ffac2cc4b6d5ca3}, {S::ND, 0x3ff7cb7bde161919},
        {S::EAMinus, 0x3ff4ad1366d23a80}, {S::ND, 0x3fea6254c89ee081},
        {S::EAPlus, 0x3ff1ae862f0471ef}, {S::ND, 0x3ff9c3a13d5ebfa1},
        {S::ND, 0x3ff59fddc6ef4977}, {S::ND, 0x3ff7189b71d88c61},
        {S::ND, 0x3ff876254a4cac74}, {S::ND, 0x3ff6f7474d05f8ee},
        // h = -0.3, r = 1.09956
        {S::EAPlus, 0x3ff88bac14c5c1c6}, {S::ND, 0x3ff411be78fe7c7a},
        {S::EAPlus, 0x3ff84c1785a1e808}, {S::EAPlus, 0x3ff95c832f574693},
        {S::EAPlus, 0x3ff1f9fcbba08c5d}, {S::ND, 0x3ff5e9e2aac2c4ea},
        {S::EAPlus, 0x3ffac2cc4b6d5ca3}, {S::ND, 0x3ff7cb7bde161919},
        {S::EAMinus, 0x3ff4ad1366d23a80}, {S::NDExt, 0x40028966221c74f8},
        {S::EAPlus, 0x3ff1ae862f0471ef}, {S::ND, 0x3ff9c3a13d5ebfa1},
        {S::ND, 0x3ff59fddc6ef4977}, {S::ND, 0x3ff7189b71d88c61},
        {S::ND, 0x3ff876254a4cac74}, {S::ND, 0x3ff6f7474d05f8ee},
        // h = 0.8, r = 0
        {S::EAMinus, 0x3ff211377d8504e3}, {S::EAMinus, 0x3ff90c143cc56481},
        {S::EAMinus, 0x400186b4706bf52c}, {S::EAMinus, 0x3ffd771edb4be9a7},
        {S::EAMinus, 0x3ff7e2743cf878de}, {S::EAMinus, 0x3ffe020729d072b4},
        {S::EAMinus, 0x3ff7e85e9285dabc}, {S::EAMinus, 0x3fff11a474caf720},
        {S::EAMinus, 0x40010655c437f5f5}, {S::EAMinus, 0x3ff2cdb7d6c5188a},
        {S::EAMinus, 0x3ffc597c84e24458}, {S::EAMinus, 0x3ffd3eb5857e65f2},
        {S::EAMinus, 0x3ffb96e9703efc6d}, {S::EAMinus, 0x40005dea888db1bc},
        {S::EAMinus, 0x400155002c6c15a1}, {S::EAMinus, 0x3ff8abddfc2a44b4},
        // h = 0.8, r = 0.314159
        {S::EAMinus, 0x3ff211377d8504e3}, {S::EAMinus, 0x3ff90c143cc56481},
        {S::EAMinus, 0x400186b4706bf52c}, {S::EAMinus, 0x3ffd771edb4be9a7},
        {S::EAMinus, 0x3ff7e2743cf878de}, {S::EAMinus, 0x3ffe020729d072b4},
        {S::EAMinus, 0x3ff7e85e9285dabc}, {S::EAMinus, 0x3fff11a474caf720},
        {S::EAMinus, 0x40010655c437f5f5}, {S::EAMinus, 0x3ff2cdb7d6c5188a},
        {S::EAMinus, 0x3ffc597c84e24458}, {S::EAMinus, 0x3ffd3eb5857e65f2},
        {S::EAMinus, 0x3ffb96e9703efc6d}, {S::EAMinus, 0x40005dea888db1bc},
        {S::EAMinus, 0x400155002c6c15a1}, {S::EAMinus, 0x3ff8abddfc2a44b4},
    };
    std::size_t n = 0;
    for (const double h : {0.1, -0.3, 0.8})
        for (const double r0 : {0.0, 1.1}) {
            const double r = std::min(r0, (1.0 - std::abs(h)) * M_PI / 2.0);
            for (const WeylPoint &p : points) {
                const GateParams g = ashn::synthesize(p, h, r);
                ASSERT_LT(n, std::size(pinned));
                EXPECT_EQ(g.scheme, pinned[n].scheme)
                    << "point " << n % 16 << " h=" << h << " r=" << r << ": "
                    << ashn::subSchemeName(g.scheme);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(g.tau),
                          pinned[n].tauBits)
                    << "point " << n % 16 << " h=" << h << " r=" << r
                    << " tau=" << g.tau;
                ++n;
            }
        }
    EXPECT_EQ(n, std::size(pinned));
}

TEST(AverageGateTime, ClosedFormMatchesQuadrature)
{
    // App. A.7.1's closed form against direct chamber quadrature of the
    // time function, for several cutoffs.
    for (double r : {0.0, 0.3, 0.7, 1.1}) {
        const double viaQuad = weyl::chamberQuadrature(
            [r](const WeylPoint &p) { return ashn::gateTime(p, 0.0, r); },
            70);
        EXPECT_NEAR(ashn::averageGateTime(r), viaQuad, 3e-3) << "r=" << r;
    }
    // r = 0 reproduces the optimal-time average 1.3408.
    EXPECT_NEAR(ashn::averageGateTime(0.0), weyl::haarAverageOptimalTime(),
                1e-12);
}

TEST(Scheme, SubSchemeNamesAreStable)
{
    EXPECT_EQ(ashn::subSchemeName(SubScheme::ND), "AshN-ND");
    EXPECT_EQ(ashn::subSchemeName(SubScheme::EAPlus), "AshN-EA+");
}

} // namespace
