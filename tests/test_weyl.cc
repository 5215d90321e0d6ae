/**
 * @file
 * Tests for Weyl chamber coordinates, the KAK decomposition, the chamber
 * measure, and the optimal interaction time.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/expm.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "qop/metrics.hh"
#include "weyl/measure.hh"
#include "weyl/optimal_time.hh"
#include "weyl/weyl.hh"

namespace {

using namespace crisc;
using linalg::Matrix;
using linalg::kron;
using weyl::WeylPoint;

/** True when the two points agree in every bit of every coordinate. */
bool
sameBits(const WeylPoint &a, const WeylPoint &b)
{
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    return bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y) &&
           bits(a.z) == bits(b.z);
}

::testing::AssertionResult
coordinatesMatchKak(const Matrix &u)
{
    const WeylPoint fast = weyl::weylCoordinates(u);
    const WeylPoint full = weyl::kak(u).point;
    if (sameBits(fast, full))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << std::hexfloat << "weylCoordinates (" << fast.x << ","
           << fast.y << "," << fast.z << ") != kak().point (" << full.x
           << "," << full.y << "," << full.z << ")";
}

TEST(MagicBasis, IsUnitary)
{
    EXPECT_TRUE(linalg::isUnitary(weyl::magicBasis(), 1e-12));
}

TEST(MagicBasis, DiagonalizesCanonicalGates)
{
    const Matrix &m = weyl::magicBasis();
    const Matrix can = qop::canonicalGate(0.3, 0.2, 0.1);
    const Matrix d = m.dagger() * can * m;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            if (r != c) {
                EXPECT_LT(std::abs(d(r, c)), 1e-10);
            }
    // Eigenphases follow the (x-y+z, x+y-z, -x-y-z, -x+y+z) pattern.
    EXPECT_NEAR(std::arg(d(0, 0)), 0.3 - 0.2 + 0.1, 1e-10);
    EXPECT_NEAR(std::arg(d(1, 1)), 0.3 + 0.2 - 0.1, 1e-10);
    EXPECT_NEAR(std::arg(d(2, 2)), -0.3 - 0.2 - 0.1, 1e-10);
    EXPECT_NEAR(std::arg(d(3, 3)), -0.3 + 0.2 + 0.1, 1e-10);
}

TEST(MagicBasis, LocalGatesBecomeRealOrthogonal)
{
    linalg::Rng rng(5);
    const Matrix a = linalg::haarSU(rng, 2);
    const Matrix b = linalg::haarSU(rng, 2);
    const Matrix &m = weyl::magicBasis();
    const Matrix o = m.dagger() * kron(a, b) * m;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            EXPECT_LT(std::abs(o(r, c).imag()), 1e-10);
    EXPECT_TRUE(linalg::isUnitary(o, 1e-10));
}

struct NamedGateCase
{
    const char *name;
    const Matrix &(*gate)();
    WeylPoint expected;
};

class KnownCoordinates : public ::testing::TestWithParam<NamedGateCase>
{
};

TEST_P(KnownCoordinates, MatchTheLiterature)
{
    const auto &c = GetParam();
    const WeylPoint p = weyl::weylCoordinates(c.gate());
    EXPECT_NEAR(p.x, c.expected.x, 1e-9) << c.name;
    EXPECT_NEAR(p.y, c.expected.y, 1e-9) << c.name;
    EXPECT_NEAR(p.z, c.expected.z, 1e-9) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Gates, KnownCoordinates,
    ::testing::Values(
        NamedGateCase{"CNOT", &qop::cnot, {M_PI / 4.0, 0.0, 0.0}},
        NamedGateCase{"CZ", &qop::cz, {M_PI / 4.0, 0.0, 0.0}},
        NamedGateCase{"MS", &qop::msGate, {M_PI / 4.0, 0.0, 0.0}},
        NamedGateCase{"iSWAP", &qop::iswap, {M_PI / 4.0, M_PI / 4.0, 0.0}},
        NamedGateCase{"SQiSW", &qop::sqisw, {M_PI / 8.0, M_PI / 8.0, 0.0}},
        NamedGateCase{
            "SWAP", &qop::swapGate, {M_PI / 4.0, M_PI / 4.0, M_PI / 4.0}},
        NamedGateCase{"B", &qop::bGate, {M_PI / 4.0, M_PI / 8.0, 0.0}}),
    [](const ::testing::TestParamInfo<NamedGateCase> &info) {
        return info.param.name;
    });

TEST(Kak, IdentityHasZeroCoordinates)
{
    const WeylPoint p = weyl::weylCoordinates(Matrix::identity(4));
    EXPECT_NEAR(p.x, 0.0, 1e-10);
    EXPECT_NEAR(p.y, 0.0, 1e-10);
    EXPECT_NEAR(p.z, 0.0, 1e-10);
}

TEST(Kak, RecomposesHaarUnitaries)
{
    linalg::Rng rng(11);
    for (int trial = 0; trial < 40; ++trial) {
        const Matrix u = linalg::haarUnitary(rng, 4);
        const weyl::KAKDecomposition d = weyl::kak(u);
        EXPECT_TRUE(weyl::isCanonical(d.point));
        EXPECT_LT(linalg::maxAbsDiff(d.compose(), u), 1e-8);
        EXPECT_TRUE(linalg::isUnitary(d.a1, 1e-8));
        EXPECT_TRUE(linalg::isUnitary(d.a2, 1e-8));
        EXPECT_TRUE(linalg::isUnitary(d.b1, 1e-8));
        EXPECT_TRUE(linalg::isUnitary(d.b2, 1e-8));
    }
}

TEST(Kak, CoordinatesInvariantUnderLocalGates)
{
    linalg::Rng rng(13);
    for (int trial = 0; trial < 15; ++trial) {
        const Matrix u = linalg::haarUnitary(rng, 4);
        const Matrix l = kron(linalg::haarSU(rng, 2), linalg::haarSU(rng, 2));
        const Matrix r = kron(linalg::haarSU(rng, 2), linalg::haarSU(rng, 2));
        const WeylPoint p = weyl::weylCoordinates(u);
        const WeylPoint q = weyl::weylCoordinates(l * u * r);
        EXPECT_LT(weyl::pointDistance(p, q), 1e-7);
    }
}

TEST(Kak, CanonicalGateRoundTrip)
{
    linalg::Rng rng(17);
    for (int trial = 0; trial < 25; ++trial) {
        // Sample a canonical point and verify coordinates round-trip.
        const WeylPoint p = weyl::sampleChamber(rng);
        const Matrix can = qop::canonicalGate(p.x, p.y, p.z);
        const WeylPoint q = weyl::weylCoordinates(can);
        EXPECT_LT(weyl::pointDistance(p, q), 1e-7);
    }
}

TEST(Kak, MatchesLocalInvariants)
{
    linalg::Rng rng(19);
    for (int trial = 0; trial < 15; ++trial) {
        const Matrix u = linalg::haarUnitary(rng, 4);
        const WeylPoint p = weyl::weylCoordinates(u);
        const Matrix can = qop::canonicalGate(p.x, p.y, p.z);
        const auto gu = weyl::localInvariants(u);
        const auto gc = weyl::localInvariants(can);
        for (int i = 0; i < 3; ++i)
            EXPECT_NEAR(gu[i], gc[i], 1e-7);
    }
}

TEST(CanonicalizePoint, AgreesWithDirectCoordinates)
{
    linalg::Rng rng(23);
    for (int trial = 0; trial < 500; ++trial) {
        // A random (possibly wildly non-canonical) raw point.
        const WeylPoint raw{rng.uniform(-2.0 * M_PI, 2.0 * M_PI),
                            rng.uniform(-2.0 * M_PI, 2.0 * M_PI),
                            rng.uniform(-2.0 * M_PI, 2.0 * M_PI)};
        const WeylPoint c = weyl::canonicalizePoint(raw);
        EXPECT_TRUE(weyl::isCanonical(c));
        // The point-only and the tracked (KAK) canonicalization share
        // one set of chamber-move rules, so they agree bit for bit.
        const weyl::KAKDecomposition tracked =
            weyl::detail::trackedCanonicalization(raw);
        EXPECT_TRUE(sameBits(c, tracked.point))
            << "(" << raw.x << "," << raw.y << "," << raw.z << ")";
        // The tracked locals carry the moves: they recompose the raw
        // canonical gate.
        EXPECT_LT(linalg::maxAbsDiff(tracked.compose(),
                                     qop::canonicalGate(raw.x, raw.y, raw.z)),
                  1e-12);
        const WeylPoint viaGate =
            weyl::weylCoordinates(qop::canonicalGate(raw.x, raw.y, raw.z));
        EXPECT_LT(weyl::pointDistance(c, viaGate), 1e-7);
    }
}

TEST(CanonicalizePoint, BoundaryFuzzRegression)
{
    // Points within roundoff of the chamber edges and corners must
    // canonicalize without cycling (regression: mismatched decision
    // margins stranded points like (pi/4, -8e-10, 1.6e-9)).
    const double q = M_PI / 4.0;
    const double fuzzes[] = {0.0,     1e-12,  7.6e-10, -7.6e-10,
                             1.57e-9, -1.57e-9, 2e-9,   -2e-9};
    for (double f1 : fuzzes) {
        for (double f2 : fuzzes) {
            const WeylPoint probes[] = {
                {q + f1, f2, -f2},        {q + f1, q + f2, f2},
                {q + f1, q + f2, q + f2}, {f1, f2, f2},
                {q / 2 + f1, q / 2 + f2, -q / 2 + f1},
            };
            for (const WeylPoint &p : probes) {
                const WeylPoint c = weyl::canonicalizePoint(p);
                EXPECT_TRUE(weyl::isCanonical(c))
                    << "(" << p.x << "," << p.y << "," << p.z << ")";
                // And the tracked (KAK) path agrees.
                const WeylPoint viaGate = weyl::weylCoordinates(
                    qop::canonicalGate(p.x, p.y, p.z));
                EXPECT_LT(weyl::pointDistance(c, viaGate), 1e-7);
            }
        }
    }
}

TEST(WeylCoordinates, BitwiseEqualToKakOnHaarSamples)
{
    linalg::Rng rng(29);
    for (int trial = 0; trial < 1000; ++trial) {
        const Matrix u = linalg::haarSU(rng, 4);
        EXPECT_TRUE(coordinatesMatchKak(u)) << "trial " << trial;
        // A global phase moves u out of SU(4); the phase split undoes it.
        const Matrix phased =
            std::polar(1.0, rng.uniform(-M_PI, M_PI)) * u;
        EXPECT_TRUE(coordinatesMatchKak(phased)) << "phased trial " << trial;
    }
}

TEST(WeylCoordinates, BitwiseEqualToKakOnNamedGates)
{
    const linalg::Complex p{0.5, 0.5};
    const linalg::Complex m{0.5, -0.5};
    const Matrix sqrtSwap{
        {1, 0, 0, 0}, {0, p, m, 0}, {0, m, p, 0}, {0, 0, 0, 1}};
    const std::vector<std::pair<const char *, Matrix>> gates = {
        {"I", Matrix::identity(4)},  {"CNOT", qop::cnot()},
        {"CZ", qop::cz()},           {"iSWAP", qop::iswap()},
        {"SWAP", qop::swapGate()},   {"sqrtSWAP", sqrtSwap},
        {"sqrtiSWAP", qop::sqisw()}, {"B", qop::bGate()},
    };
    for (const auto &[name, u] : gates)
        EXPECT_TRUE(coordinatesMatchKak(u)) << name;
}

TEST(WeylCoordinates, BitwiseEqualToKakOnChamberBoundary)
{
    // Canonical gates on the faces (x = pi/4, y = x, z = y, z = -y,
    // z = 0) and edges of W, exactly and within 1e-12 of them.
    const double q = M_PI / 4.0;
    linalg::Rng rng(31);
    std::vector<WeylPoint> points;
    for (int trial = 0; trial < 40; ++trial) {
        const double a = rng.uniform(0.0, q);
        const double b = rng.uniform(0.0, a);
        const double c = rng.uniform(-b, b);
        const WeylPoint faces[] = {
            {q, a, std::abs(c)}, {a, a, c}, {a, b, b}, {a, b, -b},
            {a, b, 0.0},         {q, q, b}, {q, a, a}, {q, a, 0.0},
            {a, a, a},           {a, a, -a}, {a, 0.0, 0.0}, {a, a, 0.0},
        };
        for (const WeylPoint &f : faces) {
            points.push_back(f);
            points.push_back({f.x + rng.uniform(-1e-12, 1e-12),
                              f.y + rng.uniform(-1e-12, 1e-12),
                              f.z + rng.uniform(-1e-12, 1e-12)});
        }
    }
    for (const WeylPoint corner :
         {WeylPoint{0, 0, 0}, WeylPoint{q, 0, 0}, WeylPoint{q, q, 0},
          WeylPoint{q, q, q}, WeylPoint{q, q, -q}})
        points.push_back(corner);
    for (const WeylPoint &p : points)
        EXPECT_TRUE(coordinatesMatchKak(qop::canonicalGate(p.x, p.y, p.z)))
            << "(" << p.x << "," << p.y << "," << p.z << ")";
}

TEST(WeylCoordinates, HaarBitsPinned)
{
    // FNV-1a over the bits of (x, y, z) of 4,096 Haar SU(4) draws. Any
    // change to the spectral step that moves one coordinate bit fails
    // here, also when the Figure-7 pins' rounded outputs do not move.
    linalg::Rng rng(20240427);
    std::uint64_t h = 14695981039346656037ull;
    for (int i = 0; i < 4096; ++i) {
        const WeylPoint p = weyl::weylCoordinates(linalg::haarSU(rng, 4));
        for (const double v : {p.x, p.y, p.z}) {
            const std::uint64_t b = std::bit_cast<std::uint64_t>(v);
            for (int k = 0; k < 8; ++k) {
                h ^= (b >> (8 * k)) & 0xffu;
                h *= 1099511628211ull;
            }
        }
    }
    EXPECT_EQ(h, 0xcf9a1c29f6c3a92full);
}

TEST(WeylCoordinates, BadInputThrowsNamingTheCaller)
{
    const auto message = [](auto entry, const Matrix &u) {
        try {
            entry(u);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("no std::invalid_argument");
    };
    const auto coords = [](const Matrix &u) { weyl::weylCoordinates(u); };
    const auto kak = [](const Matrix &u) { weyl::kak(u); };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const Matrix threeByThree = Matrix::identity(3);
    const Matrix nonUnitary = 2.0 * Matrix::identity(4);
    Matrix nanEntry = Matrix::identity(4);
    nanEntry(1, 2) = nan;
    Matrix nanDiagonal = qop::cnot();
    nanDiagonal(0, 0) = linalg::Complex{1.0, nan};
    for (const Matrix &bad :
         {threeByThree, nonUnitary, nanEntry, nanDiagonal}) {
        EXPECT_THROW(weyl::weylCoordinates(bad), std::invalid_argument);
        EXPECT_THROW(weyl::kak(bad), std::invalid_argument);
        EXPECT_NE(message(coords, bad).find("weylCoordinates"),
                  std::string::npos)
            << message(coords, bad);
        EXPECT_NE(message(kak, bad).find("kak"), std::string::npos)
            << message(kak, bad);
    }
}

TEST(WeylCoordinates, NonFinitePointsAreNotCanonical)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad : {nan, inf, -inf}) {
        for (const WeylPoint &p :
             {WeylPoint{bad, 0.0, 0.0}, WeylPoint{0.1, bad, 0.0},
              WeylPoint{0.1, 0.05, bad}}) {
            EXPECT_FALSE(weyl::isCanonical(p))
                << p.x << "," << p.y << "," << p.z;
            EXPECT_THROW(weyl::canonicalizePoint(p), std::invalid_argument);
        }
    }
    EXPECT_TRUE(weyl::isCanonical({0.1, 0.05, 0.0}));
}

TEST(Gates, CanonicalGateMatchesPropagator)
{
    const Matrix &xx = qop::pauliXX();
    const Matrix &yy = qop::pauliYY();
    const Matrix &zz = qop::pauliZZ();
    linalg::Rng rng(37);
    for (int trial = 0; trial < 2000; ++trial) {
        const double bound = trial % 2 == 0 ? 1.0 : 10.0;
        const double x = rng.uniform(-bound, bound);
        const double y = rng.uniform(-bound, bound);
        const double z = rng.uniform(-bound, bound);
        const Matrix got = qop::canonicalGate(x, y, z);
        // exp(i H) = propagator(H, -1): the oracle is the generic solver.
        const Matrix want =
            linalg::propagator(x * xx + y * yy + z * zz, -1.0);
        EXPECT_LE(linalg::maxAbsDiff(got, want), bound == 1.0 ? 1e-14 : 1e-13)
            << "(" << x << "," << y << "," << z << ")";
        // Outside the {|00>,|11>} and {|01>,|10>} blocks: exactly zero.
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c) {
                const bool inBlock = (r == 0 || r == 3) == (c == 0 || c == 3);
                if (!inBlock) {
                    EXPECT_EQ(got(r, c), linalg::Complex(0.0, 0.0))
                        << r << "," << c;
                }
            }
    }
    EXPECT_TRUE(
        weyl::locallyEquivalent(qop::canonicalGate(M_PI / 4.0, 0.0, 0.0),
                                qop::cnot()));
}

TEST(LocallyEquivalent, DetectsEquivalenceAndDifference)
{
    linalg::Rng rng(29);
    const Matrix u = linalg::haarUnitary(rng, 4);
    const Matrix l = kron(linalg::haarSU(rng, 2), linalg::haarSU(rng, 2));
    EXPECT_TRUE(weyl::locallyEquivalent(u, l * u));
    EXPECT_FALSE(weyl::locallyEquivalent(qop::cnot(), qop::swapGate()));
    EXPECT_TRUE(weyl::locallyEquivalent(qop::cnot(), qop::cz()));
}

TEST(LocalCorrections, TurnRealizedGateIntoTarget)
{
    linalg::Rng rng(31);
    for (int trial = 0; trial < 10; ++trial) {
        const Matrix target = linalg::haarUnitary(rng, 4);
        const Matrix l =
            kron(linalg::haarSU(rng, 2), linalg::haarSU(rng, 2));
        const Matrix r =
            kron(linalg::haarSU(rng, 2), linalg::haarSU(rng, 2));
        const Matrix realized = l * target * r;
        const weyl::LocalCorrection c =
            weyl::localCorrections(target, realized);
        const Matrix rebuilt = std::polar(1.0, c.phase) *
                               (kron(c.l1, c.l2) * realized *
                                kron(c.r1, c.r2));
        EXPECT_LT(linalg::maxAbsDiff(rebuilt, target), 1e-7);
    }
}

TEST(OptimalTime, KnownGateTimes)
{
    // Paper Sec. 6.4: [CNOT] takes pi/2, [SWAP] 3pi/4, [B] pi/2 at h=0.
    EXPECT_NEAR(weyl::optimalTime({M_PI / 4, 0, 0}), M_PI / 2, 1e-12);
    EXPECT_NEAR(weyl::optimalTime({M_PI / 4, M_PI / 4, M_PI / 4}),
                3 * M_PI / 4, 1e-12);
    EXPECT_NEAR(weyl::optimalTime({M_PI / 4, M_PI / 8, 0}), M_PI / 2, 1e-12);
    // iSWAP = (pi/4, pi/4, 0) takes pi/2.
    EXPECT_NEAR(weyl::optimalTime({M_PI / 4, M_PI / 4, 0}), M_PI / 2, 1e-12);
}

TEST(OptimalTime, ZeroZZReducesToSimpleForm)
{
    linalg::Rng rng(37);
    for (int trial = 0; trial < 200; ++trial) {
        const WeylPoint p = weyl::sampleChamber(rng);
        const double expected =
            std::max(2.0 * p.x, p.x + p.y + std::abs(p.z));
        EXPECT_NEAR(weyl::optimalTime(p, 0.0), expected, 1e-10);
    }
}

TEST(OptimalTime, SwapImprovesWithZZ)
{
    // Paper Sec. 6.4: tau_opt([SWAP], h) = 3 pi / (4 (1 + |h|/2)).
    const WeylPoint swap{M_PI / 4, M_PI / 4, M_PI / 4};
    for (double h : {0.0, 0.2, 0.5, 0.9}) {
        EXPECT_NEAR(weyl::optimalTime(swap, h),
                    3.0 * M_PI / (4.0 * (1.0 + h / 2.0)), 1e-10)
            << "h=" << h;
    }
}

TEST(OptimalTime, MonotoneInBounds)
{
    // tau_opt is bounded by pi for any point and any |h| <= 1.
    linalg::Rng rng(41);
    for (int trial = 0; trial < 100; ++trial) {
        const WeylPoint p = weyl::sampleChamber(rng);
        const double h = rng.uniform(-1.0, 1.0);
        const double t = weyl::optimalTime(p, h);
        EXPECT_GT(t, -1e-12);
        EXPECT_LE(t, M_PI + 1e-12);
    }
}

TEST(Measure, DensityNormalizesToAnalyticConstant)
{
    // The unnormalized KAK Jacobian integrates to pi/384 over W.
    EXPECT_NEAR(weyl::chamberDensityNorm(), M_PI / 384.0, 2e-5);
}

TEST(Measure, SampleMatchesHaarCoordinates)
{
    // Compare the mean of x under rejection sampling against the mean of
    // the KAK x-coordinate of Haar random SU(4) gates.
    linalg::Rng rng(43);
    double meanSampled = 0.0;
    const int n = 600;
    for (int i = 0; i < n; ++i)
        meanSampled += weyl::sampleChamber(rng).x;
    meanSampled /= n;

    double meanHaar = 0.0;
    for (int i = 0; i < n; ++i)
        meanHaar += weyl::weylCoordinates(linalg::haarSU(rng, 4)).x;
    meanHaar /= n;

    EXPECT_NEAR(meanSampled, meanHaar, 0.02);
}

TEST(Measure, HaarAverageOptimalTimeMatchesPaper)
{
    // Sec. 6.1: average optimal time is 7pi/16 - 19/(180 pi) ~ 1.3412.
    const double viaQuadrature = weyl::chamberQuadrature(
        [](const WeylPoint &p) { return weyl::optimalTime(p); }, 80);
    EXPECT_NEAR(viaQuadrature, weyl::haarAverageOptimalTime(), 2e-3);
    EXPECT_NEAR(weyl::haarAverageOptimalTime(), 1.3412, 1e-3);
}

} // namespace
