/**
 * @file
 * Unit and property tests for the dense linear-algebra substrate.
 */

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "linalg/decomp.hh"
#include "linalg/expm.hh"
#include "linalg/matrix.hh"
#include "linalg/random.hh"

namespace {

using namespace crisc::linalg;

TEST(Matrix, BasicArithmetic)
{
    const Matrix a{{1, 2}, {3, 4}};
    const Matrix b{{0, 1}, {1, 0}};
    const Matrix sum = a + b;
    EXPECT_EQ(sum(0, 1), Complex(3.0, 0.0));
    const Matrix prod = a * b;
    EXPECT_EQ(prod(0, 0), Complex(2.0, 0.0));
    EXPECT_EQ(prod(1, 0), Complex(4.0, 0.0));
}

TEST(Matrix, DaggerConjugatesAndTransposes)
{
    const Matrix a{{Complex{1, 2}, Complex{3, 4}},
                   {Complex{5, 6}, Complex{7, 8}}};
    const Matrix d = a.dagger();
    EXPECT_EQ(d(0, 1), Complex(5.0, -6.0));
    EXPECT_TRUE(approxEqual(a.dagger().dagger(), a));
}

TEST(Matrix, TraceAndDeterminant)
{
    const Matrix a{{2, 0}, {0, 3}};
    EXPECT_NEAR(std::abs(a.trace() - Complex{5.0, 0.0}), 0.0, 1e-14);
    EXPECT_NEAR(std::abs(a.det() - Complex{6.0, 0.0}), 0.0, 1e-14);

    Rng rng(7);
    const Matrix u = haarUnitary(rng, 5);
    EXPECT_NEAR(std::abs(u.det()), 1.0, 1e-10);
}

TEST(Matrix, MaxAbsDiffTreatsNaNAsMismatch)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const Matrix id = Matrix::identity(4);
    for (const Complex bad : {Complex{nan, 0.0}, Complex{0.0, nan},
                              Complex{inf, 0.0}}) {
        for (const std::size_t at : {std::size_t{0}, std::size_t{6}}) {
            Matrix m = id;
            m(at / 4, at % 4) = bad;
            // +inf, not NaN: `<= tol` is false and `> tol` is true, so
            // a check written either way rejects.
            EXPECT_EQ(maxAbsDiff(m, id), inf);
            EXPECT_EQ(maxAbsDiff(id, m), inf);
            EXPECT_TRUE(maxAbsDiff(m, id) > 1e-7);
            EXPECT_FALSE(approxEqual(m, id));
            EXPECT_FALSE(isUnitary(m, 1e-8));
        }
    }
    EXPECT_EQ(maxAbsDiff(id, id), 0.0);
}

TEST(Matrix, KroneckerProductShapeAndContent)
{
    const Matrix a{{1, 2}, {3, 4}};
    const Matrix b{{0, 5}, {6, 7}};
    const Matrix k = kron(a, b);
    ASSERT_EQ(k.rows(), 4u);
    EXPECT_EQ(k(0, 1), Complex(5.0, 0.0));
    EXPECT_EQ(k(3, 0), Complex(18.0, 0.0));
    EXPECT_EQ(k(3, 3), Complex(28.0, 0.0));
}

TEST(Matrix, BlockRoundTrip)
{
    Rng rng(11);
    const Matrix g = ginibre(rng, 6);
    const Matrix b = g.block(1, 4, 2, 6);
    ASSERT_EQ(b.rows(), 3u);
    ASSERT_EQ(b.cols(), 4u);
    Matrix h(6, 6);
    h.setBlock(1, 2, b);
    EXPECT_EQ(h(1, 2), g(1, 2));
    EXPECT_EQ(h(3, 5), g(3, 5));
}

TEST(Matrix, InverseMatchesIdentity)
{
    Rng rng(3);
    const Matrix g = ginibre(rng, 5) + 5.0 * Matrix::identity(5);
    EXPECT_TRUE(approxEqual(g * inverse(g), Matrix::identity(5), 1e-9));
}

class EighSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(EighSizes, ReconstructsHermitianMatrix)
{
    const int n = GetParam();
    Rng rng(100 + n);
    const Matrix h = randomHermitian(rng, n);
    const EigenSystem es = eighHermitian(h);
    ASSERT_EQ(es.values.size(), static_cast<std::size_t>(n));
    EXPECT_TRUE(isUnitary(es.vectors, 1e-10));
    CVector d(n);
    for (int i = 0; i < n; ++i) {
        d[i] = es.values[i];
        if (i > 0) {
            EXPECT_LE(es.values[i - 1], es.values[i] + 1e-12);
        }
    }
    const Matrix rec = es.vectors * Matrix::diag(d) * es.vectors.dagger();
    EXPECT_LT(maxAbsDiff(rec, h), 1e-9 * std::max(1.0, h.maxAbs()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighSizes, ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(Eigh, DegenerateSpectrum)
{
    // diag(1,1,2) conjugated by a random unitary.
    Rng rng(5);
    const Matrix u = haarUnitary(rng, 3);
    const Matrix h = u * Matrix::diag({1.0, 1.0, 2.0}) * u.dagger();
    const EigenSystem es = eighHermitian(h);
    EXPECT_NEAR(es.values[0], 1.0, 1e-10);
    EXPECT_NEAR(es.values[1], 1.0, 1e-10);
    EXPECT_NEAR(es.values[2], 2.0, 1e-10);
}

class QRSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(QRSizes, FactorsArbitraryMatrices)
{
    const int n = GetParam();
    Rng rng(200 + n);
    const Matrix a = ginibre(rng, n);
    const QRResult f = qr(a);
    EXPECT_TRUE(isUnitary(f.q, 1e-10));
    EXPECT_TRUE(approxEqual(f.q * f.r, a, 1e-9));
    // R is upper triangular.
    for (int r = 1; r < n; ++r)
        for (int c = 0; c < r; ++c)
            EXPECT_LT(std::abs(f.r(r, c)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QRSizes, ::testing::Values(1, 2, 4, 8, 16));

class SvdSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(SvdSizes, ReconstructsInput)
{
    const int n = GetParam();
    Rng rng(300 + n);
    const Matrix a = ginibre(rng, n);
    const SVDResult f = svd(a);
    EXPECT_TRUE(isUnitary(f.u, 1e-9));
    EXPECT_TRUE(isUnitary(f.v, 1e-9));
    Matrix sig(n, n);
    for (int i = 0; i < n; ++i) {
        sig(i, i) = f.singular[i];
        EXPECT_GE(f.singular[i], -1e-12);
        if (i > 0) {
            EXPECT_GE(f.singular[i - 1], f.singular[i] - 1e-12);
        }
    }
    EXPECT_TRUE(approxEqual(f.u * sig * f.v.dagger(), a, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SvdSizes, ::testing::Values(1, 2, 4, 8));

TEST(Svd, RankDeficientInput)
{
    // Outer product has rank 1; SVD must still return full unitaries.
    Matrix a(4, 4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            a(i, j) = Complex(i + 1.0, 0.0) * Complex(j - 1.5, 0.5);
    const SVDResult f = svd(a);
    EXPECT_TRUE(isUnitary(f.u, 1e-9));
    EXPECT_TRUE(isUnitary(f.v, 1e-9));
    EXPECT_GT(f.singular[0], 1.0);
    EXPECT_LT(f.singular[1], 1e-9);
    Matrix sig(4, 4);
    for (int i = 0; i < 4; ++i)
        sig(i, i) = f.singular[i];
    EXPECT_TRUE(approxEqual(f.u * sig * f.v.dagger(), a, 1e-8));
}

TEST(Svd, UnitaryInputHasUnitSingularValues)
{
    Rng rng(17);
    const Matrix u = haarUnitary(rng, 4);
    const SVDResult f = svd(u);
    for (double s : f.singular)
        EXPECT_NEAR(s, 1.0, 1e-10);
}

TEST(EigNormal, DiagonalizesUnitaries)
{
    Rng rng(23);
    for (int trial = 0; trial < 10; ++trial) {
        const Matrix u = haarUnitary(rng, 4);
        const ComplexEigenSystem es = eigNormal(u);
        Matrix d(4, 4);
        for (int i = 0; i < 4; ++i) {
            d(i, i) = es.values[i];
            EXPECT_NEAR(std::abs(es.values[i]), 1.0, 1e-9);
        }
        EXPECT_TRUE(
            approxEqual(es.vectors * d * es.vectors.dagger(), u, 1e-8));
    }
}

TEST(EigNormal, HandlesDegenerateUnitary)
{
    // diag(i, i, -i, 1) conjugated by a Haar unitary.
    Rng rng(29);
    const Matrix u = haarUnitary(rng, 4);
    const Matrix d = Matrix::diag({kI, kI, -kI, Complex{1.0, 0.0}});
    const Matrix a = u * d * u.dagger();
    const ComplexEigenSystem es = eigNormal(a);
    Matrix dd(4, 4);
    for (int i = 0; i < 4; ++i)
        dd(i, i) = es.values[i];
    EXPECT_TRUE(approxEqual(es.vectors * dd * es.vectors.dagger(), a, 1e-8));
}

TEST(Expm, MatchesPropagatorForHermitian)
{
    Rng rng(31);
    const Matrix h = randomHermitian(rng, 4);
    const Matrix viaEig = propagator(h, 0.7);
    const Matrix viaSeries = expm(Complex{0.0, -0.7} * h);
    EXPECT_TRUE(approxEqual(viaEig, viaSeries, 1e-9));
    EXPECT_TRUE(isUnitary(viaEig, 1e-10));
}

TEST(Expm, KnownPauliRotation)
{
    // exp(-i (pi/2) X) = -i X.
    const Matrix x{{0, 1}, {1, 0}};
    const Matrix e = propagator(x, M_PI / 2.0);
    const Matrix expected = Complex{0.0, -1.0} * x;
    EXPECT_TRUE(approxEqual(e, expected, 1e-12));
}

TEST(LogUnitary, RoundTripsThroughExp)
{
    Rng rng(37);
    const Matrix u = haarUnitary(rng, 4);
    const Matrix h = logUnitary(u);
    EXPECT_TRUE(isHermitian(h, 1e-8));
    EXPECT_TRUE(approxEqual(expm(kI * h), u, 1e-8));
}

TEST(Random, HaarSUHasUnitDeterminant)
{
    Rng rng(41);
    for (int n : {2, 4, 8}) {
        const Matrix u = haarSU(rng, n);
        EXPECT_TRUE(isUnitary(u, 1e-10));
        EXPECT_NEAR(std::abs(u.det() - Complex{1.0, 0.0}), 0.0, 1e-9);
    }
}

TEST(Random, HaarUnitaryFirstMomentVanishes)
{
    // E[U] = 0 for Haar; check the empirical mean shrinks.
    Rng rng(43);
    Matrix mean(2, 2);
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        mean += haarUnitary(rng, 2);
    mean *= Complex{1.0 / n, 0.0};
    EXPECT_LT(mean.maxAbs(), 0.06);
}

/** Real part of a 4x4 Matrix as simultaneousDiagonalize's row-major input. */
std::array<double, 16>
realPart(const Matrix &m)
{
    std::array<double, 16> a;
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            a[4 * i + j] = m(i, j).real();
    return a;
}

Matrix
fromRowMajor(const std::array<double, 16> &a)
{
    Matrix m(4, 4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            m(i, j) = a[4 * i + j];
    return m;
}

/** Max off-diagonal magnitude of o^T x o. */
double
rotatedOffDiag(const Matrix &o, const Matrix &x)
{
    const Matrix d = o.transpose() * x * o;
    double m = 0.0;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            if (r != c)
                m = std::max(m, std::abs(d(r, c)));
    return m;
}

TEST(SimultaneousDiagonalize, CommutingSymmetricPair)
{
    // Build commuting real symmetric matrices from a common eigenbasis.
    Rng rng(47);
    Matrix g(4, 4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            g(i, j) = rng.gaussian();
    const QRResult f = qr(g);
    Matrix q(4, 4);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            q(i, j) = f.q(i, j).real();
    // Re-orthogonalize the real part (QR of a real matrix stays real).
    const Matrix a = q * Matrix::diag({1.0, 2.0, 3.0, 4.0}) * q.transpose();
    const Matrix b = q * Matrix::diag({-1.0, 0.5, 0.5, 2.0}) * q.transpose();
    const Matrix o =
        fromRowMajor(simultaneousDiagonalize(realPart(a), realPart(b)));
    EXPECT_NEAR(std::abs(o.det() - Complex{1.0, 0.0}), 0.0, 1e-9);
    const Matrix da = o.transpose() * a * o;
    const Matrix db = o.transpose() * b * o;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            if (r != c) {
                EXPECT_LT(std::abs(da(r, c)), 1e-8);
                EXPECT_LT(std::abs(db(r, c)), 1e-8);
            }

    // The KAK input: gamma = U_B U_B^T in the magic basis, whose real and
    // imaginary parts commute. CNOT, SWAP and the identity give repeated
    // eigenvalues, the degenerate case for the Jacobi mixes.
    const double s = 1.0 / std::sqrt(2.0);
    const Complex is{0.0, s};
    const Matrix magic{{s, 0, 0, is}, {0, is, s, 0}, {0, is, -s, 0},
                       {s, 0, 0, -is}};
    const Matrix cnot{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
    const Matrix swap{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}};
    for (const Matrix &u : {cnot, swap, Matrix::identity(4)}) {
        const Matrix ub = magic.dagger() * u * magic;
        const Matrix gamma = ub * ub.transpose();
        std::array<double, 16> re, im;
        for (int k = 0; k < 16; ++k) {
            re[k] = gamma.data()[k].real();
            im[k] = gamma.data()[k].imag();
        }
        const Matrix og = fromRowMajor(simultaneousDiagonalize(re, im));
        EXPECT_NEAR(og.det().real(), 1.0, 1e-12) << u.toString();
        EXPECT_LE(rotatedOffDiag(og, fromRowMajor(re)), 1e-12) << u.toString();
        EXPECT_LE(rotatedOffDiag(og, fromRowMajor(im)), 1e-12) << u.toString();
    }
}

TEST(SimultaneousDiagonalize, NonCommutingPairThrows)
{
    const Matrix a = Matrix::diag({1.0, 2.0, 3.0, 4.0});
    Matrix b(4, 4);
    b(0, 1) = b(1, 0) = 1.0;
    EXPECT_THROW(simultaneousDiagonalize(realPart(a), realPart(b)),
                 std::runtime_error);
}

} // namespace
