#include "weyl.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "linalg/decomp.hh"
#include "qop/gates.hh"
#include "qop/metrics.hh"

namespace crisc {
namespace weyl {

using linalg::kron;
using qop::canonicalGate;

namespace {

constexpr double kPi = M_PI;

/**
 * Decision tolerance shared by every canonicalization predicate. All
 * comparisons (folding, ordering, sign fixes, the x = pi/4 boundary
 * rule) must use the same epsilon: a coordinate that one rule considers
 * "at the boundary" while another folds it back across pi/4 makes the
 * move loop cycle forever on points within roundoff of the boundary.
 */
constexpr double kEps = 1e-9;

/**
 * The chamber moves applied to the point alone. Each move maps eta to
 * a point of the same local equivalence class. canonicalStep() decides
 * every move from eta and applies it through this interface, so Tracked
 * (which also updates its local gates) and the point-only path share
 * one set of rules.
 */
struct PointMoves
{
    WeylPoint eta;

    double &coord(int axis)
    {
        return axis == 0 ? eta.x : axis == 1 ? eta.y : eta.z;
    }

    /** Shifts coordinate @p axis by steps * pi/2. */
    void shift(int axis, int steps) { coord(axis) += steps * (kPi / 2.0); }

    /** Negates the two coordinates other than @p fixedAxis. */
    void
    flip(int fixedAxis)
    {
        for (int axis = 0; axis < 3; ++axis)
            if (axis != fixedAxis)
                coord(axis) = -coord(axis);
    }

    /** Exchanges coordinates @p i and @p j. */
    void swapAxes(int i, int j) { std::swap(coord(i), coord(j)); }
};

/**
 * KAK state with the invariant
 *   u = e^{i phase} (a1 x a2) canonicalGate(eta) (b1 x b2)
 * maintained by every chamber move: each move updates eta exactly as
 * PointMoves does, then absorbs its inverse into the local gates.
 */
struct Tracked : PointMoves
{
    double phase;
    Matrix a1, a2, b1, b2;

    /**
     * Each pi/2 step absorbs a factor exp(+-i pi/2 PP) = +-i (P x P)
     * into the right locals.
     */
    void
    shift(int axis, int steps)
    {
        const Matrix &p = axis == 0   ? qop::pauliX()
                          : axis == 1 ? qop::pauliY()
                                      : qop::pauliZ();
        PointMoves::shift(axis, steps);
        phase -= steps * (kPi / 2.0);
        if (steps % 2 != 0) {
            b1 = p * b1;
            b2 = p * b2;
        }
    }

    /**
     * Conjugates the canonical gate with (P x I), P the Pauli of the
     * fixed axis.
     */
    void
    flip(int fixedAxis)
    {
        const Matrix &p = fixedAxis == 0   ? qop::pauliX()
                          : fixedAxis == 1 ? qop::pauliY()
                                           : qop::pauliZ();
        PointMoves::flip(fixedAxis);
        a1 = a1 * p;
        b1 = p * b1;
    }

    /**
     * Conjugates with (V x V), V the single-qubit Clifford that permutes
     * the corresponding Pauli axes.
     */
    void
    swapAxes(int i, int j)
    {
        Matrix v;
        if ((i == 0 && j == 1) || (i == 1 && j == 0)) {
            v = qop::sGate(); // S: X->Y, Y->-X; swaps x and y.
        } else if ((i == 1 && j == 2) || (i == 2 && j == 1)) {
            v = qop::rx(kPi / 2.0); // Y->Z, Z->-Y; swaps y and z.
        } else {
            v = qop::hadamard(); // X<->Z; swaps x and z.
        }
        PointMoves::swapAxes(i, j);
        const Matrix vd = v.dagger();
        a1 = a1 * vd;
        a2 = a2 * vd;
        b1 = v * b1;
        b2 = v * b2;
    }

    KAKDecomposition
    decomposition() const
    {
        KAKDecomposition out;
        out.phase = phase;
        out.a1 = a1;
        out.a2 = a2;
        out.point = eta;
        out.b1 = b1;
        out.b2 = b2;
        return out;
    }
};

/**
 * One canonicalization pass over @p t, a PointMoves or a Tracked: the
 * only copy of the chamber-move rules. Returns true when eta is already
 * in W.
 */
template <class Moves>
bool
canonicalStep(Moves &t)
{
    // Fold every coordinate into (-pi/4, pi/4] (up to kEps of slack so
    // boundary values do not oscillate across the fold).
    for (int axis = 0; axis < 3; ++axis) {
        const double c = t.coord(axis);
        const int k = static_cast<int>(
            std::ceil((c - kPi / 4.0 - kEps) / (kPi / 2.0)));
        if (k != 0)
            t.shift(axis, -k);
    }
    // Order by decreasing magnitude. Strict comparison: each swap
    // strictly reduces the violation, so no margin is needed (a margin
    // can strand points whose canonicality violation is of the same
    // order as the margin itself).
    if (std::abs(t.eta.y) > std::abs(t.eta.x)) {
        t.swapAxes(0, 1);
        return false;
    }
    if (std::abs(t.eta.z) > std::abs(t.eta.y)) {
        t.swapAxes(1, 2);
        return false;
    }
    // Push any negativity into z (flips negate coordinate pairs).
    // Strict thresholds: each flip strictly reduces the number of
    // negative coordinates among {x, y}, so the rules cannot cycle, and
    // margins would strand points whose violation is margin-sized.
    if (t.eta.x < 0.0 && t.eta.y < 0.0) {
        t.flip(2);
        return false;
    }
    if (t.eta.x < 0.0) {
        t.flip(1);
        return false;
    }
    if (t.eta.y < 0.0) {
        t.flip(0);
        return false;
    }
    // Boundary rule: at x = pi/4 require z >= 0; (pi/4,y,z) is
    // equivalent to (pi/4,y,-z) through a flip plus a pi/2 shift.
    if (t.eta.x > kPi / 4.0 - kEps && t.eta.z < -kEps) {
        t.flip(1); // negates x and z
        return false;
    }
    return isCanonical(t.eta, 1e-9);
}

template <class Moves>
void
canonicalize(Moves &t)
{
    std::ostringstream trace;
    for (int iter = 0; iter < 64; ++iter) {
        if (canonicalStep(t))
            return;
        if (iter >= 58) {
            trace << " (" << t.eta.x << "," << t.eta.y << "," << t.eta.z
                  << ")";
        }
    }
    throw std::runtime_error(
        "weyl: canonicalization did not converge; tail:" + trace.str());
}

/** Output of the spectral step shared by kak() and weylCoordinates(). */
struct Spectral
{
    /** u = e^{i phase} (M q M^dag) canonicalGate(eta) (M v M^dag). */
    double phase;
    Matrix q;      ///< Real orthogonal diagonalizer of gamma.
    Matrix v;      ///< Real orthogonal right factor.
    WeylPoint eta; ///< Raw (not yet canonical) interaction coefficients.
};

/**
 * Diagonalizes the symmetric unitary gamma = U_B U_B^T of @p u in the
 * magic basis and returns the raw Weyl point with the factors that
 * produced it. @p caller names the public entry point in error messages.
 */
Spectral
spectralStep(const Matrix &u, const char *caller)
{
    if (u.rows() != 4 || u.cols() != 4 || !linalg::isUnitary(u, 1e-8))
        throw std::invalid_argument(std::string(caller) +
                                    ": expected a 4x4 unitary");

    // Split off the global phase so we work inside SU(4).
    const double theta0 = std::arg(u.det()) / 4.0;
    const Matrix su = std::polar(1.0, -theta0) * u;

    const Matrix &m = magicBasis();
    const Matrix um = m.dagger() * su * m;
    const Matrix gamma = um * um.transpose();

    // gamma is symmetric unitary: its real and imaginary parts commute
    // and are diagonalized by a common real orthogonal Q.
    const std::size_t n = 4;
    Matrix re(n, n), im(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            re(i, j) = gamma(i, j).real();
            im(i, j) = gamma(i, j).imag();
        }
    Spectral out;
    out.q = linalg::simultaneousDiagonalize(re, im);
    const Matrix &q = out.q;
    const Matrix d = q.transpose() * gamma * q;

    std::array<double, 4> lambda;
    for (std::size_t i = 0; i < 4; ++i)
        lambda[i] = std::arg(d(i, i)) / 2.0;

    auto makeV = [&](const std::array<double, 4> &lam) {
        Matrix dinv(4, 4);
        for (std::size_t i = 0; i < 4; ++i)
            dinv(i, i) = std::polar(1.0, -lam[i]);
        return dinv * q.transpose() * um;
    };
    out.v = makeV(lambda);
    if (out.v.det().real() < 0.0) {
        lambda[0] += kPi;
        out.v = makeV(lambda);
    }
    // V must be real orthogonal at this point.
    double imax = 0.0;
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            imax = std::max(imax, std::abs(out.v(i, j).imag()));
    if (imax > 1e-7)
        throw std::runtime_error(std::string(caller) +
                                 ": orthogonal factor not real");

    // Remove the residual trace phase so the lambdas sum to zero.
    const double s =
        (lambda[0] + lambda[1] + lambda[2] + lambda[3]) / 4.0;
    for (auto &l : lambda)
        l -= s;

    out.phase = theta0 + s;
    out.eta.x = (lambda[0] + lambda[1]) / 2.0;
    out.eta.y = (lambda[1] + lambda[3]) / 2.0;
    out.eta.z = (lambda[0] + lambda[3]) / 2.0;
    return out;
}

} // namespace

double
pointDistance(const WeylPoint &a, const WeylPoint &b)
{
    return std::max({std::abs(a.x - b.x), std::abs(a.y - b.y),
                     std::abs(a.z - b.z)});
}

bool
isCanonical(const WeylPoint &p, double tol)
{
    if (p.x > kPi / 4.0 + tol || p.y > p.x + tol)
        return false;
    if (std::abs(p.z) > p.y + tol)
        return false;
    if (p.x > kPi / 4.0 - tol && p.z < -tol)
        return false;
    return true;
}

WeylPoint
canonicalizePoint(const WeylPoint &raw)
{
    PointMoves t{raw};
    canonicalize(t);
    return t.eta;
}

Matrix
KAKDecomposition::compose() const
{
    return std::polar(1.0, phase) *
           (kron(a1, a2) * canonicalGate(point.x, point.y, point.z) *
            kron(b1, b2));
}

const Matrix &
magicBasis()
{
    static const double s = 1.0 / std::sqrt(2.0);
    static const Complex is{0.0, 1.0 / std::sqrt(2.0)};
    static const Matrix m{{s, 0, 0, is},
                          {0, is, s, 0},
                          {0, is, -s, 0},
                          {s, 0, 0, -is}};
    return m;
}

KAKDecomposition
kak(const Matrix &u)
{
    const Spectral sp = spectralStep(u, "kak");
    Tracked t;
    t.phase = sp.phase;
    t.eta = sp.eta;

    const Matrix &m = magicBasis();
    std::tie(t.a1, t.a2) = qop::factorKron(m * sp.q * m.dagger());
    std::tie(t.b1, t.b2) = qop::factorKron(m * sp.v * m.dagger());

    canonicalize(t);
    KAKDecomposition out = t.decomposition();

    // Snap the accumulated phase against the input to absorb roundoff.
    const Complex overlap = (out.compose().dagger() * u).trace();
    out.phase += std::arg(overlap);

    if (linalg::maxAbsDiff(out.compose(), u) > 1e-7)
        throw std::runtime_error("kak: recomposition check failed");
    return out;
}

WeylPoint
weylCoordinates(const Matrix &u)
{
    return canonicalizePoint(spectralStep(u, "weylCoordinates").eta);
}

KAKDecomposition
detail::trackedCanonicalization(const WeylPoint &raw)
{
    Tracked t;
    t.eta = raw;
    t.phase = 0.0;
    t.a1 = t.a2 = t.b1 = t.b2 = Matrix::identity(2);
    canonicalize(t);
    return t.decomposition();
}

bool
locallyEquivalent(const Matrix &u, const Matrix &v, double tol)
{
    return pointDistance(weylCoordinates(u), weylCoordinates(v)) <= tol;
}

std::array<double, 3>
localInvariants(const Matrix &u)
{
    const Matrix su = qop::toSU(u);
    const Matrix &m = magicBasis();
    const Matrix ub = m.dagger() * su * m;
    const Matrix mm = ub.transpose() * ub;
    const Complex t = mm.trace();
    const Complex g12 = t * t / 16.0;
    const Complex g3 = (t * t - (mm * mm).trace()) / 4.0;
    return {g12.real(), g12.imag(), g3.real()};
}

LocalCorrection
localCorrections(const Matrix &target, const Matrix &realized)
{
    const KAKDecomposition kt = kak(target);
    const KAKDecomposition kr = kak(realized);
    if (pointDistance(kt.point, kr.point) > 1e-6) {
        throw std::invalid_argument(
            "localCorrections: gates are not locally equivalent");
    }
    LocalCorrection out;
    out.phase = kt.phase - kr.phase;
    out.l1 = kt.a1 * kr.a1.dagger();
    out.l2 = kt.a2 * kr.a2.dagger();
    out.r1 = kr.b1.dagger() * kt.b1;
    out.r2 = kr.b2.dagger() * kt.b2;
    return out;
}

} // namespace weyl
} // namespace crisc
