/**
 * @file
 * Weyl chamber coordinates and the KAK decomposition (Theorem 1 of the
 * paper): every U in SU(4) factors as
 *
 *   U = e^{i phase} (a1 (x) a2) exp(i (x XX + y YY + z ZZ)) (b1 (x) b2)
 *
 * with (x, y, z) unique inside the Weyl chamber
 * W = { pi/4 >= x >= y >= |z|, z >= 0 if x = pi/4 }.
 *
 * Both kak() and weylCoordinates() start with the same spectral step:
 * the phase split into SU(4), the symmetric unitary gamma = U_B U_B^T
 * in the magic (Bell) basis, its real orthogonal diagonalization (a
 * real symmetric Jacobi, on stack 4x4 arrays) and the raw interaction
 * coefficients read off its eigenphases. One set of
 * chamber-move rules then canonicalizes the point. Only kak() builds
 * local gates: it factors them out of the diagonalization and replays
 * every chamber move on them. weylCoordinates() moves the point alone,
 * and its result is bitwise equal to kak(u).point.
 */

#ifndef CRISC_WEYL_WEYL_HH
#define CRISC_WEYL_WEYL_HH

#include <array>

#include "linalg/matrix.hh"

namespace crisc {
namespace weyl {

using linalg::Complex;
using linalg::Matrix;

/** A point (x, y, z) of interaction coefficients. */
struct WeylPoint
{
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    std::array<double, 3> asArray() const { return {x, y, z}; }
};

/** Distance max(|dx|, |dy|, |dz|) between chamber points. */
double pointDistance(const WeylPoint &a, const WeylPoint &b);

/**
 * @return true when p lies in the canonical chamber W (to tolerance);
 * false for any non-finite coordinate.
 */
bool isCanonical(const WeylPoint &p, double tol = 1e-9);

/**
 * Canonicalizes arbitrary interaction coefficients into W using the
 * chamber symmetries. Point-only: it allocates nothing, and its moves
 * are decided by the same rules kak() replays on its local gates, so
 * the result is bitwise equal to the point of
 * detail::trackedCanonicalization(raw).
 *
 * @throws std::invalid_argument when a coordinate is not finite.
 */
WeylPoint canonicalizePoint(const WeylPoint &raw);

/** Full KAK decomposition of a two-qubit unitary. */
struct KAKDecomposition
{
    /** Global phase: U = e^{i phase} (a1 x a2) N(point) (b1 x b2). */
    double phase = 0.0;
    Matrix a1, a2;    ///< Left (after-interaction) local gates.
    WeylPoint point;  ///< Canonical interaction coefficients.
    Matrix b1, b2;    ///< Right (before-interaction) local gates.

    /** Recomposes the unitary described by this decomposition. */
    Matrix compose() const;
};

/**
 * Computes the KAK decomposition of @p u (any 4x4 unitary; a global
 * phase is split off automatically).
 *
 * Postcondition: compose() reproduces @p u to ~1e-9 and point is inside
 * the canonical Weyl chamber.
 */
KAKDecomposition kak(const Matrix &u);

/**
 * Interaction coefficients of @p u (canonical chamber point): kak()'s
 * spectral step followed by canonicalizePoint(), with no local gates.
 * The result is bitwise equal to kak(u).point.
 *
 * @throws std::invalid_argument naming weylCoordinates when @p u is not
 * a 4x4 unitary.
 */
WeylPoint weylCoordinates(const Matrix &u);

/** @return true when u and v are equal up to single-qubit gates. */
bool locallyEquivalent(const Matrix &u, const Matrix &v, double tol = 1e-7);

/**
 * Makhlin-style local invariants (g1, g2, g3); equal for locally
 * equivalent gates. Used as an independent cross-check on the KAK code.
 */
std::array<double, 3> localInvariants(const Matrix &u);

/** The magic (Bell) basis change used by the KAK decomposition. */
const Matrix &magicBasis();

/**
 * Solves U = e^{i phase} (l1 x l2) V (r1 x r2) for the local gates, i.e.
 * finds the single-qubit corrections that turn the physically realized
 * gate V into the target U. Both gates must be locally equivalent.
 */
struct LocalCorrection
{
    double phase = 0.0;
    Matrix l1, l2, r1, r2;
};
LocalCorrection localCorrections(const Matrix &target, const Matrix &realized);

namespace detail {

/**
 * KAK decomposition of canonicalGate(raw) obtained by replaying kak()'s
 * tracked chamber moves on identity local gates (no spectral step). It
 * exposes kak()'s canonicalization so tests can check it against
 * canonicalizePoint() bit for bit.
 */
KAKDecomposition trackedCanonicalization(const WeylPoint &raw);

} // namespace detail

} // namespace weyl
} // namespace crisc

#endif // CRISC_WEYL_WEYL_HH
