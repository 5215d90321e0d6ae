/**
 * @file
 * The AshN rotating-frame Hamiltonian (paper Eq. 4.1/4.3) and its time
 * evolution. All quantities are normalized to the XY coupling g = 1:
 * times are in units of 1/g and drive strengths in units of g. Helpers
 * convert to physical units for a given g.
 */

#ifndef CRISC_ASHN_HAMILTONIAN_HH
#define CRISC_ASHN_HAMILTONIAN_HH

#include "linalg/matrix.hh"

namespace crisc {
namespace ashn {

using linalg::Matrix;

/**
 * H(h; Omega1, Omega2, delta) =
 *   1/2 (XX + YY) + h/2 ZZ + Omega1 (XI + IX) + Omega2 (XI - IX)
 *   + delta (ZI + IZ),
 * the square-envelope AshN Hamiltonian with ZZ coupling ratio h = h/g.
 */
Matrix hamiltonian(double h, double omega1, double omega2, double delta);

/**
 * The general drive-phase Hamiltonian of Eq. (4.1):
 *   1/2 (XX+YY) + h/2 ZZ
 *   - a1/2 (cos phi1 XI - sin phi1 YI) - a2/2 (cos phi2 IX - sin phi2 IY)
 *   + delta (ZI + IZ),
 * used to demonstrate the free virtual-Z property of Sec. 4.4.
 */
Matrix hamiltonianWithPhases(double h, double a1, double phi1, double a2,
                             double phi2, double delta);

/** Time evolution exp(-i H tau) of the AshN Hamiltonian. */
Matrix evolve(double tau, double h, double omega1, double omega2,
              double delta);

/**
 * The triplet part of trace(evolve(tau, h, omega, 0, delta) * YY), in
 * closed form: the full trace plus e^{i(2+h)tau/2}.
 *
 * With Omega2 = 0 the Hamiltonian commutes with SWAP. The singlet
 * (|01> - |10>)/sqrt2 is an exact eigenvector with energy -(2+h)/2 and
 * YY eigenvalue -1, so it adds -e^{i(2+h)tau/2} to the trace. In the
 * triplet basis {|00>, |11>, (|01> + |10>)/sqrt2} the rest of H is the
 * real symmetric block
 *   T = [[h/2 + 2 delta, 0,             sqrt2 omega],
 *        [0,             h/2 - 2 delta, sqrt2 omega],
 *        [sqrt2 omega,   sqrt2 omega,   1 - h/2    ]]
 * and YY is P = [[0, -1, 0], [-1, 0, 0], [0, 0, 1]]. With T = sum_k
 * lambda_k v_k v_k^T, the result is sum_k e^{-i lambda_k tau} v_k^T P v_k:
 * one 3x3 real-symmetric eigenproblem on the stack, where evolve()
 * needs a heap-allocated complex 4x4 one. evolve() is its test oracle.
 */
linalg::Complex symmetricSlotTrace(double tau, double h, double omega,
                                   double delta);

/**
 * Drive amplitudes of Eq. (4.2): A1 = -2(Omega1 + Omega2) and
 * A2 = -2(Omega1 - Omega2).
 */
double driveA1(double omega1, double omega2);
double driveA2(double omega1, double omega2);

} // namespace ashn
} // namespace crisc

#endif // CRISC_ASHN_HAMILTONIAN_HH
