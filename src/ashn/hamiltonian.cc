#include "hamiltonian.hh"

#include <algorithm>
#include <cmath>

#include "linalg/expm.hh"
#include "qop/gates.hh"

namespace crisc {
namespace ashn {

using linalg::kron;
using qop::pauliI;
using qop::pauliX;
using qop::pauliY;
using qop::pauliZ;

namespace {

/**
 * Diagonalizes the real symmetric 3x3 matrix @p a in place by cyclic
 * Jacobi rotations, multiplying each rotation into @p v from the right:
 * on return a's diagonal holds the eigenvalues and, for v starting as
 * the identity, column k of v is the eigenvector of a[k][k].
 */
void
jacobiSymmetric3(double a[3][3], double v[3][3])
{
    double scale = 1e-300;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            scale = std::max(scale, std::abs(a[i][j]));
    constexpr int kPairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};
    for (int sweep = 0; sweep < 32; ++sweep) {
        if (std::abs(a[0][1]) + std::abs(a[0][2]) + std::abs(a[1][2]) <=
            1e-17 * scale)
            break;
        for (const auto &[p, q] : kPairs) {
            const double apq = a[p][q];
            if (std::abs(apq) <= 1e-18 * scale)
                continue;
            // The rotation that zeroes a[p][q]: t = tan(phi), the smaller
            // root of t^2 + 2 theta t - 1 = 0.
            const double theta = (a[q][q] - a[p][p]) / (2.0 * apq);
            const double t =
                std::copysign(1.0, theta) /
                (std::abs(theta) + std::sqrt(theta * theta + 1.0));
            const double c = 1.0 / std::sqrt(t * t + 1.0);
            const double s = t * c;
            a[p][p] -= t * apq;
            a[q][q] += t * apq;
            a[p][q] = a[q][p] = 0.0;
            const int r = 3 - p - q;
            const double arp = a[r][p], arq = a[r][q];
            a[r][p] = a[p][r] = c * arp - s * arq;
            a[r][q] = a[q][r] = s * arp + c * arq;
            for (int i = 0; i < 3; ++i) {
                const double vp = v[i][p], vq = v[i][q];
                v[i][p] = c * vp - s * vq;
                v[i][q] = s * vp + c * vq;
            }
        }
    }
}

} // namespace

Matrix
hamiltonian(double h, double omega1, double omega2, double delta)
{
    const Matrix xi = kron(pauliX(), pauliI());
    const Matrix ix = kron(pauliI(), pauliX());
    const Matrix zi = kron(pauliZ(), pauliI());
    const Matrix iz = kron(pauliI(), pauliZ());
    return 0.5 * (qop::pauliXX() + qop::pauliYY()) +
           (0.5 * h) * qop::pauliZZ() + omega1 * (xi + ix) +
           omega2 * (xi - ix) + delta * (zi + iz);
}

Matrix
hamiltonianWithPhases(double h, double a1, double phi1, double a2,
                      double phi2, double delta)
{
    const Matrix xi = kron(pauliX(), pauliI());
    const Matrix yi = kron(pauliY(), pauliI());
    const Matrix ix = kron(pauliI(), pauliX());
    const Matrix iy = kron(pauliI(), pauliY());
    const Matrix zi = kron(pauliZ(), pauliI());
    const Matrix iz = kron(pauliI(), pauliZ());
    return 0.5 * (qop::pauliXX() + qop::pauliYY()) +
           (0.5 * h) * qop::pauliZZ() -
           (0.5 * a1) * (std::cos(phi1) * xi - std::sin(phi1) * yi) -
           (0.5 * a2) * (std::cos(phi2) * ix - std::sin(phi2) * iy) +
           delta * (zi + iz);
}

Matrix
evolve(double tau, double h, double omega1, double omega2, double delta)
{
    return linalg::propagator(hamiltonian(h, omega1, omega2, delta), tau);
}

linalg::Complex
symmetricSlotTrace(double tau, double h, double omega, double delta)
{
    const double w = std::sqrt(2.0) * omega;
    double t[3][3] = {{0.5 * h + 2.0 * delta, 0.0, w},
                      {0.0, 0.5 * h - 2.0 * delta, w},
                      {w, w, 1.0 - 0.5 * h}};
    double v[3][3] = {{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}};
    jacobiSymmetric3(t, v);
    linalg::Complex sum = 0.0;
    for (int k = 0; k < 3; ++k) {
        // v_k^T P v_k with P = [[0, -1, 0], [-1, 0, 0], [0, 0, 1]].
        const double weight =
            v[2][k] * v[2][k] - 2.0 * v[0][k] * v[1][k];
        const double phase = t[k][k] * tau;
        sum += weight * linalg::Complex(std::cos(phase), -std::sin(phase));
    }
    return sum;
}

double
driveA1(double omega1, double omega2)
{
    return -2.0 * (omega1 + omega2);
}

double
driveA2(double omega1, double omega2)
{
    return -2.0 * (omega1 - omega2);
}

} // namespace ashn
} // namespace crisc
