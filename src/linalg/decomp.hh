/**
 * @file
 * Matrix decompositions: Hermitian eigensolver (complex Jacobi), QR
 * (Householder), complex SVD (one-sided Jacobi), eigendecomposition of
 * normal/unitary matrices, and simultaneous diagonalization of commuting
 * real symmetric 4x4 matrices (needed by the magic-basis KAK
 * decomposition).
 */

#ifndef CRISC_LINALG_DECOMP_HH
#define CRISC_LINALG_DECOMP_HH

#include <array>
#include <vector>

#include "matrix.hh"

namespace crisc {
namespace linalg {

/** Result of a Hermitian eigendecomposition A = V diag(values) V^dagger. */
struct EigenSystem
{
    /** Real eigenvalues in ascending order. */
    std::vector<double> values;
    /** Unitary matrix whose columns are the eigenvectors. */
    Matrix vectors;
};

/**
 * Diagonalizes a Hermitian matrix with the cyclic complex Jacobi method.
 *
 * @param a Hermitian input matrix (validated to tolerance).
 * @return eigenvalues ascending and the unitary of eigenvectors.
 */
EigenSystem eighHermitian(const Matrix &a);

/** Result of an eigendecomposition A = V diag(values) V^dagger. */
struct ComplexEigenSystem
{
    /** Complex eigenvalues, in the column order of @c vectors. */
    CVector values;
    /** Unitary matrix of eigenvectors. */
    Matrix vectors;
};

/**
 * Eigendecomposition of a *normal* matrix (e.g. any unitary).
 *
 * Implemented by simultaneously diagonalizing the commuting Hermitian
 * parts (A + A^dagger)/2 and (A - A^dagger)/(2i) via a random generic
 * combination; retries with fresh combinations on degeneracy.
 */
ComplexEigenSystem eigNormal(const Matrix &a);

/** Result of a QR decomposition A = Q R with Q unitary. */
struct QRResult
{
    Matrix q;
    Matrix r;
};

/** Householder QR of a square or tall matrix. */
QRResult qr(const Matrix &a);

/** Result of a singular value decomposition A = U diag(s) V^dagger. */
struct SVDResult
{
    Matrix u;                     ///< m x m unitary.
    std::vector<double> singular; ///< min(m,n) values, descending.
    Matrix v;                     ///< n x n unitary.
};

/**
 * Complex SVD via the one-sided Jacobi method (high relative accuracy,
 * which the cosine-sine decomposition depends on).
 */
SVDResult svd(const Matrix &a);

/**
 * Simultaneously diagonalizes two commuting real symmetric 4x4 matrices
 * (row-major; each is symmetrized as (x + x^T)/2 first).
 *
 * Finds a real orthogonal Q such that Q^T a Q and Q^T b Q are both
 * diagonal, by a real cyclic Jacobi on generic combinations a + t b
 * (eigenvalues ascending). Used on the real and imaginary parts of the
 * symmetric unitary gamma in the KAK decomposition. Works on the stack;
 * allocates nothing.
 *
 * @return row-major Q with det(Q) = +1.
 * @throws std::runtime_error when no combination diagonalizes both
 * inputs (they do not commute).
 */
std::array<double, 16> simultaneousDiagonalize(const std::array<double, 16> &a,
                                               const std::array<double, 16> &b);

/** Inverse of a square matrix via Gauss-Jordan with partial pivoting. */
Matrix inverse(const Matrix &a);

} // namespace linalg
} // namespace crisc

#endif // CRISC_LINALG_DECOMP_HH
