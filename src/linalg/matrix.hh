/**
 * @file
 * Dense complex matrix type used throughout the CRISC library.
 *
 * The library deliberately carries its own small linear-algebra layer
 * instead of depending on an external package: every substrate of the
 * AshN reproduction (KAK decompositions, Hamiltonian propagators,
 * cosine-sine decompositions, ...) works on small-to-moderate dense
 * complex matrices, and owning the implementation keeps the numerical
 * conventions (phase choices, branch cuts) under our control.
 */

#ifndef CRISC_LINALG_MATRIX_HH
#define CRISC_LINALG_MATRIX_HH

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace crisc {
namespace linalg {

/** Element type for all matrices in the library. */
using Complex = std::complex<double>;

/** Dense column vector of complex numbers. */
using CVector = std::vector<Complex>;

/** Imaginary unit, shared across the library. */
inline constexpr Complex kI{0.0, 1.0};

/**
 * Dense, row-major, heap-allocated complex matrix.
 *
 * Sizes in this library are tiny (2x2 .. 2^n x 2^n with n <= ~12), so the
 * implementation favours clarity and numerical robustness over blocking
 * or vectorization tricks.
 */
class Matrix
{
  public:
    /** Creates an empty 0x0 matrix. */
    Matrix() = default;

    /** Creates a rows x cols matrix filled with zeros. */
    Matrix(std::size_t rows, std::size_t cols);

    /**
     * Creates a matrix from nested initializer lists, e.g.
     * Matrix{{1, 0}, {0, -1}}. All rows must have equal length.
     */
    Matrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** @return the n x n identity matrix. */
    static Matrix identity(std::size_t n);

    /** @return a rows x cols matrix of zeros. */
    static Matrix zero(std::size_t rows, std::size_t cols);

    /** @return a diagonal matrix with the given diagonal entries. */
    static Matrix diag(const CVector &entries);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }
    bool isSquare() const { return rows_ == cols_; }

    Complex &operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    const Complex &operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /** Raw row-major storage (for simulator inner loops). */
    Complex *data() { return data_.data(); }
    const Complex *data() const { return data_.data(); }

    Matrix &operator+=(const Matrix &other);
    Matrix &operator-=(const Matrix &other);
    Matrix &operator*=(Complex scalar);

    /** @return the conjugate transpose. */
    Matrix dagger() const;

    /** @return the (non-conjugated) transpose. */
    Matrix transpose() const;

    /** @return the elementwise complex conjugate. */
    Matrix conjugate() const;

    /** @return the trace; matrix must be square. */
    Complex trace() const;

    /** @return the determinant via LU decomposition with pivoting. */
    Complex det() const;

    /** @return the Frobenius norm. */
    double frobeniusNorm() const;

    /** @return the max absolute entry (infinity norm on entries). */
    double maxAbs() const;

    /** @return the rows0..rows1-1 x cols0..cols1-1 submatrix (half-open). */
    Matrix block(std::size_t row0, std::size_t row1,
                 std::size_t col0, std::size_t col1) const;

    /** Copies @p b into this matrix with top-left corner at (row0, col0). */
    void setBlock(std::size_t row0, std::size_t col0, const Matrix &b);

    /** @return column @p c as a vector. */
    CVector col(std::size_t c) const;

    /** Overwrites column @p c with @p v. */
    void setCol(std::size_t c, const CVector &v);

    /** Multiplies column c by a scalar in place. */
    void scaleCol(std::size_t c, Complex s);

    /** Swaps two columns in place. */
    void swapCols(std::size_t a, std::size_t b);

    /** @return a human-readable dump, for debugging and error messages. */
    std::string toString(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Complex> data_;
};

Matrix operator+(Matrix a, const Matrix &b);
Matrix operator-(Matrix a, const Matrix &b);
Matrix operator*(const Matrix &a, const Matrix &b);
Matrix operator*(Complex s, Matrix a);
Matrix operator*(Matrix a, Complex s);
Matrix operator*(double s, Matrix a);

/** Matrix-vector product. */
CVector operator*(const Matrix &a, const CVector &v);

/** Kronecker (tensor) product a (x) b. */
Matrix kron(const Matrix &a, const Matrix &b);

/**
 * Entrywise distance max_ij |a_ij - b_ij|; +infinity when any entry
 * difference is NaN, so a NaN never passes a tolerance check.
 */
double maxAbsDiff(const Matrix &a, const Matrix &b);

/** @return true when max_ij |a_ij - b_ij| <= tol. */
bool approxEqual(const Matrix &a, const Matrix &b, double tol = 1e-9);

/** @return true when u.dagger() * u is the identity to tolerance. */
bool isUnitary(const Matrix &u, double tol = 1e-9);

/** @return true when the matrix equals its conjugate transpose. */
bool isHermitian(const Matrix &a, double tol = 1e-9);

/** Inner product <a|b> = sum conj(a_i) b_i. */
Complex dot(const CVector &a, const CVector &b);

/** Euclidean norm of a complex vector. */
double norm(const CVector &v);

} // namespace linalg
} // namespace crisc

#endif // CRISC_LINALG_MATRIX_HH
