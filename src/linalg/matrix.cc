#include "matrix.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace crisc {
namespace linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, Complex{0.0, 0.0})
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> rows)
{
    rows_ = rows.size();
    cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto &row : rows) {
        if (row.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::zero(std::size_t rows, std::size_t cols)
{
    return Matrix(rows, cols);
}

Matrix
Matrix::diag(const CVector &entries)
{
    Matrix m(entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        m(i, i) = entries[i];
    return m;
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &other)
{
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

Matrix &
Matrix::operator*=(Complex scalar)
{
    for (auto &x : data_)
        x *= scalar;
    return *this;
}

Matrix
Matrix::dagger() const
{
    Matrix m(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            m(c, r) = std::conj((*this)(r, c));
    return m;
}

Matrix
Matrix::transpose() const
{
    Matrix m(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            m(c, r) = (*this)(r, c);
    return m;
}

Matrix
Matrix::conjugate() const
{
    Matrix m(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        m.data_[i] = std::conj(data_[i]);
    return m;
}

Complex
Matrix::trace() const
{
    assert(isSquare());
    Complex t = 0.0;
    for (std::size_t i = 0; i < rows_; ++i)
        t += (*this)(i, i);
    return t;
}

Complex
Matrix::det() const
{
    assert(isSquare());
    Matrix a(*this);
    const std::size_t n = rows_;
    Complex d = 1.0;
    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivoting on the largest remaining entry in column k.
        std::size_t pivot = k;
        double best = std::abs(a(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            if (std::abs(a(r, k)) > best) {
                best = std::abs(a(r, k));
                pivot = r;
            }
        }
        if (best == 0.0)
            return 0.0;
        if (pivot != k) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(a(k, c), a(pivot, c));
            d = -d;
        }
        d *= a(k, k);
        for (std::size_t r = k + 1; r < n; ++r) {
            const Complex f = a(r, k) / a(k, k);
            for (std::size_t c = k; c < n; ++c)
                a(r, c) -= f * a(k, c);
        }
    }
    return d;
}

double
Matrix::frobeniusNorm() const
{
    double s = 0.0;
    for (const auto &x : data_)
        s += std::norm(x);
    return std::sqrt(s);
}

double
Matrix::maxAbs() const
{
    double m = 0.0;
    for (const auto &x : data_)
        m = std::max(m, std::abs(x));
    return m;
}

Matrix
Matrix::block(std::size_t row0, std::size_t row1,
              std::size_t col0, std::size_t col1) const
{
    assert(row0 <= row1 && row1 <= rows_);
    assert(col0 <= col1 && col1 <= cols_);
    Matrix m(row1 - row0, col1 - col0);
    for (std::size_t r = row0; r < row1; ++r)
        for (std::size_t c = col0; c < col1; ++c)
            m(r - row0, c - col0) = (*this)(r, c);
    return m;
}

void
Matrix::setBlock(std::size_t row0, std::size_t col0, const Matrix &b)
{
    assert(row0 + b.rows() <= rows_ && col0 + b.cols() <= cols_);
    for (std::size_t r = 0; r < b.rows(); ++r)
        for (std::size_t c = 0; c < b.cols(); ++c)
            (*this)(row0 + r, col0 + c) = b(r, c);
}

CVector
Matrix::col(std::size_t c) const
{
    assert(c < cols_);
    CVector v(rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        v[r] = (*this)(r, c);
    return v;
}

void
Matrix::setCol(std::size_t c, const CVector &v)
{
    assert(c < cols_ && v.size() == rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        (*this)(r, c) = v[r];
}

void
Matrix::scaleCol(std::size_t c, Complex s)
{
    assert(c < cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        (*this)(r, c) *= s;
}

void
Matrix::swapCols(std::size_t a, std::size_t b)
{
    assert(a < cols_ && b < cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        std::swap((*this)(r, a), (*this)(r, b));
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream out;
    out.precision(precision);
    for (std::size_t r = 0; r < rows_; ++r) {
        out << "[ ";
        for (std::size_t c = 0; c < cols_; ++c) {
            const Complex x = (*this)(r, c);
            out << x.real() << (x.imag() >= 0 ? "+" : "-")
                << std::abs(x.imag()) << "i ";
        }
        out << "]\n";
    }
    return out.str();
}

Matrix
operator+(Matrix a, const Matrix &b)
{
    a += b;
    return a;
}

Matrix
operator-(Matrix a, const Matrix &b)
{
    a -= b;
    return a;
}

Matrix
operator*(const Matrix &a, const Matrix &b)
{
    assert(a.cols() == b.rows());
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const Complex aik = a(i, k);
            if (aik == Complex{0.0, 0.0})
                continue;
            for (std::size_t j = 0; j < b.cols(); ++j)
                c(i, j) += aik * b(k, j);
        }
    }
    return c;
}

Matrix
operator*(Complex s, Matrix a)
{
    a *= s;
    return a;
}

Matrix
operator*(Matrix a, Complex s)
{
    a *= s;
    return a;
}

Matrix
operator*(double s, Matrix a)
{
    a *= Complex{s, 0.0};
    return a;
}

CVector
operator*(const Matrix &a, const CVector &v)
{
    assert(a.cols() == v.size());
    CVector out(a.rows(), Complex{0.0, 0.0});
    for (std::size_t r = 0; r < a.rows(); ++r) {
        Complex s = 0.0;
        for (std::size_t c = 0; c < a.cols(); ++c)
            s += a(r, c) * v[c];
        out[r] = s;
    }
    return out;
}

Matrix
kron(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows() * b.rows(), a.cols() * b.cols());
    for (std::size_t ar = 0; ar < a.rows(); ++ar)
        for (std::size_t ac = 0; ac < a.cols(); ++ac) {
            const Complex f = a(ar, ac);
            if (f == Complex{0.0, 0.0})
                continue;
            for (std::size_t br = 0; br < b.rows(); ++br)
                for (std::size_t bc = 0; bc < b.cols(); ++bc)
                    c(ar * b.rows() + br, ac * b.cols() + bc) = f * b(br, bc);
        }
    return c;
}

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    assert(a.rows() == b.rows() && a.cols() == b.cols());
    double m = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c) {
            const double d = std::abs(a(r, c) - b(r, c));
            // std::max would drop a NaN; +inf fails both `<= tol` and
            // passes `> tol`, whichever way the caller asks.
            if (std::isnan(d))
                return std::numeric_limits<double>::infinity();
            m = std::max(m, d);
        }
    return m;
}

bool
approxEqual(const Matrix &a, const Matrix &b, double tol)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    return maxAbsDiff(a, b) <= tol;
}

bool
isUnitary(const Matrix &u, double tol)
{
    if (!u.isSquare())
        return false;
    return approxEqual(u.dagger() * u, Matrix::identity(u.rows()), tol);
}

bool
isHermitian(const Matrix &a, double tol)
{
    if (!a.isSquare())
        return false;
    return approxEqual(a, a.dagger(), tol);
}

Complex
dot(const CVector &a, const CVector &b)
{
    assert(a.size() == b.size());
    Complex s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += std::conj(a[i]) * b[i];
    return s;
}

double
norm(const CVector &v)
{
    double s = 0.0;
    for (const auto &x : v)
        s += std::norm(x);
    return std::sqrt(s);
}

} // namespace linalg
} // namespace crisc
