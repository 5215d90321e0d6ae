#include "decomp.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace crisc {
namespace linalg {

namespace {

/** Jacobi tangent for tan(2*theta) = 1/tau, the stable small-angle root. */
double
jacobiTangent(double tau)
{
    if (tau == 0.0)
        return 1.0;
    const double sign = tau > 0.0 ? 1.0 : -1.0;
    return sign / (std::abs(tau) + std::sqrt(tau * tau + 1.0));
}

/** Largest absolute off-diagonal element of a square matrix. */
double
offDiagMax(const Matrix &a)
{
    double m = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (r != c)
                m = std::max(m, std::abs(a(r, c)));
    return m;
}

using Real4 = std::array<double, 16>;

/** Largest absolute entry of a row-major real 4x4 matrix. */
double
maxAbs4(const Real4 &a)
{
    double m = 0.0;
    for (const double x : a)
        m = std::max(m, std::abs(x));
    return m;
}

/** Largest absolute off-diagonal entry of a row-major real 4x4 matrix. */
double
offDiagMax4(const Real4 &a)
{
    double m = 0.0;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            if (r != c)
                m = std::max(m, std::abs(a[4 * r + c]));
    return m;
}

Real4
transpose4(const Real4 &a)
{
    Real4 t;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            t[4 * c + r] = a[4 * r + c];
    return t;
}

/** a * b in operator*'s i-k-j order, with its zero skip. */
Real4
mul4(const Real4 &a, const Real4 &b)
{
    Real4 c{};
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 4; ++k) {
            const double aik = a[4 * i + k];
            if (aik == 0.0)
                continue;
            for (int j = 0; j < 4; ++j)
                c[4 * i + j] += aik * b[4 * k + j];
        }
    return c;
}

/** Determinant by Matrix::det's LU with partial pivoting. */
double
det4(Real4 a)
{
    double d = 1.0;
    for (int k = 0; k < 4; ++k) {
        int pivot = k;
        double best = std::abs(a[4 * k + k]);
        for (int r = k + 1; r < 4; ++r) {
            if (std::abs(a[4 * r + k]) > best) {
                best = std::abs(a[4 * r + k]);
                pivot = r;
            }
        }
        if (best == 0.0)
            return 0.0;
        if (pivot != k) {
            for (int c = 0; c < 4; ++c)
                std::swap(a[4 * k + c], a[4 * pivot + c]);
            d = -d;
        }
        d *= a[4 * k + k];
        for (int r = k + 1; r < 4; ++r) {
            const double f = a[4 * r + k] / a[4 * k + k];
            for (int c = k; c < 4; ++c)
                a[4 * r + c] -= f * a[4 * k + c];
        }
    }
    return d;
}

/**
 * Eigenvectors (columns, eigenvalues ascending) of the exactly symmetric
 * real 4x4 @p m: eighHermitian's cyclic Jacobi on real entries, where the
 * rotation phase e^{i phi} of a_pq is just its sign.
 */
Real4
eighSymmetric4(Real4 m)
{
    Real4 v{};
    for (int i = 0; i < 4; ++i)
        v[4 * i + i] = 1.0;

    const double scale = std::max(maxAbs4(m), 1e-300);
    const int max_sweeps = 100;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (offDiagMax4(m) <= 1e-14 * scale)
            break;
        for (int p = 0; p < 3; ++p) {
            for (int q = p + 1; q < 4; ++q) {
                const double apq = m[4 * p + q];
                if (std::abs(apq) <= 1e-16 * scale)
                    continue;
                const double app = m[4 * p + p];
                const double aqq = m[4 * q + q];
                const double tau = (app - aqq) / (2.0 * std::abs(apq));
                const double t = jacobiTangent(tau);
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                const double se = apq > 0.0 ? s : -s;

                // m <- m J with J(p,p)=c, J(p,q)=-se, J(q,p)=se, J(q,q)=c.
                for (int r = 0; r < 4; ++r) {
                    const double mp = m[4 * r + p], mq = m[4 * r + q];
                    m[4 * r + p] = c * mp + se * mq;
                    m[4 * r + q] = -se * mp + c * mq;
                }
                // m <- J^T m.
                for (int cc = 0; cc < 4; ++cc) {
                    const double mp = m[4 * p + cc], mq = m[4 * q + cc];
                    m[4 * p + cc] = c * mp + se * mq;
                    m[4 * q + cc] = -se * mp + c * mq;
                }
                // v <- v J.
                for (int r = 0; r < 4; ++r) {
                    const double vp = v[4 * r + p], vq = v[4 * r + q];
                    v[4 * r + p] = c * vp + se * vq;
                    v[4 * r + q] = -se * vp + c * vq;
                }
            }
        }
    }

    std::array<int, 4> order{0, 1, 2, 3};
    std::sort(order.begin(), order.end(), [&m](int x, int y) {
        return m[4 * x + x] < m[4 * y + y];
    });
    Real4 out;
    for (int r = 0; r < 4; ++r)
        for (int i = 0; i < 4; ++i)
            out[4 * r + i] = v[4 * r + order[i]];
    return out;
}

} // namespace

EigenSystem
eighHermitian(const Matrix &a)
{
    if (!a.isSquare())
        throw std::invalid_argument("eighHermitian: matrix not square");
    const std::size_t n = a.rows();
    // Symmetrize to wash out tiny Hermiticity violations from upstream
    // arithmetic; callers are expected to pass Hermitian input.
    Matrix m = 0.5 * (a + a.dagger());
    Matrix v = Matrix::identity(n);

    const double scale = std::max(m.maxAbs(), 1e-300);
    const int max_sweeps = 100;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        if (offDiagMax(m) <= 1e-14 * scale)
            break;
        for (std::size_t p = 0; p + 1 < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const Complex apq = m(p, q);
                if (std::abs(apq) <= 1e-16 * scale)
                    continue;
                const double phi = std::arg(apq);
                const Complex eip = std::polar(1.0, phi);
                const double app = m(p, p).real();
                const double aqq = m(q, q).real();
                const double tau = (app - aqq) / (2.0 * std::abs(apq));
                const double t = jacobiTangent(tau);
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;

                // m <- m * J with J(p,p)=c, J(p,q)=-s e^{i phi},
                // J(q,p)=s e^{-i phi}, J(q,q)=c.
                for (std::size_t r = 0; r < n; ++r) {
                    const Complex mp = m(r, p), mq = m(r, q);
                    m(r, p) = c * mp + s * std::conj(eip) * mq;
                    m(r, q) = -s * eip * mp + c * mq;
                }
                // m <- J^dagger * m.
                for (std::size_t cc = 0; cc < n; ++cc) {
                    const Complex mp = m(p, cc), mq = m(q, cc);
                    m(p, cc) = c * mp + s * eip * mq;
                    m(q, cc) = -s * std::conj(eip) * mp + c * mq;
                }
                // v <- v * J.
                for (std::size_t r = 0; r < n; ++r) {
                    const Complex vp = v(r, p), vq = v(r, q);
                    v(r, p) = c * vp + s * std::conj(eip) * vq;
                    v(r, q) = -s * eip * vp + c * vq;
                }
            }
        }
    }

    EigenSystem out;
    out.values.resize(n);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> raw(n);
    for (std::size_t i = 0; i < n; ++i)
        raw[i] = m(i, i).real();
    std::sort(order.begin(), order.end(),
              [&raw](std::size_t x, std::size_t y) { return raw[x] < raw[y]; });
    out.vectors = Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        out.values[i] = raw[order[i]];
        out.vectors.setCol(i, v.col(order[i]));
    }
    return out;
}

ComplexEigenSystem
eigNormal(const Matrix &a)
{
    if (!a.isSquare())
        throw std::invalid_argument("eigNormal: matrix not square");
    const std::size_t n = a.rows();
    const Matrix h1 = 0.5 * (a + a.dagger());
    const Matrix h2 = Complex{0.0, -0.5} * (a - a.dagger());
    const double scale = std::max(a.maxAbs(), 1e-300);

    // Generic combinations; deterministic so results are reproducible.
    static const double kMixes[] = {
        0.73764351, 0.31415927, 1.25345678, -0.5831201, 2.2360679, 0.1116789,
    };
    double best_off = 1e300;
    ComplexEigenSystem best;
    for (const double t : kMixes) {
        const EigenSystem es = eighHermitian(h1 + t * h2);
        const Matrix d = es.vectors.dagger() * a * es.vectors;
        const double off = offDiagMax(d);
        if (off < best_off) {
            best_off = off;
            best.vectors = es.vectors;
            best.values.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                best.values[i] = d(i, i);
        }
        if (off <= 1e-11 * scale)
            break;
    }
    if (best_off > 1e-7 * scale)
        throw std::runtime_error("eigNormal: input does not appear normal");
    return best;
}

QRResult
qr(const Matrix &a)
{
    const std::size_t m = a.rows(), n = a.cols();
    if (m < n)
        throw std::invalid_argument("qr: requires rows >= cols");
    Matrix r = a;
    Matrix q = Matrix::identity(m);
    for (std::size_t k = 0; k < n; ++k) {
        // Householder vector for column k below the diagonal.
        double xnorm = 0.0;
        for (std::size_t i = k; i < m; ++i)
            xnorm += std::norm(r(i, k));
        xnorm = std::sqrt(xnorm);
        if (xnorm < 1e-300)
            continue;
        const Complex x0 = r(k, k);
        const Complex phase =
            std::abs(x0) > 0.0 ? x0 / std::abs(x0) : Complex{1.0, 0.0};
        const Complex alpha = -phase * xnorm;
        CVector v(m, Complex{0.0, 0.0});
        for (std::size_t i = k; i < m; ++i)
            v[i] = r(i, k);
        v[k] -= alpha;
        double vnorm = norm(v);
        if (vnorm < 1e-300)
            continue;
        for (auto &x : v)
            x /= vnorm;
        // r <- (I - 2 v v^dagger) r.
        for (std::size_t c = 0; c < n; ++c) {
            Complex w = 0.0;
            for (std::size_t i = k; i < m; ++i)
                w += std::conj(v[i]) * r(i, c);
            w *= 2.0;
            for (std::size_t i = k; i < m; ++i)
                r(i, c) -= w * v[i];
        }
        // q <- q (I - 2 v v^dagger).
        for (std::size_t i = 0; i < m; ++i) {
            Complex w = 0.0;
            for (std::size_t j = k; j < m; ++j)
                w += q(i, j) * v[j];
            w *= 2.0;
            for (std::size_t j = k; j < m; ++j)
                q(i, j) -= w * std::conj(v[j]);
        }
    }
    return {q, r};
}

SVDResult
svd(const Matrix &a)
{
    const std::size_t m = a.rows(), n = a.cols();
    if (m < n)
        throw std::invalid_argument("svd: requires rows >= cols");
    Matrix w = a;
    Matrix v = Matrix::identity(n);
    const double scale = std::max(a.maxAbs(), 1e-300);

    const int max_sweeps = 60;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        bool converged = true;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                Complex cij = 0.0;
                double nii = 0.0, njj = 0.0;
                for (std::size_t r = 0; r < m; ++r) {
                    cij += std::conj(w(r, i)) * w(r, j);
                    nii += std::norm(w(r, i));
                    njj += std::norm(w(r, j));
                }
                const double gamma = std::abs(cij);
                if (gamma <= 1e-15 * std::sqrt(nii * njj) + 1e-30 * scale)
                    continue;
                converged = false;
                // Phase-align column j so the inner product becomes real.
                const Complex eip = cij / gamma;
                w.scaleCol(j, std::conj(eip));
                v.scaleCol(j, std::conj(eip));
                const double tau = (nii - njj) / (2.0 * gamma);
                const double t = jacobiTangent(tau);
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (std::size_t r = 0; r < m; ++r) {
                    const Complex wi = w(r, i), wj = w(r, j);
                    w(r, i) = c * wi + s * wj;
                    w(r, j) = -s * wi + c * wj;
                }
                for (std::size_t r = 0; r < n; ++r) {
                    const Complex vi = v(r, i), vj = v(r, j);
                    v(r, i) = c * vi + s * vj;
                    v(r, j) = -s * vi + c * vj;
                }
            }
        }
        if (converged)
            break;
    }

    // Column norms are the singular values; sort them descending.
    std::vector<double> sig(n);
    for (std::size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (std::size_t r = 0; r < m; ++r)
            s += std::norm(w(r, j));
        sig[j] = std::sqrt(s);
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&sig](std::size_t x, std::size_t y) { return sig[x] > sig[y]; });

    SVDResult out;
    out.singular.resize(n);
    out.v = Matrix(n, n);
    Matrix u(m, m);
    std::size_t filled = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t src = order[j];
        out.singular[j] = sig[src];
        out.v.setCol(j, v.col(src));
        if (sig[src] > 1e-13 * std::max(sig[order[0]], 1e-300)) {
            CVector uc = w.col(src);
            for (auto &x : uc)
                x /= sig[src];
            u.setCol(filled++, uc);
        }
    }
    // Complete U to a full unitary with Gram-Schmidt over the standard
    // basis (handles rank deficiency and m > n).
    for (std::size_t e = 0; e < m && filled < m; ++e) {
        CVector cand(m, Complex{0.0, 0.0});
        cand[e] = 1.0;
        for (std::size_t j = 0; j < filled; ++j) {
            const CVector uj = u.col(j);
            const Complex ov = dot(uj, cand);
            for (std::size_t r = 0; r < m; ++r)
                cand[r] -= ov * uj[r];
        }
        const double nn = norm(cand);
        if (nn < 1e-8)
            continue;
        for (auto &x : cand)
            x /= nn;
        u.setCol(filled++, cand);
    }
    if (filled != m)
        throw std::runtime_error("svd: failed to complete U basis");
    out.u = u;
    return out;
}

std::array<double, 16>
simultaneousDiagonalize(const std::array<double, 16> &a,
                        const std::array<double, 16> &b)
{
    // Exactly symmetric copies, so each combination below is too.
    auto symmetrize = [](const Real4 &x) {
        Real4 r;
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                r[4 * i + j] = 0.5 * (x[4 * i + j] + x[4 * j + i]);
        return r;
    };
    const Real4 ar = symmetrize(a);
    const Real4 br = symmetrize(b);
    const double scale = std::max({maxAbs4(ar), maxAbs4(br), 1e-300});

    static const double kMixes[] = {
        0.61803399, 1.41421356, -0.3331799, 2.71828183, 0.10101010, 5.0,
    };
    double best_off = 1e300;
    Real4 best{};
    for (const double t : kMixes) {
        Real4 mix;
        for (int k = 0; k < 16; ++k)
            mix[k] = ar[k] + t * br[k];
        const Real4 q = eighSymmetric4(mix);
        const Real4 qt = transpose4(q);
        const double off = std::max(offDiagMax4(mul4(mul4(qt, ar), q)),
                                    offDiagMax4(mul4(mul4(qt, br), q)));
        if (off < best_off) {
            best_off = off;
            best = q;
        }
        if (off <= 1e-11 * scale)
            break;
    }
    if (best_off > 1e-7 * scale) {
        throw std::runtime_error(
            "simultaneousDiagonalize: inputs do not commute");
    }
    if (det4(best) < 0.0)
        for (int r = 0; r < 4; ++r)
            best[4 * r + 3] = -best[4 * r + 3];
    return best;
}

Matrix
inverse(const Matrix &a)
{
    if (!a.isSquare())
        throw std::invalid_argument("inverse: matrix not square");
    const std::size_t n = a.rows();
    Matrix w = a;
    Matrix inv = Matrix::identity(n);
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t pivot = k;
        double best = std::abs(w(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            if (std::abs(w(r, k)) > best) {
                best = std::abs(w(r, k));
                pivot = r;
            }
        }
        if (best < 1e-300)
            throw std::runtime_error("inverse: singular matrix");
        if (pivot != k) {
            for (std::size_t c = 0; c < n; ++c) {
                std::swap(w(k, c), w(pivot, c));
                std::swap(inv(k, c), inv(pivot, c));
            }
        }
        const Complex d = w(k, k);
        for (std::size_t c = 0; c < n; ++c) {
            w(k, c) /= d;
            inv(k, c) /= d;
        }
        for (std::size_t r = 0; r < n; ++r) {
            if (r == k)
                continue;
            const Complex f = w(r, k);
            if (f == Complex{0.0, 0.0})
                continue;
            for (std::size_t c = 0; c < n; ++c) {
                w(r, c) -= f * w(k, c);
                inv(r, c) -= f * inv(k, c);
            }
        }
    }
    return inv;
}

} // namespace linalg
} // namespace crisc
