#include "gates.hh"

#include <cmath>
#include <stdexcept>

namespace crisc {
namespace qop {

using linalg::kI;
using linalg::kron;

namespace {

const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

} // namespace

const Matrix &
pauliI()
{
    static const Matrix m{{1, 0}, {0, 1}};
    return m;
}

const Matrix &
pauliX()
{
    static const Matrix m{{0, 1}, {1, 0}};
    return m;
}

const Matrix &
pauliY()
{
    static const Matrix m{{0, -kI}, {kI, 0}};
    return m;
}

const Matrix &
pauliZ()
{
    static const Matrix m{{1, 0}, {0, -1}};
    return m;
}

const Matrix &
pauliXX()
{
    static const Matrix m = kron(pauliX(), pauliX());
    return m;
}

const Matrix &
pauliYY()
{
    static const Matrix m = kron(pauliY(), pauliY());
    return m;
}

const Matrix &
pauliZZ()
{
    static const Matrix m = kron(pauliZ(), pauliZ());
    return m;
}

const Matrix &
hadamard()
{
    static const Matrix m{{kInvSqrt2, kInvSqrt2}, {kInvSqrt2, -kInvSqrt2}};
    return m;
}

const Matrix &
sGate()
{
    static const Matrix m{{1, 0}, {0, kI}};
    return m;
}

Matrix
rx(double theta)
{
    const double c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
    return Matrix{{c, -kI * s}, {-kI * s, c}};
}

Matrix
ry(double theta)
{
    const double c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
    return Matrix{{c, -s}, {s, c}};
}

Matrix
rz(double theta)
{
    return Matrix{{std::polar(1.0, -theta / 2.0), 0},
                  {0, std::polar(1.0, theta / 2.0)}};
}

const Matrix &
cnot()
{
    static const Matrix m{
        {1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
    return m;
}

const Matrix &
cz()
{
    static const Matrix m{
        {1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, -1}};
    return m;
}

const Matrix &
swapGate()
{
    static const Matrix m{
        {1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}};
    return m;
}

const Matrix &
iswap()
{
    static const Matrix m{
        {1, 0, 0, 0}, {0, 0, kI, 0}, {0, kI, 0, 0}, {0, 0, 0, 1}};
    return m;
}

const Matrix &
sqisw()
{
    static const Matrix m{{1, 0, 0, 0},
                          {0, kInvSqrt2, kI * kInvSqrt2, 0},
                          {0, kI * kInvSqrt2, kInvSqrt2, 0},
                          {0, 0, 0, 1}};
    return m;
}

const Matrix &
bGate()
{
    // Representative of the B-gate local equivalence class
    // (pi/4, pi/8, 0); any member of the class works for our purposes.
    static const Matrix m = canonicalGate(M_PI / 4.0, M_PI / 8.0, 0.0);
    return m;
}

const Matrix &
msGate()
{
    static const Matrix m{{kInvSqrt2, 0, 0, -kI * kInvSqrt2},
                          {0, kInvSqrt2, -kI * kInvSqrt2, 0},
                          {0, -kI * kInvSqrt2, kInvSqrt2, 0},
                          {-kI * kInvSqrt2, 0, 0, kInvSqrt2}};
    return m;
}

Matrix
canonicalGate(double x, double y, double z)
{
    // XX, YY and ZZ commute, so exp(i(x XX + y YY + z ZZ)) splits into
    // two blocks: e^{iz} exp(i(x-y) X) on {|00>, |11>} and
    // e^{-iz} exp(i(x+y) X) on {|01>, |10>}.
    const Complex ez = std::polar(1.0, z);
    const Complex ezd = std::conj(ez);
    const double cm = std::cos(x - y), sm = std::sin(x - y);
    const double cp = std::cos(x + y), sp = std::sin(x + y);
    Matrix m(4, 4);
    m(0, 0) = m(3, 3) = ez * cm;
    m(0, 3) = m(3, 0) = ez * Complex{0.0, sm};
    m(1, 1) = m(2, 2) = ezd * cp;
    m(1, 2) = m(2, 1) = ezd * Complex{0.0, sp};
    return m;
}

Matrix
embed(const Matrix &gate, const std::vector<std::size_t> &qubits,
      std::size_t n)
{
    const std::size_t k = qubits.size();
    const std::size_t gdim = std::size_t{1} << k;
    if (gate.rows() != gdim || gate.cols() != gdim)
        throw std::invalid_argument("embed: gate size mismatch");
    for (std::size_t b = 0; b < k; ++b) {
        if (qubits[b] >= n)
            throw std::invalid_argument("embed: qubit out of range");
        for (std::size_t c = 0; c < b; ++c)
            if (qubits[c] == qubits[b])
                throw std::invalid_argument("embed: repeated qubit");
    }
    const std::size_t dim = std::size_t{1} << n;
    Matrix out(dim, dim);
    for (std::size_t row = 0; row < dim; ++row) {
        // Gate-local row index from the bits of the addressed qubits.
        std::size_t grow = 0;
        for (std::size_t b = 0; b < k; ++b) {
            const std::size_t bit = (row >> (n - 1 - qubits[b])) & 1;
            grow = (grow << 1) | bit;
        }
        for (std::size_t gcol = 0; gcol < gdim; ++gcol) {
            const Complex amp = gate(grow, gcol);
            if (amp == Complex{0.0, 0.0})
                continue;
            std::size_t colIdx = row;
            for (std::size_t b = 0; b < k; ++b) {
                const std::size_t bit = (gcol >> (k - 1 - b)) & 1;
                const std::size_t pos = n - 1 - qubits[b];
                colIdx = (colIdx & ~(std::size_t{1} << pos)) | (bit << pos);
            }
            out(row, colIdx) = amp;
        }
    }
    return out;
}

} // namespace qop
} // namespace crisc
