#include "kernels.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/dispatch.hh"
#include "sim/kernels_util.hh"

// Backend-independent kernel code: the scalar kernels — the scalar
// backend's KernelTable and the reference every other table is tested
// against — and the kernels no table carries: the dense k >= 3
// fallback and the Pauli noise kernels, one definition per layout each.
// The AVX2 gate kernels live in kernels_avx2.cc.

namespace crisc {
namespace sim {

using detail::insertZeroBit;
using detail::Interleaved;
using detail::laneAmp;
using detail::noVectors;
using detail::setLane;
using detail::Split;

// ---------------------------------------------------------------------
// Scalar kernels: the scalar backend's KernelTable and the reference the
// SIMD kernels (kernels_avx2.cc) must match bit for bit on finite
// amplitudes; test_simd, test_sim, test_batch and the engine oracle pin
// the equivalence for every compiled table. Each is the shared gate
// sweep of kernels_util.hh with no vector loop: every element of every
// run takes the per-element step.
// ---------------------------------------------------------------------

namespace scalar {

void
apply1qRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
             const Complex m[4], std::size_t pair_begin,
             std::size_t pair_end)
{
    detail::sweep1q(Interleaved{amps}, n_qubits, qubit, m, pair_begin,
                    pair_end, noVectors);
}

void
apply1qDiagRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                 Complex d0, Complex d1, std::size_t pair_begin,
                 std::size_t pair_end)
{
    detail::sweep1qDiag(Interleaved{amps}, n_qubits, qubit, d0, d1,
                        pair_begin, pair_end, noVectors);
}

void
apply2qRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
             std::size_t q_lo, const Complex m[16],
             std::size_t quad_begin, std::size_t quad_end)
{
    detail::sweep2q(Interleaved{amps}, n_qubits, q_hi, q_lo, m, quad_begin,
                    quad_end, noVectors);
}

void
apply2qDiagRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
                 std::size_t q_lo, const Complex d[4],
                 std::size_t quad_begin, std::size_t quad_end)
{
    detail::sweep2qDiag(Interleaved{amps}, n_qubits, q_hi, q_lo, d,
                        quad_begin, quad_end, noVectors);
}

void
apply1qBatchRange(double *re, double *im, std::size_t n_qubits,
                  std::size_t batch, std::size_t qubit, const Complex m[4],
                  std::size_t pair_begin, std::size_t pair_end)
{
    detail::sweep1q(Split{re, im, batch}, n_qubits, qubit, m, pair_begin,
                    pair_end, noVectors);
}

void
apply1qDiagBatchRange(double *re, double *im, std::size_t n_qubits,
                      std::size_t batch, std::size_t qubit, Complex d0,
                      Complex d1, std::size_t pair_begin,
                      std::size_t pair_end)
{
    detail::sweep1qDiag(Split{re, im, batch}, n_qubits, qubit, d0, d1,
                        pair_begin, pair_end, noVectors);
}

void
apply2qBatchRange(double *re, double *im, std::size_t n_qubits,
                  std::size_t batch, std::size_t q_hi, std::size_t q_lo,
                  const Complex m[16], std::size_t quad_begin,
                  std::size_t quad_end)
{
    detail::sweep2q(Split{re, im, batch}, n_qubits, q_hi, q_lo, m,
                    quad_begin, quad_end, noVectors);
}

void
apply2qDiagBatchRange(double *re, double *im, std::size_t n_qubits,
                      std::size_t batch, std::size_t q_hi,
                      std::size_t q_lo, const Complex d[4],
                      std::size_t quad_begin, std::size_t quad_end)
{
    detail::sweep2qDiag(Split{re, im, batch}, n_qubits, q_hi, q_lo, d,
                        quad_begin, quad_end, noVectors);
}

} // namespace scalar

namespace detail {

const KernelTable &
scalarKernelTable()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.backend = Backend::Scalar;
        t.name = backendName(Backend::Scalar);
        t.lanes = 1;
        t.apply1qRange = &scalar::apply1qRange;
        t.apply1qDiagRange = &scalar::apply1qDiagRange;
        t.apply2qRange = &scalar::apply2qRange;
        t.apply2qDiagRange = &scalar::apply2qDiagRange;
        t.apply1qBatchRange = &scalar::apply1qBatchRange;
        t.apply1qDiagBatchRange = &scalar::apply1qDiagBatchRange;
        t.apply2qBatchRange = &scalar::apply2qBatchRange;
        t.apply2qDiagBatchRange = &scalar::apply2qDiagBatchRange;
        return t;
    }();
    return table;
}

} // namespace detail

// ---------------------------------------------------------------------
// Kernels with no SIMD body. Each has exactly one definition per
// layout, called directly on every backend rather than through a
// KernelTable: the Pauli noise kernels (pure swap/negate traffic, and
// only about one noise draw in a hundred applies one at the Figure-7
// rates) and the dense k >= 3 fallback (gather/scatter dominated).
// Negation is the sign-bit flip of unary minus, so a Pauli leaves the
// same signed zeros whichever backend the process resolved.
// ---------------------------------------------------------------------

namespace {

/** Where a dense op's qubits sit in a basis index. */
struct DenseLayout
{
    std::vector<std::size_t> pos;    ///< index bit per gate qubit, in order.
    std::vector<std::size_t> sorted; ///< the same bits, ascending.

    DenseLayout(std::size_t n_qubits, const std::vector<std::size_t> &qubits)
        : pos(qubits.size())
    {
        for (std::size_t b = 0; b < qubits.size(); ++b)
            pos[b] = n_qubits - 1 - qubits[b];
        sorted = pos;
        std::sort(sorted.begin(), sorted.end());
    }

    /**
     * Fills @p idx with the 2^k basis indices of group @p grp in the
     * operator's row order. Expanding the group counter through
     * ascending bit positions yields the group's all-zeros base; bases
     * ascend with the counter.
     */
    void addresses(std::size_t grp, std::vector<std::size_t> &idx) const
    {
        std::size_t base = grp;
        for (std::size_t p : sorted)
            base = insertZeroBit(base, p);
        const std::size_t k = pos.size();
        for (std::size_t g = 0; g < idx.size(); ++g) {
            std::size_t address = base;
            for (std::size_t b = 0; b < k; ++b)
                if ((g >> (k - 1 - b)) & 1)
                    address |= std::size_t{1} << pos[b];
            idx[g] = address;
        }
    }
};

/** out = op * in over one group; each row sums 0 + term, column order. */
void
multiplyGroup(const Matrix &op, const std::vector<Complex> &in,
              std::vector<Complex> &out)
{
    for (std::size_t r = 0; r < in.size(); ++r) {
        Complex s = 0.0;
        for (std::size_t c = 0; c < in.size(); ++c)
            s += op(r, c) * in[c];
        out[r] = s;
    }
}

} // namespace

void
applyDenseRange(Complex *amps, std::size_t n_qubits, const Matrix &op,
                const std::vector<std::size_t> &qubits,
                std::size_t group_begin, std::size_t group_end)
{
    const DenseLayout layout(n_qubits, qubits);
    const std::size_t gdim = std::size_t{1} << qubits.size();
    std::vector<Complex> in(gdim), out(gdim);
    std::vector<std::size_t> idx(gdim);
    for (std::size_t grp = group_begin; grp < group_end; ++grp) {
        layout.addresses(grp, idx);
        for (std::size_t g = 0; g < gdim; ++g)
            in[g] = amps[idx[g]];
        multiplyGroup(op, in, out);
        for (std::size_t g = 0; g < gdim; ++g)
            amps[idx[g]] = out[g];
    }
}

void
applyDenseBatchRange(double *re, double *im, std::size_t n_qubits,
                     std::size_t batch, const Matrix &op,
                     const std::vector<std::size_t> &qubits,
                     std::size_t group_begin, std::size_t group_end)
{
    const DenseLayout layout(n_qubits, qubits);
    const std::size_t gdim = std::size_t{1} << qubits.size();
    std::vector<Complex> in(gdim), out(gdim);
    std::vector<std::size_t> idx(gdim);
    for (std::size_t grp = group_begin; grp < group_end; ++grp) {
        layout.addresses(grp, idx);
        for (std::size_t t = 0; t < batch; ++t) {
            for (std::size_t g = 0; g < gdim; ++g)
                in[g] = laneAmp(re, im, idx[g] * batch + t);
            multiplyGroup(op, in, out);
            for (std::size_t g = 0; g < gdim; ++g)
                setLane(re, im, idx[g] * batch + t, out[g]);
        }
    }
}

void
applyPauli(Complex *amps, std::size_t n_qubits, std::size_t qubit,
           std::size_t pauli_index)
{
    const std::size_t dim = std::size_t{1} << n_qubits;
    const std::size_t stride = std::size_t{1} << (n_qubits - 1 - qubit);
    switch (pauli_index) {
      case 1: // X: swap the pair.
        for (std::size_t base = 0; base < dim; base += 2 * stride)
            for (std::size_t i = base; i < base + stride; ++i)
                std::swap(amps[i], amps[i + stride]);
        return;
      case 2: // Y = [[0, -i], [i, 0]].
        for (std::size_t base = 0; base < dim; base += 2 * stride) {
            for (std::size_t i = base; i < base + stride; ++i) {
                const Complex a0 = amps[i];
                const Complex a1 = amps[i + stride];
                amps[i] = Complex{a1.imag(), -a1.real()};          // -i a1
                amps[i + stride] = Complex{-a0.imag(), a0.real()}; //  i a0
            }
        }
        return;
      case 3: // Z: negate the |1> half of each pair.
        for (std::size_t base = 0; base < dim; base += 2 * stride)
            for (std::size_t i = base; i < base + stride; ++i)
                amps[i + stride] = -amps[i + stride];
        return;
      default:
        throw std::invalid_argument("applyPauli: index must be 1..3");
    }
}

void
applyPauliLane(double *re, double *im, std::size_t n_qubits,
               std::size_t batch, std::size_t lane, std::size_t qubit,
               std::size_t pauli_index)
{
    const std::size_t pairs = (std::size_t{1} << n_qubits) >> 1;
    const std::size_t pos = n_qubits - 1 - qubit;
    const std::size_t stride = (std::size_t{1} << pos) * batch;
    switch (pauli_index) {
      case 1:
        for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t o0 = insertZeroBit(p, pos) * batch + lane;
            const std::size_t o1 = o0 + stride;
            std::swap(re[o0], re[o1]);
            std::swap(im[o0], im[o1]);
        }
        return;
      case 2:
        for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t o0 = insertZeroBit(p, pos) * batch + lane;
            const std::size_t o1 = o0 + stride;
            const double a0r = re[o0], a0i = im[o0];
            const double a1r = re[o1], a1i = im[o1];
            re[o0] = a1i;
            im[o0] = -a1r;
            re[o1] = -a0i;
            im[o1] = a0r;
        }
        return;
      case 3:
        for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t o1 =
                insertZeroBit(p, pos) * batch + lane + stride;
            re[o1] = -re[o1];
            im[o1] = -im[o1];
        }
        return;
      default:
        throw std::invalid_argument(
            "applyPauliLane: index must be 1..3");
    }
}

} // namespace sim
} // namespace crisc
