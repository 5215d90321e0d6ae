#include "circuit.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "qop/gates.hh"
#include "sim/batch_state.hh"
#include "sim/engine.hh"

namespace crisc {
namespace circuit {

namespace {

/** Throws std::invalid_argument, prefixed with @p fn, unless @p op is
 *  2^k x 2^k for k distinct in-range @p qubits of an n-qubit register. */
void
checkOperands(const char *fn, const Matrix &op,
              const std::vector<std::size_t> &qubits, std::size_t n)
{
    const std::size_t dim = std::size_t{1} << qubits.size();
    if (op.rows() != dim || op.cols() != dim)
        throw std::invalid_argument(std::string(fn) +
                                    ": operator size mismatch");
    for (auto q = qubits.begin(); q != qubits.end(); ++q) {
        if (*q >= n)
            throw std::invalid_argument(std::string(fn) +
                                        ": qubit out of range");
        if (std::find(qubits.begin(), q, *q) != q)
            throw std::invalid_argument(std::string(fn) +
                                        ": repeated qubit " +
                                        std::to_string(*q));
    }
}

} // namespace

void
Circuit::add(Matrix op, std::vector<std::size_t> qubits, std::string label)
{
    checkOperands("Circuit::add", op, qubits, nQubits_);
    gates_.push_back({std::move(op), std::move(qubits), std::move(label)});
}

void
Circuit::append(const Circuit &other)
{
    if (other.numQubits() != nQubits_)
        throw std::invalid_argument("Circuit::append: register mismatch");
    for (const Gate &g : other.gates())
        gates_.push_back(g);
}

std::size_t
Circuit::twoQubitCount() const
{
    std::size_t n = 0;
    for (const Gate &g : gates_)
        if (g.qubits.size() >= 2)
            ++n;
    return n;
}

std::size_t
Circuit::depth() const
{
    std::vector<std::size_t> level(nQubits_, 0);
    std::size_t deepest = 0;
    for (const Gate &g : gates_) {
        std::size_t d = 0;
        for (std::size_t q : g.qubits)
            d = std::max(d, level[q]);
        ++d;
        for (std::size_t q : g.qubits)
            level[q] = d;
        deepest = std::max(deepest, d);
    }
    return deepest;
}

Matrix
Circuit::toUnitary() const
{
    const std::size_t dim = std::size_t{1} << nQubits_;
    Matrix u = Matrix::identity(dim);
    for (const Gate &g : gates_)
        u = qop::embed(g.op, g.qubits, nQubits_) * u;
    return u;
}

State::State(std::size_t num_qubits)
    : nQubits_(num_qubits),
      // Checked before the shift and the allocation (throws
      // std::length_error when 2^n amplitudes cannot be held).
      amps_((sim::checkStateFits(num_qubits, 1),
             std::size_t{1} << num_qubits),
            Complex{0.0, 0.0})
{
    amps_[0] = 1.0;
}

void
State::apply(const Matrix &op, const std::vector<std::size_t> &qubits)
{
    checkOperands("State::apply", op, qubits, nQubits_);
    // Operands checked above, so the unchecked range form over the
    // whole sweep: the lowered op addresses this register.
    const sim::KernelOp k = sim::lowerGate(op, qubits);
    sim::executeOpRange(k, sim::StateView(amps_.data(), nQubits_), 0,
                        sim::opGroupCount(k, nQubits_));
}

void
State::run(const Circuit &c)
{
    if (c.numQubits() != nQubits_)
        throw std::invalid_argument("State::run: register mismatch");
    for (const Gate &g : c.gates())
        apply(g.op, g.qubits);
}

double
State::probability(std::size_t index) const
{
    return std::norm(amps_.at(index));
}

std::vector<double>
State::probabilities() const
{
    std::vector<double> p(amps_.size());
    for (std::size_t i = 0; i < amps_.size(); ++i)
        p[i] = std::norm(amps_[i]);
    return p;
}

double
State::fidelityWith(const State &other) const
{
    return std::norm(linalg::dot(other.amps_, amps_));
}

} // namespace circuit
} // namespace crisc
