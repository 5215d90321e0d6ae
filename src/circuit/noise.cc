#include "noise.hh"

#include <stdexcept>

#include "qop/gates.hh"
#include "sim/kernels.hh"

namespace crisc {
namespace circuit {

const Matrix &
pauliByIndex(std::size_t idx)
{
    switch (idx) {
      case 0:
        return qop::pauliI();
      case 1:
        return qop::pauliX();
      case 2:
        return qop::pauliY();
      case 3:
        return qop::pauliZ();
      default:
        throw std::invalid_argument("pauliByIndex: index out of range");
    }
}

namespace {

/** Rejects error parameters outside [0, 1]; NaN fails the negated
 *  in-range test and is rejected too. */
void
validateErrorParameter(double p)
{
    if (!(p >= 0.0 && p <= 1.0))
        throw std::invalid_argument(
            "applyDepolarizing: error parameter must lie in [0, 1]");
}

/** Rejects a qubit index outside the register; the Pauli kernels do no
 *  bounds check of their own. */
void
validateQubit(std::size_t qubit, std::size_t n_qubits)
{
    if (qubit >= n_qubits)
        throw std::invalid_argument("applyDepolarizing: qubit out of range");
}

} // namespace

void
applyDepolarizing(Complex *amps, std::size_t n_qubits,
                  const std::vector<std::size_t> &qubits, double p,
                  linalg::Rng &rng)
{
    validateErrorParameter(p);
    for (std::size_t q : qubits)
        validateQubit(q, n_qubits);
    for (std::size_t i = 0; i < qubits.size(); ++i)
        for (std::size_t j = i + 1; j < qubits.size(); ++j)
            if (qubits[i] == qubits[j])
                throw std::invalid_argument(
                    "applyDepolarizing: duplicate qubit in Pauli string");
    if (p <= 0.0)
        return;
    if (rng.uniform() >= p)
        return;
    const std::size_t k = qubits.size();
    const std::size_t nPaulis = (std::size_t{1} << (2 * k)) - 1;
    // Uniform non-identity Pauli string, encoded base 4.
    const std::size_t pick = 1 + rng.index(nPaulis);
    std::size_t code = pick;
    for (std::size_t b = 0; b < k; ++b) {
        const std::size_t single = code % 4;
        code /= 4;
        if (single != 0)
            sim::applyPauli(amps, n_qubits, qubits[b], single);
    }
}

namespace {

/** Applies Pauli @p pauli_index to lane @p lane of @p state. */
void
applyPauliOnLane(sim::StateView state, std::size_t lane, std::size_t qubit,
                 std::size_t pauli_index)
{
    if (state.interleaved())
        sim::applyPauli(state.amps(), state.numQubits(), qubit,
                        pauli_index);
    else
        sim::applyPauliLane(state.re(), state.im(), state.numQubits(),
                            state.lanes(), lane, qubit, pauli_index);
}

} // namespace

void
applyDepolarizing(sim::StateView state, std::size_t lane, std::size_t qubit,
                  double p, linalg::Rng &rng)
{
    validateErrorParameter(p);
    if (lane >= state.lanes())
        throw std::invalid_argument("applyDepolarizing: lane out of range");
    validateQubit(qubit, state.numQubits());
    if (p <= 0.0)
        return;
    if (rng.uniform() >= p)
        return;
    applyPauliOnLane(state, lane, qubit, 1 + rng.index(3));
}

void
applyDepolarizing(sim::StateView state, std::size_t lane,
                  std::size_t qubit_a, std::size_t qubit_b, double p,
                  linalg::Rng &rng)
{
    validateErrorParameter(p);
    if (lane >= state.lanes())
        throw std::invalid_argument("applyDepolarizing: lane out of range");
    validateQubit(qubit_a, state.numQubits());
    validateQubit(qubit_b, state.numQubits());
    if (qubit_a == qubit_b)
        throw std::invalid_argument(
            "applyDepolarizing: duplicate qubit in Pauli string");
    if (p <= 0.0)
        return;
    if (rng.uniform() >= p)
        return;
    const std::size_t pick = 1 + rng.index(15);
    // Base-4 Pauli string, least significant digit on qubit_a (the
    // same encoding the vector overload uses for {a, b}).
    const std::size_t onA = pick % 4;
    const std::size_t onB = pick / 4;
    if (onA != 0)
        applyPauliOnLane(state, lane, qubit_a, onA);
    if (onB != 0)
        applyPauliOnLane(state, lane, qubit_b, onB);
}

void
applyDepolarizing(State &state, const std::vector<std::size_t> &qubits,
                  double p, linalg::Rng &rng)
{
    applyDepolarizing(state.data(), state.numQubits(), qubits, p, rng);
}

} // namespace circuit
} // namespace crisc
