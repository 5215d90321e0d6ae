/**
 * @file
 * Stochastic Pauli (depolarizing) noise for trajectory simulation,
 * matching the error model of the paper's quantum-volume study
 * (Sec. 6.3): every native gate suffers depolarizing noise whose rate
 * is proportional to its gate time.
 */

#ifndef CRISC_CIRCUIT_NOISE_HH
#define CRISC_CIRCUIT_NOISE_HH

#include "circuit.hh"
#include "linalg/random.hh"
#include "sim/batch_state.hh"

namespace crisc {
namespace circuit {

/**
 * One shot of k-qubit depolarizing noise on a statevector: with
 * probability p a uniformly random non-identity k-qubit Pauli is
 * applied — the standard stochastic unravelling of the depolarizing
 * channel with error parameter p.
 *
 * All overloads validate the channel before drawing from @p rng: p
 * outside [0, 1] (including NaN) and duplicate qubits throw
 * std::invalid_argument — either would silently produce a map that is
 * not a depolarizing channel — and so does a qubit outside the
 * register, which the Pauli kernels would address out of bounds.
 */
void applyDepolarizing(State &state, const std::vector<std::size_t> &qubits,
                       double p, linalg::Rng &rng);

/**
 * Raw-statevector form used by the trajectory batch runner: identical
 * sampling, with the Pauli applied through the specialized 1-qubit
 * kernel (sim::applyPauli) instead of a dense 2x2 multiply.
 */
void applyDepolarizing(Complex *amps, std::size_t n_qubits,
                       const std::vector<std::size_t> &qubits, double p,
                       linalg::Rng &rng);

/**
 * 1-qubit fast path on lane @p lane of @p state: no container
 * allocation in the hot loop. Draws exactly the same random sequence
 * from @p rng on every layout and applies the sampled Pauli to that
 * lane only — sim::applyPauli on an interleaved statevector,
 * sim::applyPauliLane on a SoA batch — so each lane stays bit-identical
 * to its serial trajectory.
 * @throws std::invalid_argument additionally when lane >= lanes().
 */
void applyDepolarizing(sim::StateView state, std::size_t lane,
                       std::size_t qubit, double p, linalg::Rng &rng);

/** 2-qubit fast path on lane @p lane of @p state. */
void applyDepolarizing(sim::StateView state, std::size_t lane,
                       std::size_t qubit_a, std::size_t qubit_b, double p,
                       linalg::Rng &rng);

/** The 1-qubit fast path on one interleaved statevector (lane 0). */
inline void
applyDepolarizing(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                  double p, linalg::Rng &rng)
{
    applyDepolarizing(sim::StateView(amps, n_qubits), 0, qubit, p, rng);
}

/** The 2-qubit fast path on one interleaved statevector (lane 0). */
inline void
applyDepolarizing(Complex *amps, std::size_t n_qubits, std::size_t qubit_a,
                  std::size_t qubit_b, double p, linalg::Rng &rng)
{
    applyDepolarizing(sim::StateView(amps, n_qubits), 0, qubit_a, qubit_b,
                      p, rng);
}

/** The single-qubit Pauli with index 0..3 = I, X, Y, Z. */
const Matrix &pauliByIndex(std::size_t idx);

} // namespace circuit
} // namespace crisc

#endif // CRISC_CIRCUIT_NOISE_HH
