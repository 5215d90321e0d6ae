/**
 * @file
 * Minimal gate-list circuit IR and a dense statevector simulator. This
 * is the substrate for the quantum-volume experiments (Fig. 7), the
 * synthesis verification, and the example applications.
 *
 * Qubit 0 is the most significant bit of a basis index, matching
 * qop::embed and the tensor order kron(q0, q1, ...).
 */

#ifndef CRISC_CIRCUIT_CIRCUIT_HH
#define CRISC_CIRCUIT_CIRCUIT_HH

#include <string>
#include <vector>

#include "linalg/matrix.hh"

namespace crisc {
namespace circuit {

using linalg::Complex;
using linalg::CVector;
using linalg::Matrix;

/** One gate application: a dense unitary on an ordered set of qubits. */
struct Gate
{
    Matrix op;                        ///< 2^k x 2^k unitary.
    std::vector<std::size_t> qubits;  ///< register qubits, msq first.
    std::string label;                ///< for printing/debugging.
};

/** A gate-list circuit on a fixed number of qubits. */
class Circuit
{
  public:
    explicit Circuit(std::size_t num_qubits) : nQubits_(num_qubits) {}

    std::size_t numQubits() const { return nQubits_; }
    const std::vector<Gate> &gates() const { return gates_; }
    std::size_t size() const { return gates_.size(); }

    /** Appends a gate; validates operator size and that the qubit
     *  indices are in range and distinct (std::invalid_argument). */
    void add(Matrix op, std::vector<std::size_t> qubits,
             std::string label = "");

    /** Appends all gates of another circuit on the same register. */
    void append(const Circuit &other);

    /** Number of gates acting on >= 2 qubits. */
    std::size_t twoQubitCount() const;

    /**
     * Circuit depth: length of the longest chain of gates sharing a
     * qubit (gates on disjoint qubits count as parallel). 0 when empty.
     */
    std::size_t depth() const;

    /** Builds the full 2^n x 2^n unitary (for small n; tests/synthesis). */
    Matrix toUnitary() const;

  private:
    std::size_t nQubits_;
    std::vector<Gate> gates_;
};

/**
 * Dense statevector of n qubits, starting in |0...0>. The constructor
 * throws std::length_error when 2^n amplitudes overflow std::size_t or
 * exceed the host's physical memory (sim::checkStateFits).
 */
class State
{
  public:
    explicit State(std::size_t num_qubits);

    std::size_t numQubits() const { return nQubits_; }
    const CVector &amplitudes() const { return amps_; }

    /** Raw amplitude storage, for the sim kernels and noise channels. */
    Complex *data() { return amps_.data(); }
    const Complex *data() const { return amps_.data(); }

    /**
     * Applies a k-qubit gate in place (matrix is 2^k x 2^k). Gates on
     * one or two qubits dispatch to the specialized kernels in
     * sim/kernels.hh; larger gates take the generic dense path.
     * @throws std::invalid_argument on an operator size mismatch or an
     *         out-of-range or repeated qubit.
     */
    void apply(const Matrix &op, const std::vector<std::size_t> &qubits);

    /** Runs a whole circuit. */
    void run(const Circuit &c);

    /** Probability of the computational basis outcome @p index. */
    double probability(std::size_t index) const;

    /** All 2^n outcome probabilities. */
    std::vector<double> probabilities() const;

    /** Squared overlap |<other|this>|^2. */
    double fidelityWith(const State &other) const;

  private:
    std::size_t nQubits_;
    CVector amps_;
};

} // namespace circuit
} // namespace crisc

#endif // CRISC_CIRCUIT_CIRCUIT_HH
