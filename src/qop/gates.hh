/**
 * @file
 * Standard quantum operators: Pauli matrices, single-qubit rotations,
 * common one- and two-qubit gates, and embeddings of small gates into
 * n-qubit registers. Qubit 0 is the most significant bit of the basis
 * index (|q0 q1 ... q_{n-1}>), matching the tensor-product order
 * kron(op_on_q0, op_on_q1, ...).
 */

#ifndef CRISC_QOP_GATES_HH
#define CRISC_QOP_GATES_HH

#include <vector>

#include "linalg/matrix.hh"

namespace crisc {
namespace qop {

using linalg::Complex;
using linalg::Matrix;

/** 2x2 identity. */
const Matrix &pauliI();
/** Pauli X. */
const Matrix &pauliX();
/** Pauli Y. */
const Matrix &pauliY();
/** Pauli Z. */
const Matrix &pauliZ();

/** Two-qubit Pauli products XX, YY, ZZ and friends used by the paper. */
const Matrix &pauliXX();
const Matrix &pauliYY();
const Matrix &pauliZZ();

/** Hadamard gate. */
const Matrix &hadamard();
/** Phase gate S = diag(1, i). */
const Matrix &sGate();

/** Rotation exp(-i theta X / 2). */
Matrix rx(double theta);
/** Rotation exp(-i theta Y / 2). */
Matrix ry(double theta);
/** Rotation exp(-i theta Z / 2) = diag(e^{-i theta/2}, e^{i theta/2}). */
Matrix rz(double theta);

/** CNOT with qubit 0 as control (basis order |q0 q1>). */
const Matrix &cnot();
/** Controlled-Z. */
const Matrix &cz();
/** SWAP. */
const Matrix &swapGate();
/** iSWAP. */
const Matrix &iswap();
/** SQiSW = sqrt(iSWAP). */
const Matrix &sqisw();
/** The B gate of Zhang et al., interaction coefficients (pi/4, pi/8, 0). */
const Matrix &bGate();
/** Molmer-Sorensen XX(pi/2) rotation exp(-i pi/4 XX). */
const Matrix &msGate();

/**
 * Canonical two-qubit interaction exp(i (x XX + y YY + z ZZ)); its KAK
 * interaction coefficients are exactly (x, y, z) (up to canonicalization).
 * Built in closed form from its two 2x2 blocks, on {|00>, |11>} and on
 * {|01>, |10>}; the eight entries outside them are exactly zero.
 */
Matrix canonicalGate(double x, double y, double z);

/**
 * Embeds a k-qubit gate acting on the given qubits of an n-qubit
 * register into a full 2^n x 2^n matrix. Used by tests and synthesis;
 * simulators apply gates in place instead.
 *
 * @param gate 2^k x 2^k unitary.
 * @param qubits the register qubits the gate's tensor factors act on,
 *        most-significant gate qubit first.
 * @param n total number of register qubits.
 * @throws std::invalid_argument on a gate size mismatch or an
 *         out-of-range or repeated qubit.
 */
Matrix embed(const Matrix &gate, const std::vector<std::size_t> &qubits,
             std::size_t n);

} // namespace qop
} // namespace crisc

#endif // CRISC_QOP_GATES_HH
