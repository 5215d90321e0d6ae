/**
 * @file
 * Three-qubit synthesis with generic two-qubit gates (paper Theorem 12
 * and Appendix B.3): CSD splits the unitary into two single-select
 * multiplexors (five two-qubit gates each via Lemma 14) around a
 * two-select multiplexed Ry; peephole merging of boundary gates brings
 * the generic two-qubit gate count down to the paper's regime.
 */

#ifndef CRISC_SYNTH_THREE_QUBIT_HH
#define CRISC_SYNTH_THREE_QUBIT_HH

#include "circuit/circuit.hh"
#include "linalg/matrix.hh"

namespace crisc {
namespace synth {

using circuit::Circuit;
using linalg::Matrix;

/**
 * Decomposes an arbitrary 8x8 unitary into generic two-qubit gates and
 * single-qubit gates, following the paper's analytic construction.
 *
 * @post result.toUnitary() equals u up to global phase;
 *       result.twoQubitCount() <= 12 (the paper reaches 11 with one
 *       further regrouping step, which is not implemented here).
 */
Circuit threeQubitGeneric(const Matrix &u);

/**
 * Greedy peephole pass: absorbs single-qubit gates into neighbouring
 * two-qubit gates and fuses adjacent two-qubit gates acting on the same
 * pair. Returns a circuit of (mostly) two-qubit gates with identical
 * unitary.
 */
Circuit mergeTwoQubitGates(const Circuit &c);

} // namespace synth
} // namespace crisc

#endif // CRISC_SYNTH_THREE_QUBIT_HH
