/**
 * @file
 * Quantum Shannon decomposition (Shende-Bullock-Markov): recursive
 * synthesis of an arbitrary n-qubit unitary into CNOTs plus single-qubit
 * gates via CSD and demultiplexing. Provides the CNOT-counted baseline
 * the paper compares against (Sec. 6.2 / Figure 6c).
 */

#ifndef CRISC_SYNTH_QSD_HH
#define CRISC_SYNTH_QSD_HH

#include "circuit/circuit.hh"
#include "linalg/matrix.hh"

namespace crisc {
namespace synth {

using circuit::Circuit;
using linalg::Matrix;

/**
 * Decomposes a 2^n x 2^n unitary into CNOT + single-qubit gates.
 *
 * @post result.toUnitary() equals u up to global phase; the CNOT count
 *       follows the recursion c_n = 4 c_{n-1} + 3 * 2^{n-1}, c_2 <= 3.
 */
Circuit qsd(const Matrix &u);

/** CNOT count of the plain QSD recursion: (9/16) 4^n - (3/2) 2^n. */
std::size_t qsdCnotCount(std::size_t n);

/**
 * Theorem 13 constructively: decomposes a 2^n x 2^n unitary into
 * *generic* two-qubit gates (the AshN instruction set) and single-qubit
 * gates, using the three-qubit generic construction as the recursion
 * base. Emits 4 c_{n-1} + 3*2^{n-1} gates with c_3 = 12 (one above the
 * paper's 11: threeQubitGeneric skips the paper's final regrouping
 * step).
 *
 * @post result.toUnitary() equals u up to global phase.
 */
Circuit genericQsd(const Matrix &u);

/** Generic-gate count of our constructive recursion (c_3 = 12). */
std::size_t genericQsdCount(std::size_t n);

/**
 * CNOT count of the optimized QSD reported by the literature and quoted
 * in the paper: (23/48) 4^n - (3/2) 2^n + 4/3.
 */
std::size_t optimizedQsdCnotCount(std::size_t n);

/** Theoretical CNOT lower bound ceil((4^n - 3n - 1) / 4). */
std::size_t cnotLowerBound(std::size_t n);

/** Generic-SU(4) lower bound ceil((4^n - 3n - 1) / 9). */
std::size_t su4LowerBound(std::size_t n);

/**
 * Generic two-qubit gate count of the paper's Theorem 13 construction:
 * (23/64) 4^n - (3/2) 2^n for n >= 3 (11 gates at n = 3).
 */
std::size_t theorem13Count(std::size_t n);

} // namespace synth
} // namespace crisc

#endif // CRISC_SYNTH_QSD_HH
