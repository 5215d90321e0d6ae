/**
 * @file
 * Specialized statevector gate kernels. These are the innermost loops of
 * every simulation workload in the library (quantum volume, synthesis
 * verification, the example applications), so they trade the generic
 * k-qubit scatter/gather of the original simulator for dedicated 1- and
 * 2-qubit routines with bit-twiddled strided indexing: amplitude pairs
 * (1q) and quads (2q) are enumerated in ascending memory order with no
 * per-group index buffers, and diagonal gates touch each amplitude once.
 *
 * The 1q, 1q-diagonal, 2q and 2q-diagonal gate kernels are reached
 * through a runtime-dispatched KernelTable of group-range kernels
 * (dispatch.hh; a full sweep is the range [0, groups)), and only the
 * engine's executeOpRange (engine.hh) reads a table entry. Every binary
 * carries the scalar table (the sim::scalar kernels below) and, on
 * x86-64 when the compiler accepts -mavx2, the AVX2 table
 * (kernels_avx2.cc); dispatch.hh picks one per process by CPU probe,
 * or as forced via the CRISC_SIMD_DISPATCH environment variable. Both
 * are the same four run-walking sweeps over both layouts
 * (kernels_util.hh); the AVX2 kernels add split-complex SIMD inner
 * loops over every whole vector of a contiguous run, and a run
 * narrower than a vector takes the scalar per-element step alone.
 * Every SIMD element executes exactly the scalar operation sequence,
 * so every backend produces bit-identical results for finite
 * amplitudes; the tests pin every compiled table against sim::scalar. The kernels with no SIMD
 * body — the dense k >= 3 fallback and the Pauli noise kernels — are
 * declared below with one scalar definition per layout that every
 * backend calls.
 *
 * Every kernel sweep enumerates an independent *group* per iteration —
 * an amplitude pair (1q), quad (2q), or 2^k-tuple (dense) — and groups
 * never share amplitudes, so a sweep partitions freely along the group
 * axis. A range kernel executes one sub-interval [g0, g1) of that group
 * index space with the per-amplitude operation sequence of the whole
 * sweep: any partition of [0, groups) reassembles the sweep bit for
 * bit, which is what the state-parallel execution path in engine.hh
 * relies on (a group is never split across chunks, so no two chunks
 * touch the same amplitude). Cache-blocked plan execution (engine.hh
 * executeBlocked) reuses the same contract: when an op's targets all
 * address index bits below a block exponent b, the groups of one
 * 2^b-amplitude block form the contiguous range
 * [block * 2^(b-k), (block + 1) * 2^(b-k)), so the range kernels serve
 * as the per-block substrate unchanged. The SoA batch-lane kernels
 * (the *BatchRange kernels) partition the same group axis.
 *
 * Conventions match the rest of the library: qubit 0 is the most
 * significant bit of a basis index, and a k-qubit operator's basis is
 * |q[0] q[1] ... q[k-1]> with q[0] the most significant gate qubit.
 * All matrices are row-major. No kernel checks its arguments: an
 * out-of-range or repeated qubit addresses memory out of bounds.
 * sim::Plan and sim::executeOp (engine.hh) are the checked entries.
 */

#ifndef CRISC_SIM_KERNELS_HH
#define CRISC_SIM_KERNELS_HH

#include <cstddef>
#include <vector>

#include "linalg/matrix.hh"

namespace crisc {
namespace sim {

using linalg::Complex;
using linalg::Matrix;

/** Complex lanes per SIMD vector of the resolved backend (4 for AVX2,
 *  1 scalar). */
std::size_t simdLanes();

/**
 * The scalar kernels: the scalar backend's KernelTable entries and the
 * reference every other compiled table must match bit for bit on
 * finite inputs. Interleaved forms take one statevector; the batched
 * forms take the trajectory-major SoA layout (@p batch lanes of each
 * amplitude stored contiguously in split re/im arrays, lane t of
 * amplitude i at re[i * batch + t]; see batch_state.hh) and replay the
 * interleaved operation sequence on every lane, so lane t is
 * bit-identical to the interleaved kernel on statevector t. Each
 * covers the pairs (1q) or quads (2q) [begin, end) of the sweep.
 */
namespace scalar {

/** Applies a 2x2 gate m (row-major m[0..3]) to one qubit in place,
 *  over pairs [pair_begin, pair_end). */
void apply1qRange(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                  const Complex m[4], std::size_t pair_begin,
                  std::size_t pair_end);
/** The diagonal gate diag(d0, d1) over pairs [pair_begin, pair_end). */
void apply1qDiagRange(Complex *amps, std::size_t n_qubits,
                      std::size_t qubit, Complex d0, Complex d1,
                      std::size_t pair_begin, std::size_t pair_end);
/** Applies a 4x4 gate m (row-major m[0..15]) to the ordered pair
 *  (q_hi, q_lo), where q_hi is the most significant gate qubit, over
 *  quads [quad_begin, quad_end). */
void apply2qRange(Complex *amps, std::size_t n_qubits, std::size_t q_hi,
                  std::size_t q_lo, const Complex m[16],
                  std::size_t quad_begin, std::size_t quad_end);
/** The diagonal gate diag(d[0..3]) over quads [quad_begin, quad_end). */
void apply2qDiagRange(Complex *amps, std::size_t n_qubits,
                      std::size_t q_hi, std::size_t q_lo,
                      const Complex d[4], std::size_t quad_begin,
                      std::size_t quad_end);

/** Batched apply1qRange. */
void apply1qBatchRange(double *re, double *im, std::size_t n_qubits,
                       std::size_t batch, std::size_t qubit,
                       const Complex m[4], std::size_t pair_begin,
                       std::size_t pair_end);
/** Batched apply1qDiagRange. */
void apply1qDiagBatchRange(double *re, double *im, std::size_t n_qubits,
                           std::size_t batch, std::size_t qubit, Complex d0,
                           Complex d1, std::size_t pair_begin,
                           std::size_t pair_end);
/** Batched apply2qRange. */
void apply2qBatchRange(double *re, double *im, std::size_t n_qubits,
                       std::size_t batch, std::size_t q_hi,
                       std::size_t q_lo, const Complex m[16],
                       std::size_t quad_begin, std::size_t quad_end);
/** Batched apply2qDiagRange. */
void apply2qDiagBatchRange(double *re, double *im, std::size_t n_qubits,
                           std::size_t batch, std::size_t q_hi,
                           std::size_t q_lo, const Complex d[4],
                           std::size_t quad_begin, std::size_t quad_end);

} // namespace scalar

/**
 * Generic dense k-qubit kernel (the k >= 3 fallback; any k works) over
 * groups [group_begin, group_end) of the 2^(n-k) groups: op (2^k x
 * 2^k, basis |qubits[0] ... qubits[k-1]>) applied to each group's
 * 2^k amplitudes. No SIMD body, so every backend runs this one
 * definition; it is also the dense reference the tests use.
 */
void applyDenseRange(Complex *amps, std::size_t n_qubits, const Matrix &op,
                     const std::vector<std::size_t> &qubits,
                     std::size_t group_begin, std::size_t group_end);

/**
 * The dense kernel on a trajectory-major SoA batch (lane t of amplitude
 * i at re[i * batch + t]; see batch_state.hh): lane t is bit-identical
 * to applyDenseRange on statevector t.
 */
void applyDenseBatchRange(double *re, double *im, std::size_t n_qubits,
                          std::size_t batch, const Matrix &op,
                          const std::vector<std::size_t> &qubits,
                          std::size_t group_begin, std::size_t group_end);

/**
 * Applies the Pauli with index 1..3 = X, Y, Z to one qubit. Pure
 * swap/phase traffic — no complex multiplies — which makes stochastic
 * Pauli noise nearly free next to gate application. One scalar
 * definition on every backend, so the result is the same to the bit
 * (signed zeros included) whichever backend the process resolved.
 * @throws std::invalid_argument on any other index.
 */
void applyPauli(Complex *amps, std::size_t n_qubits, std::size_t qubit,
                std::size_t pauli_index);

/**
 * Applies a Pauli to a single lane of a trajectory-major SoA batch
 * (lane t of amplitude i at re[i * batch + t]; see batch_state.hh) —
 * the divergence point of batched trajectory execution (each lane
 * samples its own noise). Bit-identical to sim::applyPauli on that
 * lane's statevector, on every backend; other lanes are untouched.
 * @throws std::invalid_argument on an index outside 1..3.
 */
void applyPauliLane(double *re, double *im, std::size_t n_qubits,
                    std::size_t batch, std::size_t lane, std::size_t qubit,
                    std::size_t pauli_index);

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_KERNELS_HH
