/**
 * @file
 * Statevector engine: compiles a circuit::Circuit into a plan of
 * specialized gate kernels before execution. Compilation
 *
 *   - fuses runs of adjacent single-qubit gates on the same qubit into
 *     one 2x2 kernel application (a Trotter layer of rz-rx-rz costs one
 *     sweep instead of three),
 *   - folds pending single-qubit products into a following two-qubit
 *     gate on the same qubits as one fused 2q x (1q (x) 1q) 4x4 kernel
 *     operand, so a 1q-dressed entangler costs a single quad sweep,
 *   - detects exactly-diagonal 1q/2q operators and lowers them to the
 *     phase-only kernels, and
 *   - lowers everything of width <= 2 to the strided pair/quad kernels
 *     in kernels.hh, leaving only k >= 3 gates on the generic dense
 *     path.
 *
 * A Plan is immutable after compile() and safe to execute from many
 * threads at once on distinct statevectors, which is what the
 * trajectory batch runner (batch.hh) does.
 *
 * One set of drivers executes plans and ops over a sim::StateView
 * (batch_state.hh): a single interleaved statevector, or every lane of
 * a SoA BatchState at once (SIMD lanes across trajectories). Only
 * executeOpRange branches on the layout; everything above it — chunked
 * sweeps, blocked loop nests, transient pools — is layout-blind.
 *
 * Execution offers a second, orthogonal parallel axis: with
 * ExecOptions (batch.hh), each kernel sweep partitions its amplitude-
 * group index space (pairs / quads / dense tuples — a group, with all
 * its lanes, is never split, so chunks touch disjoint amplitudes) into
 * cache-line-aligned chunks executed on a sim::ThreadPool. Chunked
 * sweeps replay the serial per-amplitude operation sequence exactly, so
 * every layout, lane count and thread count is bit-identical to serial
 * interleaved execution.
 *
 * Plan-level execution additionally supports a cache-blocked mode
 * (executeBlocked; execute() turns it on by the auto policy in
 * sim/cache.hh):
 * the ops are partitioned into maximal *blockable segments* — runs of
 * consecutive ops whose target index bits all lie below a block
 * exponent b (in this library's convention, qubit q addresses index
 * bit n-1-q, so an op is blockable when every target qubit q
 * satisfies n-1-q < b) — and each blockable segment inverts the loop
 * nest: the 2^(n-b) contiguous amplitude blocks of 2^b amplitudes
 * form the outer loop, and *all* of the segment's ops are applied to
 * one block (L2-resident) before the next, instead of one full-
 * register DRAM stream per op. A blockable op never couples
 * amplitudes across a block boundary and every amplitude still sees
 * the segment's ops in plan order with the serial per-amplitude IEEE
 * sequence, so blocked execution is bit-identical to every other
 * backend; blocks are the parallel granule (blocks across pool
 * threads), and the mode composes with SoA-batched lanes.
 */

#ifndef CRISC_SIM_ENGINE_HH
#define CRISC_SIM_ENGINE_HH

#include <array>
#include <cstddef>
#include <vector>

#include "circuit/circuit.hh"
#include "sim/batch.hh"
#include "sim/batch_state.hh"
#include "sim/kernels.hh"

namespace crisc {
namespace sim {

/** Which kernel a compiled operation dispatches to. */
enum class KernelKind
{
    OneQ,     ///< dense 2x2 via apply1qRange.
    OneQDiag, ///< diagonal 2x2 via apply1qDiagRange.
    TwoQ,     ///< dense 4x4 via apply2qRange.
    TwoQDiag, ///< diagonal 4x4 via apply2qDiagRange.
    Dense,    ///< generic k >= 3 gate via applyDenseRange.
};

/** One lowered operation of a compiled plan. */
struct KernelOp
{
    KernelKind kind = KernelKind::OneQ;
    std::size_t q0 = 0; ///< most significant gate qubit.
    std::size_t q1 = 0; ///< second gate qubit (TwoQ / TwoQDiag only).
    /** 1q kernels use m[0..3]; 2q uses m[0..15]; diag kernels use the
     *  leading 2 or 4 entries as the diagonal. */
    std::array<Complex, 16> m{};
    Matrix dense;                     ///< Dense fallback operator.
    std::vector<std::size_t> qubits;  ///< Dense fallback qubit list.
};

/** Compilation statistics, reported by benchmarks and tests. */
struct PlanStats
{
    std::size_t sourceGates = 0; ///< gates in the input circuit.
    std::size_t kernelOps = 0;   ///< operations after lowering.
    std::size_t fusedGates = 0;  ///< 1q gates absorbed into a neighbour.
    std::size_t fusedInto2q = 0; ///< pending 1q products folded into a 4x4.
    std::size_t diagOps = 0;     ///< ops lowered to a diagonal kernel.
    std::size_t denseOps = 0;    ///< ops left on the generic path.
    /** Blockable segments at the plan's auto block exponent
     *  (autoBlockQubits(n), cache.hh) — informational; execution
     *  re-partitions for whatever exponent it resolves. */
    std::size_t blockedSegments = 0;
    /** Ops inside those blockable segments. */
    std::size_t blockableOps = 0;
};

/**
 * One maximal run of consecutive plan ops sharing blockability at a
 * given block exponent (blockSegments). Segments tile the op sequence
 * in order: non-blockable segments execute as full-register sweeps
 * and act as barriers between the blocked loop nests on either side.
 */
struct BlockSegment
{
    std::size_t first = 0;   ///< index of the segment's first op.
    std::size_t count = 0;   ///< ops in the segment.
    bool blockable = false;  ///< all ops confined to 2^b-sized blocks.
};

/** An executable, immutable kernel plan for a fixed register width. */
class Plan
{
  public:
    Plan(std::size_t num_qubits, std::vector<KernelOp> ops,
         PlanStats stats);

    std::size_t numQubits() const { return nQubits_; }
    std::size_t dim() const { return std::size_t{1} << nQubits_; }
    const std::vector<KernelOp> &ops() const { return ops_; }
    const PlanStats &stats() const { return stats_; }

    /**
     * Per-op blocking metadata: entry i is the smallest block exponent
     * at which op i is blockable — one past its highest target index
     * bit, i.e. n - min(target qubits). Op i is confined to contiguous
     * 2^b-amplitude blocks exactly when minBlockBits()[i] <= b.
     */
    const std::vector<std::size_t> &minBlockBits() const
    {
        return minBlockBits_;
    }

  private:
    std::size_t nQubits_;
    std::vector<KernelOp> ops_;
    std::vector<std::size_t> minBlockBits_;
    PlanStats stats_;
};

/**
 * Partitions @p plan's op sequence into maximal segments of uniform
 * blockability at block exponent @p block_qubits (in [1, n]); the
 * segments tile [0, ops) in order. An empty plan yields no segments.
 * @throws std::invalid_argument when block_qubits is 0 or exceeds the
 *         plan width.
 */
std::vector<BlockSegment> blockSegments(const Plan &plan,
                                        std::size_t block_qubits);

/**
 * Compiles a circuit into a kernel plan. Adjacent 1q gates on a qubit
 * merge into one 2x2, and pending 1q products fold into a following 2q
 * gate on the same qubits, so the quad kernel applies
 * m2q * (u_hi (x) u_lo) in one sweep. circuit::State::run is the
 * unfused gate-by-gate reference.
 */
Plan compile(const circuit::Circuit &c);

/** Amplitude groups in @p op's sweep on an n-qubit register. */
std::size_t opGroupCount(const KernelOp &op, std::size_t n_qubits);

/**
 * Executes groups [group_begin, group_end) of one operation's sweep
 * (pairs for 1q, quads for 2q, 2^k-tuples for dense) on every lane of
 * @p state — the one place the engine branches on the state layout,
 * and the parallel substrate the drivers below partition.
 */
void executeOpRange(const KernelOp &op, StateView state,
                    std::size_t group_begin, std::size_t group_end);

/**
 * Executes one lowered operation in place, partitioning its sweep over
 * opts.pool. Serial when no pool is set, the pool has one thread, or
 * the sweep is too small to be worth forking (the cutoff scales down
 * with the lane count).
 */
void executeOp(const KernelOp &op, StateView state,
               const ExecOptions &opts = {});

/** executeOp on one interleaved n-qubit statevector. */
inline void
executeOp(const KernelOp &op, Complex *amps, std::size_t n_qubits,
          const ExecOptions &opts = {})
{
    executeOp(op, StateView(amps, n_qubits), opts);
}

/**
 * Executes a plan in place on every lane of @p state, running each
 * kernel sweep state-parallel per @p opts (serial by default). When
 * opts.pool is unset and opts.threads != 1, one transient pool serves
 * the whole execution. Registers of at least kAutoBlockFromWidth
 * qubits dispatch to executeBlocked at the auto exponent
 * (resolveBlockQubits(0, n), cache.hh); results are bit-identical
 * either way.
 * @throws std::invalid_argument when the state width does not match
 *         the plan width.
 */
void execute(const Plan &plan, StateView state,
             const ExecOptions &opts = {});

/** execute on one interleaved statevector of the plan's width. */
inline void
execute(const Plan &plan, Complex *amps, const ExecOptions &opts = {})
{
    execute(plan, StateView(amps, plan.numQubits()), opts);
}

/**
 * Cache-blocked plan execution: partitions the ops into blockable
 * segments at block exponent @p block_qubits (blockSegments) and, for
 * each blockable segment, iterates the 2^(n-b) contiguous amplitude
 * blocks in the outer loop, applying all of the segment's ops to one
 * L2-resident block (all lanes) before the next. Non-blockable segments
 * run as ordinary full-register sweeps (chunked per @p opts). Blocks
 * are independent within a segment, so a pool in @p opts partitions
 * the block axis; when opts.pool is unset and opts.threads != 1 a
 * transient pool is created. Bit-identical to serial execution for
 * every block exponent, thread count, and lane count.
 * @throws std::invalid_argument on a width mismatch or when
 *         block_qubits is 0 or exceeds the plan width
 *         (resolveBlockQubits clamps a requested exponent into range).
 */
void executeBlocked(const Plan &plan, StateView state,
                    std::size_t block_qubits, const ExecOptions &opts = {});

/**
 * Executes ops [op_begin, op_end) of @p plan — which must all be
 * blockable at @p block_qubits — over amplitude blocks
 * [block_begin, block_end) of the 2^(n - block_qubits) total, with
 * the block-outer loop nest; the blocked parallel substrate, exported
 * for the equivalence tests.
 * @throws std::invalid_argument on an op that is not blockable at
 *         @p block_qubits or an out-of-range op/block interval.
 */
void executeBlockedRange(const Plan &plan, std::size_t op_begin,
                         std::size_t op_end, StateView state,
                         std::size_t block_qubits,
                         std::size_t block_begin, std::size_t block_end);

/** Executes a plan on |0...0> per @p opts and returns the resulting
 *  statevector.
 *  @throws std::length_error when the statevector does not fit in
 *          memory (checkStateFits). */
linalg::CVector run(const Plan &plan, const ExecOptions &opts = {});

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_ENGINE_HH
