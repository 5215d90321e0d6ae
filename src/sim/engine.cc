#include "engine.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/obs.hh"
#include "sim/cache.hh"
#include "sim/dispatch.hh"

namespace crisc {
namespace sim {

namespace {

/** log2 of an op's amplitude-group size (1 for pairs, 2 for quads,
 *  k for the dense fallback). */
std::size_t
opGroupBits(const KernelOp &op)
{
    switch (op.kind) {
      case KernelKind::OneQ:
      case KernelKind::OneQDiag:
        return 1;
      case KernelKind::TwoQ:
      case KernelKind::TwoQDiag:
        return 2;
      case KernelKind::Dense:
        return op.qubits.size();
    }
    throw std::logic_error("opGroupBits: unknown kernel kind");
}

/**
 * Smallest block exponent at which @p op is blockable: one past its
 * highest target index bit. Qubit q addresses index bit n-1-q, so
 * this is n minus the smallest target qubit index.
 */
std::size_t
opMinBlockBits(const KernelOp &op, std::size_t n_qubits)
{
    switch (op.kind) {
      case KernelKind::OneQ:
      case KernelKind::OneQDiag:
        return n_qubits - op.q0;
      case KernelKind::TwoQ:
      case KernelKind::TwoQDiag:
        return n_qubits - (op.q0 < op.q1 ? op.q0 : op.q1);
      case KernelKind::Dense:
        return op.qubits.empty()
                   ? 0
                   : n_qubits - *std::min_element(op.qubits.begin(),
                                                  op.qubits.end());
    }
    throw std::logic_error("opMinBlockBits: unknown kernel kind");
}

/**
 * Throws std::invalid_argument naming @p who, the op's @p index within
 * a plan (if any) and the offending field unless @p op addresses an
 * n-qubit register: 1q and 2q targets in range and a 2q op's two
 * distinct, a dense op's qubits in range and distinct with a 2^k x 2^k
 * matrix. The kernels check nothing, so this is what keeps a hand-built
 * op in bounds.
 */
void
checkOp(const KernelOp &op, std::size_t n_qubits, const char *who,
        std::optional<std::size_t> index = std::nullopt)
{
    const auto reject = [&](const std::string &what) {
        std::string where = who;
        if (index)
            where += ": op " + std::to_string(*index);
        throw std::invalid_argument(where + ": " + what);
    };
    switch (op.kind) {
      case KernelKind::TwoQ:
      case KernelKind::TwoQDiag:
        if (op.q1 >= n_qubits)
            reject("q1 = " + std::to_string(op.q1) + " out of range");
        if (op.q1 == op.q0)
            reject("q0 == q1 = " + std::to_string(op.q0));
        [[fallthrough]];
      case KernelKind::OneQ:
      case KernelKind::OneQDiag:
        if (op.q0 >= n_qubits)
            reject("q0 = " + std::to_string(op.q0) + " out of range");
        return;
      case KernelKind::Dense: {
        for (auto q = op.qubits.begin(); q != op.qubits.end(); ++q) {
            if (*q >= n_qubits)
                reject("qubits entry " + std::to_string(*q) +
                       " out of range");
            if (std::find(op.qubits.begin(), q, *q) != q)
                reject("qubits entry " + std::to_string(*q) + " repeated");
        }
        const std::size_t dim = std::size_t{1} << op.qubits.size();
        if (op.dense.rows() != dim || op.dense.cols() != dim)
            reject("dense is " + std::to_string(op.dense.rows()) + "x" +
                   std::to_string(op.dense.cols()) + ", not " +
                   std::to_string(dim) + "x" + std::to_string(dim));
        return;
      }
    }
    reject("unknown kind");
}

} // namespace

Plan::Plan(std::size_t num_qubits, std::vector<KernelOp> ops,
           PlanStats stats)
    : nQubits_(num_qubits), ops_(std::move(ops)), stats_(stats)
{
    for (std::size_t i = 0; i < ops_.size(); ++i)
        checkOp(ops_[i], nQubits_, "Plan", i);
    minBlockBits_.reserve(ops_.size());
    for (const KernelOp &op : ops_)
        minBlockBits_.push_back(opMinBlockBits(op, nQubits_));
    // Informational segment stats at the auto block exponent;
    // execution re-partitions for whatever exponent it resolves.
    const std::size_t bAuto = autoBlockQubits(nQubits_);
    bool inRun = false;
    for (const std::size_t bits : minBlockBits_) {
        const bool blockable = bAuto != 0 && bits <= bAuto;
        if (blockable) {
            ++stats_.blockableOps;
            if (!inRun)
                ++stats_.blockedSegments;
        }
        inRun = blockable;
    }
}

std::vector<BlockSegment>
blockSegments(const Plan &plan, std::size_t block_qubits)
{
    if (block_qubits == 0 || block_qubits > plan.numQubits())
        throw std::invalid_argument(
            "blockSegments: block_qubits must lie in [1, plan width]");
    const std::vector<std::size_t> &bits = plan.minBlockBits();
    std::vector<BlockSegment> segments;
    for (std::size_t i = 0; i < bits.size(); ++i) {
        const bool blockable = bits[i] <= block_qubits;
        if (segments.empty() || segments.back().blockable != blockable)
            segments.push_back({i, 1, blockable});
        else
            ++segments.back().count;
    }
    return segments;
}

namespace {

using Mat2 = std::array<Complex, 4>;
using Mat4 = std::array<Complex, 16>;

Mat2
mat2Of(const Matrix &op)
{
    return {op(0, 0), op(0, 1), op(1, 0), op(1, 1)};
}

Mat4
mat4Of(const Matrix &op)
{
    Mat4 m;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            m[r * 4 + c] = op(r, c);
    return m;
}

/** The pair kernel op for 2x2 @p m on qubit @p q: diagonal when both
 *  off-diagonal entries are exactly zero. */
KernelOp
lowerOneQ(std::size_t q, const Mat2 &m)
{
    KernelOp op;
    op.q0 = q;
    if (m[1] == Complex{0.0, 0.0} && m[2] == Complex{0.0, 0.0}) {
        op.kind = KernelKind::OneQDiag;
        op.m[0] = m[0];
        op.m[1] = m[3];
    } else {
        op.kind = KernelKind::OneQ;
        std::copy(m.begin(), m.end(), op.m.begin());
    }
    return op;
}

/** The quad kernel op for 4x4 @p m on (q_hi, q_lo): diagonal when every
 *  off-diagonal entry is exactly zero. */
KernelOp
lowerTwoQ(std::size_t q_hi, std::size_t q_lo, const Mat4 &m)
{
    bool diagonal = true;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            if (r != c && m[r * 4 + c] != Complex{0.0, 0.0})
                diagonal = false;
    KernelOp op;
    op.q0 = q_hi;
    op.q1 = q_lo;
    if (diagonal) {
        op.kind = KernelKind::TwoQDiag;
        op.m = {m[0], m[5], m[10], m[15]};
    } else {
        op.kind = KernelKind::TwoQ;
        op.m = m;
    }
    return op;
}

KernelOp
lowerDense(const Matrix &m, const std::vector<std::size_t> &qubits)
{
    KernelOp op;
    op.kind = KernelKind::Dense;
    op.dense = m;
    op.qubits = qubits;
    return op;
}

/** Kronecker product a (x) b with a on the most significant qubit. */
Mat4
kron2(const Mat2 &a, const Mat2 &b)
{
    Mat4 k;
    for (std::size_t i0 = 0; i0 < 2; ++i0)
        for (std::size_t i1 = 0; i1 < 2; ++i1)
            for (std::size_t j0 = 0; j0 < 2; ++j0)
                for (std::size_t j1 = 0; j1 < 2; ++j1)
                    k[(i0 * 2 + i1) * 4 + (j0 * 2 + j1)] =
                        a[i0 * 2 + j0] * b[i1 * 2 + j1];
    return k;
}

/** Row-major 4x4 product a * b. */
Mat4
matmul4(const Mat4 &a, const Mat4 &b)
{
    Mat4 c{};
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t t = 0; t < 4; ++t)
            for (std::size_t j = 0; j < 4; ++j)
                c[r * 4 + j] += a[r * 4 + t] * b[t * 4 + j];
    return c;
}

/** Pending fused 1q gate on one qubit during compilation. */
struct Pending
{
    Mat2 m;
    std::size_t absorbed = 0; ///< source gates merged beyond the first.
};

class Compiler
{
  public:
    explicit Compiler(std::size_t n) : pending_(n) {}

    void addGate(const circuit::Gate &g)
    {
        ++stats_.sourceGates;
        if (g.qubits.size() == 1) {
            addOneQ(g);
            return;
        }
        if (g.qubits.size() == 2) {
            // addTwoQ consumes the operand qubits' pending 1q products
            // itself; flushing here would force them into separate pair
            // sweeps.
            addTwoQ(g);
            return;
        }
        for (std::size_t q : g.qubits)
            flush(q);
        addDense(g);
    }

    Plan finish(std::size_t n)
    {
        for (std::size_t q = 0; q < pending_.size(); ++q)
            flush(q);
        stats_.kernelOps = ops_.size();
        return Plan(n, std::move(ops_), stats_);
    }

  private:
    void addOneQ(const circuit::Gate &g)
    {
        const Mat2 gm = mat2Of(g.op);
        std::optional<Pending> &slot = pending_[g.qubits[0]];
        if (!slot) {
            slot = Pending{gm, 0};
        } else {
            // Gate acts after the pending product: new = g * pending.
            const Mat2 &p = slot->m;
            slot->m = {gm[0] * p[0] + gm[1] * p[2],
                       gm[0] * p[1] + gm[1] * p[3],
                       gm[2] * p[0] + gm[3] * p[2],
                       gm[2] * p[1] + gm[3] * p[3]};
            ++slot->absorbed;
        }
    }

    void addTwoQ(const circuit::Gate &g)
    {
        Mat4 m = mat4Of(g.op);

        // Fold pending 1q products on the operand qubits into the quad:
        // the pendings act first, so m <- m * (u_hi (x) u_lo).
        std::optional<Pending> &hi = pending_[g.qubits[0]];
        std::optional<Pending> &lo = pending_[g.qubits[1]];
        if (hi || lo) {
            const Mat2 id{Complex{1.0, 0.0}, Complex{0.0, 0.0},
                          Complex{0.0, 0.0}, Complex{1.0, 0.0}};
            m = matmul4(m, kron2(hi ? hi->m : id, lo ? lo->m : id));
            for (std::optional<Pending> *slot : {&hi, &lo}) {
                if (!*slot)
                    continue;
                stats_.fusedGates += 1 + (*slot)->absorbed;
                ++stats_.fusedInto2q;
                slot->reset();
            }
        }

        push(lowerTwoQ(g.qubits[0], g.qubits[1], m));
    }

    void addDense(const circuit::Gate &g)
    {
        ++stats_.denseOps;
        push(lowerDense(g.op, g.qubits));
    }

    void push(KernelOp op)
    {
        if (op.kind == KernelKind::OneQDiag || op.kind == KernelKind::TwoQDiag)
            ++stats_.diagOps;
        ops_.push_back(std::move(op));
    }

    void flush(std::size_t q)
    {
        std::optional<Pending> &slot = pending_[q];
        if (!slot)
            return;
        stats_.fusedGates += slot->absorbed;
        push(lowerOneQ(q, slot->m));
        slot.reset();
    }

    std::vector<std::optional<Pending>> pending_;
    std::vector<KernelOp> ops_;
    PlanStats stats_;
};

} // namespace

Plan
compile(const circuit::Circuit &c)
{
    OBS_SPAN("sim.compile");
    Compiler compiler(c.numQubits());
    for (const circuit::Gate &g : c.gates())
        compiler.addGate(g);
    Plan plan = compiler.finish(c.numQubits());
    OBS_COUNT("sim.fused_1q", plan.stats().fusedGates);
    OBS_COUNT("sim.fused_2q", plan.stats().fusedInto2q);
    return plan;
}

KernelOp
lowerGate(const Matrix &op, const std::vector<std::size_t> &qubits)
{
    switch (qubits.size()) {
      case 1:
        return lowerOneQ(qubits[0], mat2Of(op));
      case 2:
        return lowerTwoQ(qubits[0], qubits[1], mat4Of(op));
      default:
        return lowerDense(op, qubits);
    }
}

std::size_t
opGroupCount(const KernelOp &op, std::size_t n_qubits)
{
    return (std::size_t{1} << n_qubits) >> opGroupBits(op);
}

void
executeOpRange(const KernelOp &op, StateView state, std::size_t g0,
               std::size_t g1)
{
    // One dispatch-table fetch per sweep, never per amplitude.
    const KernelTable &k = activeKernels();
    const std::size_t n = state.numQubits();
    if (state.interleaved()) {
        Complex *a = state.amps();
        switch (op.kind) {
          case KernelKind::OneQ:
            k.apply1qRange(a, n, op.q0, op.m.data(), g0, g1);
            return;
          case KernelKind::OneQDiag:
            k.apply1qDiagRange(a, n, op.q0, op.m[0], op.m[1], g0, g1);
            return;
          case KernelKind::TwoQ:
            k.apply2qRange(a, n, op.q0, op.q1, op.m.data(), g0, g1);
            return;
          case KernelKind::TwoQDiag:
            k.apply2qDiagRange(a, n, op.q0, op.q1, op.m.data(), g0, g1);
            return;
          case KernelKind::Dense:
            applyDenseRange(a, n, op.dense, op.qubits, g0, g1);
            return;
        }
    } else {
        double *re = state.re();
        double *im = state.im();
        const std::size_t b = state.lanes();
        switch (op.kind) {
          case KernelKind::OneQ:
            k.apply1qBatchRange(re, im, n, b, op.q0, op.m.data(), g0, g1);
            return;
          case KernelKind::OneQDiag:
            k.apply1qDiagBatchRange(re, im, n, b, op.q0, op.m[0], op.m[1],
                                    g0, g1);
            return;
          case KernelKind::TwoQ:
            k.apply2qBatchRange(re, im, n, b, op.q0, op.q1, op.m.data(), g0,
                                g1);
            return;
          case KernelKind::TwoQDiag:
            k.apply2qDiagBatchRange(re, im, n, b, op.q0, op.q1, op.m.data(),
                                    g0, g1);
            return;
          case KernelKind::Dense:
            applyDenseBatchRange(re, im, n, b, op.dense, op.qubits, g0,
                                 g1);
            return;
        }
    }
    throw std::logic_error("executeOpRange: unknown kernel kind");
}

namespace {

/**
 * Chunk-boundary granule, in groups. 64 groups keep every chunk
 * boundary cache-line-aligned in amplitude space (a pair/quad group's
 * contiguous sub-runs start at multiples of the granule times the run
 * stride, and 64 x 16 B covers a 64 B line at every stride) and a
 * whole SIMD vector wide.
 */
constexpr std::size_t kChunkGranule = 64;

/** Below this many single-lane groups a sweep stays serial: fork/join
 *  overhead (~µs) would rival the sweep itself. */
constexpr std::size_t kMinParallelGroups = 1024;

/** Tasks per worker the chunk size aims for (load balance vs.
 *  scheduling overhead). */
constexpr std::size_t kTasksPerThread = 4;

/** Serial cutoff for a sweep over @p lanes lanes: each group carries
 *  that many lanes of work, so the cutoff scales down with the lane
 *  count (but never below one granule). */
std::size_t
minParallelGroups(std::size_t lanes)
{
    return std::max(kMinParallelGroups / lanes, kChunkGranule);
}

void
checkWidth(const Plan &plan, StateView state, const char *who)
{
    if (state.numQubits() != plan.numQubits())
        throw std::invalid_argument(std::string(who) +
                                    ": state width does not match plan "
                                    "width");
}

/** @p opts with a pool: the caller's, else @p transient sized from
 *  opts.threads when that asks for more than one thread. */
ExecOptions
withPool(const ExecOptions &opts, std::optional<ThreadPool> &transient)
{
    ExecOptions resolved = opts;
    if (resolved.pool == nullptr && opts.threads != 1) {
        transient.emplace(opts.threads);
        resolved.pool = &*transient;
    }
    return resolved;
}

/** executeOp without the operand check, for ops of a checked Plan. */
void
sweepOp(const KernelOp &op, StateView state, const ExecOptions &opts)
{
    OBS_SPAN("sim.sweep");
    ThreadPool *pool = opts.pool;
    const std::size_t groups = opGroupCount(op, state.numQubits());
    if (pool == nullptr || pool->size() <= 1 ||
        groups < minParallelGroups(state.lanes())) {
        executeOpRange(op, state, 0, groups);
        return;
    }
    // A few tasks per worker, rounded up to the granule.
    const std::size_t chunk =
        (std::max(groups / (pool->size() * kTasksPerThread), kChunkGranule) +
         kChunkGranule - 1) /
        kChunkGranule * kChunkGranule;
    const std::size_t tasks = (groups + chunk - 1) / chunk;
    OBS_COUNT("sim.chunks", tasks);
    pool->parallelFor(tasks, [&](std::size_t t) {
        const std::size_t g0 = t * chunk;
        executeOpRange(op, state, g0, std::min(g0 + chunk, groups));
    });
}

} // namespace

void
executeOp(const KernelOp &op, StateView state, const ExecOptions &opts)
{
    checkOp(op, state.numQubits(), "executeOp");
    sweepOp(op, state, opts);
}

void
executeBlockedRange(const Plan &plan, std::size_t op_begin,
                    std::size_t op_end, StateView state,
                    std::size_t block_qubits, std::size_t block_begin,
                    std::size_t block_end)
{
    checkWidth(plan, state, "executeBlockedRange");
    if (block_qubits == 0 || block_qubits > plan.numQubits())
        throw std::invalid_argument(
            "executeBlockedRange: block_qubits must lie in [1, plan width]");
    if (op_begin > op_end || op_end > plan.ops().size())
        throw std::invalid_argument(
            "executeBlockedRange: op interval out of range");
    const std::size_t blocks = plan.dim() >> block_qubits;
    if (block_begin > block_end || block_end > blocks)
        throw std::invalid_argument(
            "executeBlockedRange: block interval out of range");
    for (std::size_t i = op_begin; i < op_end; ++i)
        if (plan.minBlockBits()[i] > block_qubits)
            throw std::invalid_argument(
                "executeBlockedRange: op not blockable at this exponent");
    const std::size_t blockDim = std::size_t{1} << block_qubits;
    for (std::size_t b = block_begin; b < block_end; ++b) {
        OBS_SPAN("sim.block");
        // A blockable op's groups tile the index space in block order:
        // block b owns groups [b * perBlock, (b + 1) * perBlock), so
        // the per-op range kernels replay the serial sweep exactly.
        for (std::size_t i = op_begin; i < op_end; ++i) {
            const KernelOp &op = plan.ops()[i];
            const std::size_t perBlock = blockDim >> opGroupBits(op);
            executeOpRange(op, state, b * perBlock, (b + 1) * perBlock);
        }
    }
}

namespace {

/** One blockable segment, block-outer, blocks spread over the pool.
 *  Blockable ops never couple amplitudes across block boundaries, so
 *  the tasks write disjoint amplitude ranges. */
void
runBlockedSegment(const Plan &plan, const BlockSegment &seg, StateView state,
                  std::size_t block_qubits, const ExecOptions &opts)
{
    OBS_SPAN("sim.segment");
    const std::size_t blocks = plan.dim() >> block_qubits;
    const std::size_t end = seg.first + seg.count;
    ThreadPool *pool = opts.pool;
    if (pool == nullptr || pool->size() <= 1 || blocks < 2 ||
        (plan.dim() >> 1) < minParallelGroups(state.lanes())) {
        executeBlockedRange(plan, seg.first, end, state, block_qubits, 0,
                            blocks);
        return;
    }
    const std::size_t per =
        std::max<std::size_t>(blocks / (pool->size() * kTasksPerThread), 1);
    const std::size_t tasks = (blocks + per - 1) / per;
    OBS_COUNT("sim.block_tasks", tasks);
    pool->parallelFor(tasks, [&](std::size_t t) {
        const std::size_t b0 = t * per;
        executeBlockedRange(plan, seg.first, end, state, block_qubits, b0,
                            std::min(b0 + per, blocks));
    });
}

} // namespace

void
executeBlocked(const Plan &plan, StateView state, std::size_t block_qubits,
               const ExecOptions &opts)
{
    checkWidth(plan, state, "executeBlocked");
    if (block_qubits == 0 || block_qubits > plan.numQubits())
        throw std::invalid_argument(
            "executeBlocked: block_qubits must lie in [1, plan width]");
    OBS_SPAN("sim.plan");
    std::optional<ThreadPool> transient;
    const ExecOptions resolved = withPool(opts, transient);
    for (const BlockSegment &seg : blockSegments(plan, block_qubits)) {
        if (seg.blockable) {
            runBlockedSegment(plan, seg, state, block_qubits, resolved);
            continue;
        }
        // Ops coupling amplitudes across blocks run as ordinary
        // whole-register sweeps — barriers between blockable segments.
        for (std::size_t i = seg.first; i < seg.first + seg.count; ++i)
            sweepOp(plan.ops()[i], state, resolved);
    }
}

void
execute(const Plan &plan, StateView state, const ExecOptions &opts)
{
    const std::size_t block = resolveBlockQubits(0, plan.numQubits());
    if (block != 0) {
        executeBlocked(plan, state, block, opts);
        return;
    }
    checkWidth(plan, state, "execute");
    OBS_SPAN("sim.plan");
    // One transient pool serves every sweep of this execution when the
    // caller did not provide one (opts.threads == 0 = hardware).
    std::optional<ThreadPool> transient;
    const ExecOptions resolved = withPool(opts, transient);
    for (const KernelOp &op : plan.ops())
        sweepOp(op, state, resolved);
}

linalg::CVector
run(const Plan &plan, const ExecOptions &opts)
{
    checkStateFits(plan.numQubits(), 1);
    linalg::CVector amps(plan.dim(), Complex{0.0, 0.0});
    amps[0] = 1.0;
    execute(plan, amps.data(), opts);
    return amps;
}

} // namespace sim
} // namespace crisc
