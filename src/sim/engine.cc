#include "engine.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>

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

} // namespace

Plan::Plan(std::size_t num_qubits, std::vector<KernelOp> ops,
           PlanStats stats)
    : nQubits_(num_qubits), ops_(std::move(ops)), stats_(stats)
{
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

bool
isDiag2(const Mat2 &m)
{
    return m[1] == Complex{0.0, 0.0} && m[2] == Complex{0.0, 0.0};
}

bool
isDiag4(const Mat4 &m)
{
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            if (r != c && m[r * 4 + c] != Complex{0.0, 0.0})
                return false;
    return true;
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
    Compiler(std::size_t n, const CompileOptions &opts)
        : opts_(opts), pending_(n)
    {
    }

    void addGate(const circuit::Gate &g)
    {
        ++stats_.sourceGates;
        if (g.qubits.size() == 1) {
            addOneQ(g);
            return;
        }
        if (g.qubits.size() == 2) {
            // addTwoQ consumes the operand qubits' pending 1q products
            // itself when 2q fusion is on; flushing here would force
            // them into separate pair sweeps.
            if (!opts_.fuseTwoQubit)
                for (std::size_t q : g.qubits)
                    flush(q);
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
        const std::size_t q = g.qubits[0];
        const Mat2 gm{g.op(0, 0), g.op(0, 1), g.op(1, 0), g.op(1, 1)};
        std::optional<Pending> &slot = pending_[q];
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
        if (!opts_.fuseSingleQubit)
            flush(q);
    }

    void addTwoQ(const circuit::Gate &g)
    {
        Mat4 m;
        for (std::size_t r = 0; r < 4; ++r)
            for (std::size_t c = 0; c < 4; ++c)
                m[r * 4 + c] = g.op(r, c);

        if (opts_.fuseTwoQubit) {
            // Fold pending 1q products on the operand qubits into the
            // quad: the pendings act first, so m <- m * (u_hi (x) u_lo).
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
        }

        KernelOp op;
        op.q0 = g.qubits[0];
        op.q1 = g.qubits[1];
        if (isDiag4(m)) {
            op.kind = KernelKind::TwoQDiag;
            op.m = {m[0], m[5], m[10], m[15]};
            ++stats_.diagOps;
        } else {
            op.kind = KernelKind::TwoQ;
            op.m = m;
        }
        ops_.push_back(std::move(op));
    }

    void addDense(const circuit::Gate &g)
    {
        KernelOp op;
        op.kind = KernelKind::Dense;
        op.dense = g.op;
        op.qubits = g.qubits;
        ++stats_.denseOps;
        ops_.push_back(std::move(op));
    }

    void flush(std::size_t q)
    {
        std::optional<Pending> &slot = pending_[q];
        if (!slot)
            return;
        KernelOp op;
        op.q0 = q;
        if (isDiag2(slot->m)) {
            op.kind = KernelKind::OneQDiag;
            op.m[0] = slot->m[0];
            op.m[1] = slot->m[3];
            ++stats_.diagOps;
        } else {
            op.kind = KernelKind::OneQ;
            for (std::size_t i = 0; i < 4; ++i)
                op.m[i] = slot->m[i];
        }
        stats_.fusedGates += slot->absorbed;
        ops_.push_back(std::move(op));
        slot.reset();
    }

    const CompileOptions &opts_;
    std::vector<std::optional<Pending>> pending_;
    std::vector<KernelOp> ops_;
    PlanStats stats_;
};

} // namespace

Plan
compile(const circuit::Circuit &c, const CompileOptions &opts)
{
    OBS_SPAN("sim.compile");
    Compiler compiler(c.numQubits(), opts);
    for (const circuit::Gate &g : c.gates())
        compiler.addGate(g);
    Plan plan = compiler.finish(c.numQubits());
    OBS_COUNT("sim.fused_1q", plan.stats().fusedGates);
    OBS_COUNT("sim.fused_2q", plan.stats().fusedInto2q);
    return plan;
}

void
executeOp(const KernelOp &op, Complex *amps, std::size_t n_qubits)
{
    // One dispatch-table fetch per sweep, never per amplitude.
    const KernelTable &k = activeKernels();
    switch (op.kind) {
      case KernelKind::OneQ:
        k.apply1q(amps, n_qubits, op.q0, op.m.data());
        return;
      case KernelKind::OneQDiag:
        k.apply1qDiag(amps, n_qubits, op.q0, op.m[0], op.m[1]);
        return;
      case KernelKind::TwoQ:
        k.apply2q(amps, n_qubits, op.q0, op.q1, op.m.data());
        return;
      case KernelKind::TwoQDiag:
        k.apply2qDiag(amps, n_qubits, op.q0, op.q1, op.m.data());
        return;
      case KernelKind::Dense:
        k.applyDense(amps, n_qubits, op.dense, op.qubits);
        return;
    }
    throw std::logic_error("executeOp: unknown kernel kind");
}

std::size_t
opGroupCount(const KernelOp &op, std::size_t n_qubits)
{
    const std::size_t dim = std::size_t{1} << n_qubits;
    switch (op.kind) {
      case KernelKind::OneQ:
      case KernelKind::OneQDiag:
        return dim >> 1;
      case KernelKind::TwoQ:
      case KernelKind::TwoQDiag:
        return dim >> 2;
      case KernelKind::Dense:
        return dim >> op.qubits.size();
    }
    throw std::logic_error("opGroupCount: unknown kernel kind");
}

void
executeOpRange(const KernelOp &op, Complex *amps, std::size_t n_qubits,
               std::size_t group_begin, std::size_t group_end)
{
    const KernelTable &k = activeKernels();
    switch (op.kind) {
      case KernelKind::OneQ:
        k.apply1qRange(amps, n_qubits, op.q0, op.m.data(), group_begin,
                       group_end);
        return;
      case KernelKind::OneQDiag:
        k.apply1qDiagRange(amps, n_qubits, op.q0, op.m[0], op.m[1],
                           group_begin, group_end);
        return;
      case KernelKind::TwoQ:
        k.apply2qRange(amps, n_qubits, op.q0, op.q1, op.m.data(),
                       group_begin, group_end);
        return;
      case KernelKind::TwoQDiag:
        k.apply2qDiagRange(amps, n_qubits, op.q0, op.q1, op.m.data(),
                           group_begin, group_end);
        return;
      case KernelKind::Dense:
        k.applyDenseRange(amps, n_qubits, op.dense, op.qubits, group_begin,
                          group_end);
        return;
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

/** Below this many groups a sweep stays serial: fork/join overhead
 *  (~µs) would rival the sweep itself. */
constexpr std::size_t kMinParallelGroups = 1024;

/** Tasks per worker the auto chunk size aims for (load balance vs.
 *  scheduling overhead). */
constexpr std::size_t kTasksPerThread = 4;

std::size_t
chunkFor(std::size_t groups, std::size_t workers, std::size_t requested)
{
    std::size_t chunk = requested;
    if (chunk == 0)
        chunk = groups / (workers * kTasksPerThread);
    if (chunk < kChunkGranule)
        chunk = kChunkGranule;
    return (chunk + kChunkGranule - 1) / kChunkGranule * kChunkGranule;
}

} // namespace

void
executeOp(const KernelOp &op, Complex *amps, std::size_t n_qubits,
          const ExecOptions &opts)
{
    OBS_SPAN("sim.sweep");
    ThreadPool *pool = opts.pool;
    const std::size_t groups = opGroupCount(op, n_qubits);
    if (pool == nullptr || pool->size() <= 1 ||
        groups < kMinParallelGroups) {
        executeOp(op, amps, n_qubits);
        return;
    }
    const std::size_t chunk = chunkFor(groups, pool->size(), opts.chunk);
    const std::size_t tasks = (groups + chunk - 1) / chunk;
    OBS_COUNT("sim.chunks", tasks);
    pool->parallelFor(tasks, [&](std::size_t t) {
        const std::size_t g0 = t * chunk;
        const std::size_t g1 = g0 + chunk < groups ? g0 + chunk : groups;
        executeOpRange(op, amps, n_qubits, g0, g1);
    });
}

void
executeOpBatched(const KernelOp &op, BatchState &batch)
{
    double *re = batch.re();
    double *im = batch.im();
    const std::size_t n = batch.numQubits();
    const std::size_t b = batch.batch();
    const std::size_t dim = std::size_t{1} << n;
    const KernelTable &k = activeKernels();
    switch (op.kind) {
      case KernelKind::OneQ:
        k.apply1qBatchRange(re, im, n, b, op.q0, op.m.data(), 0, dim >> 1);
        return;
      case KernelKind::OneQDiag:
        k.apply1qDiagBatchRange(re, im, n, b, op.q0, op.m[0], op.m[1], 0,
                                dim >> 1);
        return;
      case KernelKind::TwoQ:
        k.apply2qBatchRange(re, im, n, b, op.q0, op.q1, op.m.data(), 0,
                            dim >> 2);
        return;
      case KernelKind::TwoQDiag:
        k.apply2qDiagBatchRange(re, im, n, b, op.q0, op.q1, op.m.data(), 0,
                                dim >> 2);
        return;
      case KernelKind::Dense:
        k.applyDenseBatchRange(re, im, n, b, op.dense, op.qubits, 0,
                               dim >> op.qubits.size());
        return;
    }
    throw std::logic_error("executeOpBatched: unknown kernel kind");
}

void
executeOpBatchedRange(const KernelOp &op, BatchState &batch,
                      std::size_t group_begin, std::size_t group_end)
{
    double *re = batch.re();
    double *im = batch.im();
    const std::size_t n = batch.numQubits();
    const std::size_t b = batch.batch();
    const KernelTable &k = activeKernels();
    switch (op.kind) {
      case KernelKind::OneQ:
        k.apply1qBatchRange(re, im, n, b, op.q0, op.m.data(), group_begin,
                            group_end);
        return;
      case KernelKind::OneQDiag:
        k.apply1qDiagBatchRange(re, im, n, b, op.q0, op.m[0], op.m[1],
                                group_begin, group_end);
        return;
      case KernelKind::TwoQ:
        k.apply2qBatchRange(re, im, n, b, op.q0, op.q1, op.m.data(),
                            group_begin, group_end);
        return;
      case KernelKind::TwoQDiag:
        k.apply2qDiagBatchRange(re, im, n, b, op.q0, op.q1, op.m.data(),
                                group_begin, group_end);
        return;
      case KernelKind::Dense:
        k.applyDenseBatchRange(re, im, n, b, op.dense, op.qubits,
                               group_begin, group_end);
        return;
    }
    throw std::logic_error("executeOpBatchedRange: unknown kernel kind");
}

void
executeOpBatched(const KernelOp &op, BatchState &batch,
                 const ExecOptions &opts)
{
    OBS_SPAN("sim.sweep_batched");
    ThreadPool *pool = opts.pool;
    const std::size_t groups = opGroupCount(op, batch.numQubits());
    // Each group carries batch() lanes of work, so the serial cutoff
    // scales down with the batch width (but never below one granule).
    const std::size_t scaled = kMinParallelGroups / batch.batch();
    const std::size_t minGroups =
        scaled > kChunkGranule ? scaled : kChunkGranule;
    if (pool == nullptr || pool->size() <= 1 || groups < minGroups) {
        executeOpBatched(op, batch);
        return;
    }
    const std::size_t chunk = chunkFor(groups, pool->size(), opts.chunk);
    const std::size_t tasks = (groups + chunk - 1) / chunk;
    OBS_COUNT("sim.chunks", tasks);
    pool->parallelFor(tasks, [&](std::size_t t) {
        const std::size_t g0 = t * chunk;
        const std::size_t g1 = g0 + chunk < groups ? g0 + chunk : groups;
        executeOpBatchedRange(op, batch, g0, g1);
    });
}

void
executeBlockedRange(const Plan &plan, std::size_t op_begin,
                    std::size_t op_end, Complex *amps,
                    std::size_t block_qubits, std::size_t block_begin,
                    std::size_t block_end)
{
    const std::size_t n = plan.numQubits();
    if (block_qubits == 0 || block_qubits > n)
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
        // the per-op Range kernels replay the serial sweep exactly.
        for (std::size_t i = op_begin; i < op_end; ++i) {
            const KernelOp &op = plan.ops()[i];
            const std::size_t perBlock = blockDim >> opGroupBits(op);
            executeOpRange(op, amps, n, b * perBlock, (b + 1) * perBlock);
        }
    }
}

namespace {

/** executeBlockedRange's loop nest on a SoA batch (inputs validated by
 *  the executeBlockedBatched caller). */
void
blockedBatchedRange(const Plan &plan, std::size_t op_begin,
                    std::size_t op_end, BatchState &batch,
                    std::size_t block_qubits, std::size_t block_begin,
                    std::size_t block_end)
{
    const std::size_t blockDim = std::size_t{1} << block_qubits;
    for (std::size_t b = block_begin; b < block_end; ++b) {
        OBS_SPAN("sim.block");
        for (std::size_t i = op_begin; i < op_end; ++i) {
            const KernelOp &op = plan.ops()[i];
            const std::size_t perBlock = blockDim >> opGroupBits(op);
            executeOpBatchedRange(op, batch, b * perBlock,
                                  (b + 1) * perBlock);
        }
    }
}

/** One blockable segment, block-outer, blocks spread over the pool.
 *  Blockable ops never couple amplitudes across block boundaries, so
 *  the tasks write disjoint amplitude ranges. */
void
runBlockedSegment(const Plan &plan, const BlockSegment &seg, Complex *amps,
                  std::size_t block_qubits, const ExecOptions &opts)
{
    OBS_SPAN("sim.segment");
    const std::size_t blocks = plan.dim() >> block_qubits;
    ThreadPool *pool = opts.pool;
    if (pool == nullptr || pool->size() <= 1 || blocks < 2 ||
        (plan.dim() >> 1) < kMinParallelGroups) {
        executeBlockedRange(plan, seg.first, seg.first + seg.count, amps,
                            block_qubits, 0, blocks);
        return;
    }
    std::size_t per = blocks / (pool->size() * kTasksPerThread);
    if (per == 0)
        per = 1;
    const std::size_t tasks = (blocks + per - 1) / per;
    OBS_COUNT("sim.block_tasks", tasks);
    pool->parallelFor(tasks, [&](std::size_t t) {
        const std::size_t b0 = t * per;
        const std::size_t b1 = b0 + per < blocks ? b0 + per : blocks;
        executeBlockedRange(plan, seg.first, seg.first + seg.count, amps,
                            block_qubits, b0, b1);
    });
}

/** runBlockedSegment on a SoA batch; the serial cutoff scales down
 *  with the lane count exactly as executeOpBatched's does. */
void
runBlockedSegmentBatched(const Plan &plan, const BlockSegment &seg,
                         BatchState &batch, std::size_t block_qubits,
                         const ExecOptions &opts)
{
    OBS_SPAN("sim.segment");
    const std::size_t blocks = plan.dim() >> block_qubits;
    const std::size_t scaled = kMinParallelGroups / batch.batch();
    const std::size_t minGroups =
        scaled > kChunkGranule ? scaled : kChunkGranule;
    ThreadPool *pool = opts.pool;
    if (pool == nullptr || pool->size() <= 1 || blocks < 2 ||
        (plan.dim() >> 1) < minGroups) {
        blockedBatchedRange(plan, seg.first, seg.first + seg.count, batch,
                            block_qubits, 0, blocks);
        return;
    }
    std::size_t per = blocks / (pool->size() * kTasksPerThread);
    if (per == 0)
        per = 1;
    const std::size_t tasks = (blocks + per - 1) / per;
    OBS_COUNT("sim.block_tasks", tasks);
    pool->parallelFor(tasks, [&](std::size_t t) {
        const std::size_t b0 = t * per;
        const std::size_t b1 = b0 + per < blocks ? b0 + per : blocks;
        blockedBatchedRange(plan, seg.first, seg.first + seg.count, batch,
                            block_qubits, b0, b1);
    });
}

} // namespace

void
executeBlocked(const Plan &plan, Complex *amps, std::size_t block_qubits,
               const ExecOptions &opts)
{
    const std::size_t n = plan.numQubits();
    if (block_qubits == 0 || block_qubits > n)
        throw std::invalid_argument(
            "executeBlocked: block_qubits must lie in [1, plan width]");
    OBS_SPAN("sim.plan");
    const std::vector<BlockSegment> segments =
        blockSegments(plan, block_qubits);
    std::optional<ThreadPool> transient;
    ExecOptions resolved = opts;
    if (resolved.pool == nullptr && opts.threads != 1) {
        transient.emplace(opts.threads);
        resolved.pool = &*transient;
    }
    for (const BlockSegment &seg : segments) {
        if (seg.blockable) {
            runBlockedSegment(plan, seg, amps, block_qubits, resolved);
            continue;
        }
        // Ops coupling amplitudes across blocks run as ordinary
        // whole-register sweeps — barriers between blockable segments.
        for (std::size_t i = seg.first; i < seg.first + seg.count; ++i)
            executeOp(plan.ops()[i], amps, n, resolved);
    }
}

void
executeBlockedBatched(const Plan &plan, BatchState &batch,
                      std::size_t block_qubits, const ExecOptions &opts)
{
    if (batch.numQubits() != plan.numQubits())
        throw std::invalid_argument(
            "executeBlockedBatched: batch width does not match plan width");
    if (block_qubits == 0 || block_qubits > plan.numQubits())
        throw std::invalid_argument(
            "executeBlockedBatched: block_qubits must lie in [1, plan "
            "width]");
    OBS_SPAN("sim.plan_batched");
    const std::vector<BlockSegment> segments =
        blockSegments(plan, block_qubits);
    std::optional<ThreadPool> transient;
    ExecOptions resolved = opts;
    if (resolved.pool == nullptr && opts.threads != 1) {
        transient.emplace(opts.threads);
        resolved.pool = &*transient;
    }
    for (const BlockSegment &seg : segments) {
        if (seg.blockable) {
            runBlockedSegmentBatched(plan, seg, batch, block_qubits,
                                     resolved);
            continue;
        }
        for (std::size_t i = seg.first; i < seg.first + seg.count; ++i)
            executeOpBatched(plan.ops()[i], batch, resolved);
    }
}

void
executeBatched(const Plan &plan, BatchState &batch, const ExecOptions &opts)
{
    const std::size_t block =
        resolveBlockQubits(opts.blockQubits, plan.numQubits());
    if (block != 0) {
        executeBlockedBatched(plan, batch, block, opts);
        return;
    }
    if (batch.numQubits() != plan.numQubits())
        throw std::invalid_argument(
            "executeBatched: batch width does not match plan width");
    OBS_SPAN("sim.plan_batched");
    if (opts.pool == nullptr && opts.threads == 1) {
        for (const KernelOp &op : plan.ops())
            executeOpBatched(op, batch);
        return;
    }
    std::optional<ThreadPool> transient;
    ExecOptions resolved = opts;
    if (resolved.pool == nullptr) {
        transient.emplace(opts.threads);
        resolved.pool = &*transient;
    }
    for (const KernelOp &op : plan.ops())
        executeOpBatched(op, batch, resolved);
}

void
execute(const Plan &plan, Complex *amps)
{
    OBS_SPAN("sim.plan");
    for (const KernelOp &op : plan.ops())
        executeOp(op, amps, plan.numQubits());
}

void
execute(const Plan &plan, Complex *amps, const ExecOptions &opts)
{
    const std::size_t block =
        resolveBlockQubits(opts.blockQubits, plan.numQubits());
    if (block != 0) {
        executeBlocked(plan, amps, block, opts);
        return;
    }
    if (opts.pool == nullptr && opts.threads == 1) {
        execute(plan, amps);
        return;
    }
    OBS_SPAN("sim.plan");
    // One transient pool serves every sweep of this execution when the
    // caller did not provide one (opts.threads == 0 = hardware).
    std::optional<ThreadPool> transient;
    ExecOptions resolved = opts;
    if (resolved.pool == nullptr) {
        transient.emplace(opts.threads);
        resolved.pool = &*transient;
    }
    for (const KernelOp &op : plan.ops())
        executeOp(op, amps, plan.numQubits(), resolved);
}

void
Plan::execute(Complex *amps, const ExecOptions &opts) const
{
    sim::execute(*this, amps, opts);
}

linalg::CVector
run(const Plan &plan)
{
    linalg::CVector amps(plan.dim(), Complex{0.0, 0.0});
    amps[0] = 1.0;
    execute(plan, amps.data());
    return amps;
}

linalg::CVector
run(const Plan &plan, const ExecOptions &opts)
{
    linalg::CVector amps(plan.dim(), Complex{0.0, 0.0});
    amps[0] = 1.0;
    execute(plan, amps.data(), opts);
    return amps;
}

} // namespace sim
} // namespace crisc
