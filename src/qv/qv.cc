#include "qv.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "ashn/special.hh"
#include "circuit/circuit.hh"
#include "circuit/noise.hh"
#include "linalg/random.hh"
#include "obs/obs.hh"
#include "route/route.hh"
#include "sim/batch.hh"
#include "sim/engine.hh"
#include "transpile/passes.hh"
#include "weyl/weyl.hh"

namespace crisc {
namespace qv {

using linalg::Complex;
using linalg::Matrix;

namespace {

/**
 * One physical two-qubit block, pre-lowered to a dense-quad KernelOp
 * (executable on any state view via sim::executeOp), with its
 * native-gate noise budget.
 */
struct PhysicalOp
{
    sim::KernelOp kernel;          ///< TwoQ op; q0 = gate msq.
    int natives;                   ///< native gates used to realize it.
    double p2;                     ///< 2q depolarizing rate per native gate.
};

sim::KernelOp
quadOp(std::size_t a, std::size_t b, const Matrix &u)
{
    sim::KernelOp op;
    op.kind = sim::KernelKind::TwoQ;
    op.q0 = a;
    op.q1 = b;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            op.m[r * 4 + c] = u(r, c);
    return op;
}

void
validate(const QvConfig &config)
{
    auto fail = [](const std::string &msg) {
        throw std::invalid_argument("QvConfig: " + msg);
    };
    if (config.device == nullptr)
        throw std::invalid_argument(
            "QvConfig::device is null: name the target, e.g. "
            "device::Device::grid2d(kind, width)");
    if (config.width == 0)
        fail("width must be at least 1");
    if (config.width > 30)
        fail("width must be at most 30 (statevector simulation limit), "
             "got " +
             std::to_string(config.width));
    if (config.circuits <= 0)
        fail("circuits must be positive, got " +
             std::to_string(config.circuits));
    if (config.trajectories <= 0)
        fail("trajectories must be positive, got " +
             std::to_string(config.trajectories));
    if (config.threads < 0)
        fail("threads must be non-negative (0 = hardware concurrency), "
             "got " +
             std::to_string(config.threads));
    if (config.stateThreads < 0)
        fail("stateThreads must be non-negative (0 = width heuristic), "
             "got " +
             std::to_string(config.stateThreads));
    if (config.soaLanes < 0)
        fail("soaLanes must be non-negative (0 = width heuristic), got " +
             std::to_string(config.soaLanes));
    if (config.device->numQubits() < config.width)
        fail("device has " + std::to_string(config.device->numQubits()) +
             " qubits, fewer than the circuit width " +
             std::to_string(config.width));
}

/**
 * The heavy set of a d-qubit model circuit: the basis states whose
 * ideal output probability exceeds the median, via the kernel engine
 * (fusion is a no-op here; the quad kernel is not).
 */
std::vector<bool>
heavySet(const circuit::Circuit &model)
{
    const linalg::CVector idealAmps = [&] {
        OBS_SPAN("qv.ideal");
        return sim::run(sim::compile(model));
    }();
    const std::size_t dim = idealAmps.size();
    std::vector<double> probs(dim);
    for (std::size_t i = 0; i < dim; ++i)
        probs[i] = std::norm(idealAmps[i]);
    std::vector<double> sorted = probs;
    std::nth_element(sorted.begin(), sorted.begin() + dim / 2,
                     sorted.end());
    // Median of 2^d values (even count): mean of the middle pair.
    const double upper = sorted[dim / 2];
    const double lower =
        *std::max_element(sorted.begin(), sorted.begin() + dim / 2);
    const double median = 0.5 * (upper + lower);
    std::vector<bool> heavy(dim);
    for (std::size_t i = 0; i < dim; ++i)
        heavy[i] = probs[i] > median;
    return heavy;
}

/** One circuit's contribution, reduced in circuit order afterwards. */
struct CircuitTally
{
    double heavy = 0.0; ///< trajectory heavy-output sum, index order.
    /** Per routed gate, in gate order: the costs the averages add. */
    std::vector<device::GateCost> costs;
    std::size_t swaps = 0;
};

/**
 * Runs model circuit @p ci end to end on the calling thread:
 * generation, the ideal run and heavy set, routing, costing,
 * compaction, and its noisy trajectories in SoA tiles. Quad sweeps run
 * on a local pool of @p sweep_threads workers when that is more than
 * one.
 */
CircuitTally
runCircuit(const QvConfig &config, std::size_t ci,
           std::size_t sweep_threads)
{
    OBS_SPAN("qv.circuit");
    // One device drives everything below: routing (coupling map),
    // compilation cost (native gate set), and the noise budget.
    const device::Device &dev = *config.device;
    const route::CouplingMap &map = dev.coupling();
    const device::NativeGateSet &native = dev.gateSet();
    const device::NoiseModel &noise = dev.noise();

    const std::size_t d = config.width;
    const std::size_t n = map.numQubits();
    CircuitTally tally;

    // Circuit generation and noise sampling draw from separate
    // seed-derived streams (even / odd), so a circuit's gates depend
    // only on (seed, ci) — never on which worker runs it or on how
    // many trajectories other circuits ran with.
    const std::uint64_t circuitStream = 2 * std::uint64_t(ci);
    linalg::Rng genRng(sim::streamSeed(config.seed, circuitStream));

    // --- Model circuit: d layers of random pairings + Haar SU(4).
    circuit::Circuit model(d);
    std::vector<std::size_t> order(d);
    for (std::size_t i = 0; i < d; ++i)
        order[i] = i;
    for (std::size_t layer = 0; layer < d; ++layer) {
        std::shuffle(order.begin(), order.end(), genRng.engine());
        for (std::size_t k = 0; k + 1 < d; k += 2)
            model.add(linalg::haarSU(genRng, 4), {order[k], order[k + 1]});
    }
    const std::vector<bool> heavy = heavySet(model);

    // --- Route onto the device through the shared transpiler pass
    // (SWAP insertion + layout tracking), then attach the device's
    // native cost model to each physical block.
    transpile::PassContext routeCtx;
    routeCtx.coupling = &map;
    const circuit::Circuit routed = [&] {
        // Same span name the PassManager would emit for this pass.
        OBS_SPAN("pass.Route");
        return transpile::Route().run(model, routeCtx);
    }();
    const route::Layout &layout = *routeCtx.layout;

    std::vector<PhysicalOp> ops;
    ops.reserve(routed.gates().size());
    tally.costs.reserve(routed.gates().size());
    const device::GateCost swapCost = native.cost(ashn::swapPoint());
    for (const circuit::Gate &g : routed.gates()) {
        const bool swap = g.label == "swap";
        const device::GateCost cost =
            swap ? swapCost : native.cost(weyl::weylCoordinates(g.op));
        ops.push_back(
            {quadOp(g.qubits[0], g.qubits[1], g.op), cost.nativeGates,
             noise.twoQubitRateFor(cost.totalTime / cost.nativeGates)});
        tally.costs.push_back(cost);
        tally.swaps += swap;
    }

    // Routing may walk logical qubits through any physical qubit, but
    // trajectory cost should scale with the circuit, not the device:
    // compact the routed ops onto the physical qubits they touch (plus
    // every logical home). The mapping is the identity when the device
    // is exactly as wide as the circuit, so the canned presets are
    // untouched bit for bit.
    std::vector<std::size_t> compact(n, 0);
    std::size_t nc = 0;
    {
        std::vector<bool> used(n, false);
        for (const PhysicalOp &op : ops)
            used[op.kernel.q0] = used[op.kernel.q1] = true;
        for (std::size_t l = 0; l < d; ++l)
            used[layout.physicalOf(l)] = true;
        for (std::size_t pq = 0; pq < n; ++pq)
            if (used[pq])
                compact[pq] = nc++;
    }
    if (nc > 30)
        throw std::invalid_argument(
            "qv: routed circuit touches " + std::to_string(nc) +
            " physical qubits; statevector simulation supports at most "
            "30");
    for (PhysicalOp &op : ops) {
        op.kernel.q0 = compact[op.kernel.q0];
        op.kernel.q1 = compact[op.kernel.q1];
    }
    const std::size_t simDim = std::size_t{1} << nc;

    // Compacted basis index -> logical basis index through the final
    // layout (spare qubits marginalize out). Generalizes
    // route::Layout::logicalBasisIndex to d logical of nc simulated
    // qubits.
    std::vector<std::size_t> logicalIndex(simDim);
    for (std::size_t phys = 0; phys < simDim; ++phys) {
        std::size_t logical = 0;
        for (std::size_t l = 0; l < d; ++l) {
            const std::size_t pq = compact[layout.physicalOf(l)];
            const std::size_t bit = (phys >> (nc - 1 - pq)) & 1;
            logical |= bit << (d - 1 - l);
        }
        logicalIndex[phys] = logical;
    }

    // --- Noisy trajectories in tiles of `lanes`, resolved from this
    // circuit's simulated width. Lane l of a tile is trajectory
    // first + l on its own RNG stream derived from (seed, circuit,
    // trajectory). Every gate is one sweep over all lanes and only the
    // per-lane noise draws diverge, so each lane is bit-identical to
    // the serial trajectory with the same index.
    const std::size_t count = static_cast<std::size_t>(config.trajectories);
    const std::size_t lanes =
        config.soaLanes == 0
            ? sim::planBatch(1, nc, count).soaLanes
            : static_cast<std::size_t>(config.soaLanes);
    sim::ExecOptions exec;
    std::optional<sim::ThreadPool> sweepPool;
    if (sweep_threads > 1) {
        // Counted so tests can pin that serial sweeps spawn no pool.
        OBS_COUNT("qv.sweep_pools", 1);
        sweepPool.emplace(sweep_threads);
        exec.pool = &*sweepPool;
        exec.threads = sweep_threads;
    }
    const std::uint64_t trajSeed =
        sim::streamSeed(config.seed, circuitStream + 1);
    std::vector<linalg::Rng> rngs;
    rngs.reserve(std::min(lanes, count));
    for (std::size_t first = 0; first < count; first += lanes) {
        OBS_SPAN("qv.trajectory");
        const std::size_t width = std::min(lanes, count - first);
        OBS_COUNT("qv.trajectories", width);
        rngs.clear();
        for (std::size_t l = 0; l < width; ++l)
            rngs.emplace_back(sim::streamSeed(trajSeed, first + l));
        // A one-lane tile keeps the interleaved kernels; wider tiles
        // run SIMD lanes across trajectories.
        linalg::CVector amps;
        std::optional<sim::BatchState> batch;
        if (width == 1) {
            amps.assign(simDim, Complex{0.0, 0.0});
            amps[0] = 1.0;
        } else {
            batch.emplace(nc, width);
        }
        const sim::StateView state = batch
                                         ? sim::StateView(*batch)
                                         : sim::StateView(amps.data(), nc);
        for (const PhysicalOp &op : ops) {
            sim::executeOp(op.kernel, state, exec);
            const std::size_t qa = op.kernel.q0;
            const std::size_t qb = op.kernel.q1;
            for (std::size_t l = 0; l < width; ++l) {
                for (int g = 0; g < op.natives; ++g) {
                    circuit::applyDepolarizing(state, l, qa, qb, op.p2,
                                               rngs[l]);
                    circuit::applyDepolarizing(
                        state, l, qa, noise.singleQubitError, rngs[l]);
                    circuit::applyDepolarizing(
                        state, l, qb, noise.singleQubitError, rngs[l]);
                }
            }
        }
        for (std::size_t l = 0; l < width; ++l) {
            double hop = 0.0;
            for (std::size_t phys = 0; phys < simDim; ++phys)
                if (heavy[logicalIndex[phys]])
                    hop += std::norm(state.amp(phys, l));
            tally.heavy += hop;
        }
    }
    return tally;
}

} // namespace

QvResult
heavyOutputExperiment(const QvConfig &config)
{
    validate(config);
    const auto wallStart = std::chrono::steady_clock::now();

    // Model circuits are independent samples, so the circuit axis is
    // the one fanned out (batch.hh): each worker runs whole circuits,
    // sweeping with stateThreads workers of its own. stateThreads == 0
    // asks the width heuristic to split the `threads` budget, with its
    // per-width memory cap bounding how many circuits run at once.
    const std::size_t circuits = static_cast<std::size_t>(config.circuits);
    const std::size_t total =
        sim::resolveThreads(static_cast<std::size_t>(config.threads));
    sim::BatchPlan split = sim::planBatch(total, config.width, circuits);
    if (config.stateThreads != 0)
        split = {total, static_cast<std::size_t>(config.stateThreads)};

    std::vector<CircuitTally> tallies(circuits);
    sim::ThreadPool workers(std::min(split.trajWorkers, circuits));
    workers.parallelFor(circuits, [&](std::size_t ci) {
        tallies[ci] = runCircuit(config, ci, split.stateThreads);
    });

    // Reduce in circuit order, gate by gate: the same additions, in
    // the same order, as a serial run, whatever the schedule was.
    double heavySum = 0.0;
    double gateSum = 0.0, timeSum = 0.0, swapSum = 0.0;
    for (const CircuitTally &t : tallies) {
        heavySum += t.heavy;
        for (const device::GateCost &c : t.costs) {
            gateSum += c.nativeGates;
            timeSum += c.totalTime;
        }
        swapSum += static_cast<double>(t.swaps);
    }

    QvResult out;
    out.heavyOutputProportion =
        heavySum / (double(config.circuits) * double(config.trajectories));
    out.avgNativeGatesPerCircuit = gateSum / config.circuits;
    out.avgTwoQubitTimePerCircuit = timeSum / config.circuits;
    out.avgSwapsPerCircuit = swapSum / config.circuits;
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wallStart)
                          .count();
    return out;
}

} // namespace qv
} // namespace crisc
