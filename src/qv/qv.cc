#include "qv.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "ashn/special.hh"
#include "circuit/circuit.hh"
#include "circuit/noise.hh"
#include "obs/obs.hh"
#include "qop/gates.hh"
#include "route/route.hh"
#include "sim/batch.hh"
#include "sim/engine.hh"
#include "transpile/passes.hh"

namespace crisc {
namespace qv {

using linalg::Complex;
using linalg::Matrix;
using weyl::WeylPoint;

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
    if (config.blockQubits < 0)
        fail("blockQubits must be non-negative (0 = width heuristic), "
             "got " +
             std::to_string(config.blockQubits));
    if (!(config.czError >= 0.0 && config.czError <= 1.0))
        fail("czError must lie in [0, 1], got " +
             std::to_string(config.czError));
    if (!(config.singleQubitError >= 0.0 && config.singleQubitError <= 1.0))
        fail("singleQubitError must lie in [0, 1], got " +
             std::to_string(config.singleQubitError));
    if (config.device != nullptr &&
        config.device->numQubits() < config.width)
        fail("device has fewer qubits than the circuit width");
}

} // namespace

const char *
nativeSetName(NativeSet s)
{
    return device::nativeKindName(s);
}

CompiledCost
compileCost(NativeSet native, const WeylPoint &p, double ashn_cutoff)
{
    return device::makeNativeGateSet(native, 0.0, ashn_cutoff)->cost(p);
}

device::Device
presetDevice(const QvConfig &config)
{
    return device::Device::grid2d(config.native, config.width,
                                  {.twoQubitError = config.czError,
                                   .singleQubitError =
                                       config.singleQubitError,
                                   .h = 0.0,
                                   .r = config.ashnCutoff});
}

QvResult
heavyOutputExperiment(const QvConfig &config)
{
    validate(config);
    const auto wallStart = std::chrono::steady_clock::now();

    // One device drives everything below: routing (coupling map),
    // compilation cost (native gate set), and the noise budget.
    std::optional<device::Device> preset;
    const device::Device *dev = config.device;
    if (dev == nullptr) {
        preset.emplace(presetDevice(config));
        dev = &*preset;
    }
    const route::CouplingMap &map = dev->coupling();
    const device::NativeGateSet &native = dev->gateSet();
    const device::NoiseModel &noise = dev->noise();

    const std::size_t d = config.width;
    const std::size_t dim = std::size_t{1} << d;
    const std::size_t n = map.numQubits();
    const transpile::Route routePass;
    const WeylPoint swapPoint = ashn::swapPoint();
    // Three parallel axes (batch.hh): concurrent trajectories,
    // state-parallel sweeps within each, and SoA trajectory batching
    // with SIMD lanes across trajectories. stateThreads == 0 asks the
    // width heuristic to split the `threads` budget across the first
    // two; soaLanes == 0 asks it for the SoA batch width. The width
    // that matters is the *simulated* register size (compacted routed
    // qubits, >= d), so the runner is built lazily once the first
    // circuit has been routed. The choice never affects results, so
    // one representative circuit suffices.
    std::optional<sim::TrajectoryRunner> runner;
    std::optional<sim::ThreadPool> idealPool;
    sim::ExecOptions idealExec;
    std::size_t soaLanes = 1;
    const auto ensureRunner = [&](std::size_t sim_width) {
        if (runner)
            return;
        const std::size_t total = sim::resolveThreads(
            static_cast<std::size_t>(config.threads));
        const sim::BatchPlan heur = sim::planBatch(
            total, sim_width,
            static_cast<std::size_t>(config.trajectories));
        sim::BatchPlan split = heur;
        if (config.stateThreads != 0)
            split = {total, static_cast<std::size_t>(config.stateThreads)};
        soaLanes = config.soaLanes == 0
                       ? heur.soaLanes
                       : static_cast<std::size_t>(config.soaLanes);
        runner.emplace(split.trajWorkers, split.stateThreads);
        // Cache-blocked execution applies to the ideal whole-plan
        // simulation only (trajectory bodies interleave noise between
        // ops); bit-identical to unblocked execution either way.
        idealExec.blockQubits =
            config.blockQubits == 0
                ? heur.blockQubits
                : static_cast<std::size_t>(config.blockQubits);
        // The per-circuit ideal simulation runs before the trajectory
        // fan-out, so it may use the whole budget for its sweeps
        // (bit-identical to serial execution either way).
        const std::size_t totalBudget =
            runner->trajWorkers() * runner->stateThreads();
        if (totalBudget > 1) {
            idealPool.emplace(totalBudget);
            idealExec.pool = &*idealPool;
            idealExec.threads = totalBudget;
        }
    };

    double heavySum = 0.0;
    double gateSum = 0.0, timeSum = 0.0, swapSum = 0.0;

    for (int ci = 0; ci < config.circuits; ++ci) {
        OBS_SPAN("qv.circuit");
        // Circuit generation and noise sampling draw from separate
        // seed-derived streams (even / odd), so a circuit's gates
        // depend only on (seed, ci) — never on how many trajectories
        // or threads earlier circuits ran with.
        const std::uint64_t circuitStream = 2 * std::uint64_t(ci);
        linalg::Rng genRng(sim::streamSeed(config.seed, circuitStream));

        // --- Model circuit: d layers of random pairings + Haar SU(4).
        struct Block
        {
            std::size_t a, b;
            Matrix u;
        };
        std::vector<std::vector<Block>> layers(d);
        std::vector<std::size_t> order(d);
        for (std::size_t i = 0; i < d; ++i)
            order[i] = i;
        for (std::size_t layer = 0; layer < d; ++layer) {
            std::shuffle(order.begin(), order.end(), genRng.engine());
            for (std::size_t k = 0; k + 1 < d; k += 2) {
                layers[layer].push_back(
                    {order[k], order[k + 1], linalg::haarSU(genRng, 4)});
            }
        }

        circuit::Circuit model(d);
        for (const auto &layer : layers)
            for (const Block &blk : layer)
                model.add(blk.u, {blk.a, blk.b});

        // --- Route onto the device through the shared transpiler pass
        // (SWAP insertion + layout tracking), then attach the device's
        // native cost model to each physical block.
        transpile::PassContext routeCtx;
        routeCtx.coupling = &map;
        const circuit::Circuit routed = [&] {
            // Same span name the PassManager would emit for this pass.
            OBS_SPAN("pass.Route");
            return routePass.run(model, routeCtx);
        }();
        const route::Layout &layout = *routeCtx.layout;

        std::vector<PhysicalOp> ops;
        const CompiledCost swapCost = native.cost(swapPoint);
        for (const circuit::Gate &g : routed.gates()) {
            if (g.label == "swap") {
                ops.push_back({quadOp(g.qubits[0], g.qubits[1], g.op),
                               swapCost.nativeGates,
                               noise.twoQubitRateFor(swapCost.totalTime /
                                                     swapCost.nativeGates)});
                swapSum += 1.0;
                gateSum += swapCost.nativeGates;
                timeSum += swapCost.totalTime;
                continue;
            }
            const WeylPoint p = weyl::weylCoordinates(g.op);
            const CompiledCost cost = native.cost(p);
            ops.push_back({quadOp(g.qubits[0], g.qubits[1], g.op),
                           cost.nativeGates,
                           noise.twoQubitRateFor(cost.totalTime /
                                                 cost.nativeGates)});
            gateSum += cost.nativeGates;
            timeSum += cost.totalTime;
        }

        // Routing may walk logical qubits through any physical qubit,
        // but trajectory cost should scale with the circuit, not the
        // device: compact the routed ops onto the physical qubits they
        // touch (plus every logical home). The mapping is the identity
        // when the device is exactly as wide as the circuit, so the
        // canned presets are untouched bit for bit.
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
                " physical qubits; statevector simulation supports at "
                "most 30");
        for (PhysicalOp &op : ops) {
            op.kernel.q0 = compact[op.kernel.q0];
            op.kernel.q1 = compact[op.kernel.q1];
        }
        const std::size_t simDim = std::size_t{1} << nc;
        ensureRunner(nc);

        // --- Ideal output distribution and heavy set, via the kernel
        // engine (fusion is a no-op here; the quad kernel is not).
        const linalg::CVector idealAmps = [&] {
            OBS_SPAN("qv.ideal");
            return sim::run(sim::compile(model), idealExec);
        }();
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

        // Compacted basis index -> logical basis index through the
        // final layout (spare qubits marginalize out), shared
        // read-only by every trajectory. Generalizes
        // route::Layout::logicalBasisIndex to d logical of nc
        // simulated qubits.
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

        // --- Noisy trajectories, fanned out over the parallel axes in
        // tiles of soaLanes. Each trajectory owns one lane and an RNG
        // stream derived from (seed, circuit, trajectory); a tile's
        // quad sweeps run on the leased sweep pool when state-
        // parallelism is on. Every gate is one sweep over all lanes and
        // only the per-lane noise draws diverge, so each lane is
        // bit-identical to the serial trajectory with the same index.
        const std::uint64_t trajSeed =
            sim::streamSeed(config.seed, circuitStream + 1);
        heavySum += runner->sum(
            static_cast<std::size_t>(config.trajectories), trajSeed,
            soaLanes,
            [&](std::size_t, std::size_t lanes, linalg::Rng *rngs,
                const sim::ExecOptions &exec, double *out) {
                OBS_SPAN("qv.trajectory");
                OBS_COUNT("qv.trajectories", lanes);
                // A one-lane tile keeps the interleaved kernels; wider
                // tiles run SIMD lanes across trajectories.
                linalg::CVector amps;
                std::optional<sim::BatchState> batch;
                if (lanes == 1) {
                    amps.assign(simDim, Complex{0.0, 0.0});
                    amps[0] = 1.0;
                } else {
                    batch.emplace(nc, lanes);
                }
                const sim::StateView state =
                    batch ? sim::StateView(*batch)
                          : sim::StateView(amps.data(), nc);
                for (const PhysicalOp &op : ops) {
                    sim::executeOp(op.kernel, state, exec);
                    const std::size_t qa = op.kernel.q0;
                    const std::size_t qb = op.kernel.q1;
                    for (std::size_t l = 0; l < lanes; ++l) {
                        for (int g = 0; g < op.natives; ++g) {
                            circuit::applyDepolarizing(state, l, qa, qb,
                                                       op.p2, rngs[l]);
                            circuit::applyDepolarizing(
                                state, l, qa, noise.singleQubitError,
                                rngs[l]);
                            circuit::applyDepolarizing(
                                state, l, qb, noise.singleQubitError,
                                rngs[l]);
                        }
                    }
                }
                for (std::size_t l = 0; l < lanes; ++l) {
                    double hop = 0.0;
                    for (std::size_t phys = 0; phys < simDim; ++phys)
                        if (heavy[logicalIndex[phys]])
                            hop += std::norm(state.amp(phys, l));
                    out[l] = hop;
                }
            });
    }

    QvResult out;
    out.heavyOutputProportion =
        heavySum / (config.circuits * config.trajectories);
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
