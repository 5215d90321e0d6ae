/**
 * @file
 * Quantum-volume harness (paper Sec. 6.3, Figure 7): square random
 * model circuits compiled to a target device::Device — its coupling
 * map drives SWAP routing, its native gate set prices every two-qubit
 * block, and its noise model sets the per-native-gate depolarizing
 * rate (proportional to gate time). The figure of merit is the heavy
 * output proportion (Cross et al.).
 *
 * The harness holds the paper's error model: each routed SU(4) block
 * is applied ideally, followed by the depolarizing budget of the
 * native gates the device's cost model charges for it. The actual
 * native decomposition (transpile::NativeLower) is unitary-equivalent
 * — tests/test_device.cc proves it per gate set — so the ideal-block
 * application changes nothing but the floating-point path.
 *
 * Model circuits are independent samples, so they are what runs in
 * parallel: one worker takes one circuit end to end (generation, the
 * ideal run and heavy set, routing, costing, and its noisy
 * trajectories in SoA tiles) and writes an indexed slot. The slots are
 * reduced in circuit order, gate by gate, so every result field is
 * bit-for-bit the serial run's for any thread, sweep or lane count.
 */

#ifndef CRISC_QV_QV_HH
#define CRISC_QV_QV_HH

#include <cstddef>

#include "device/device.hh"

namespace crisc {
namespace qv {

/** Experiment configuration. Knobs cover the three parallel axes —
 *  circuits, sweeps within a circuit, and SoA trajectory lanes; cache
 *  blocking follows the engine's auto policy (sim/cache.hh). The
 *  kernel SIMD backend is not configurable here — it is
 *  process-global, resolved from CRISC_SIMD_DISPATCH or the CPU probe
 *  (sim/dispatch.hh), and every backend is bit-identical anyway. */
struct QvConfig
{
    std::size_t width = 4;       ///< circuit size d (qubits and layers).
    /**
     * The target (required): its coupling map routes, its gate set
     * prices, and its noise model sets the rates. Must have at least
     * `width` qubits; e.g. device::Device::grid2d(kind, width, ...)
     * for the paper's Figure-7 grids.
     */
    const device::Device *device = nullptr;
    int circuits = 40;           ///< random model circuits to average.
    int trajectories = 20;       ///< noise trajectories per circuit.
    std::uint64_t seed = 1;
    /**
     * Circuit workers (0 = hardware concurrency): each runs whole
     * model circuits, one at a time. A run with fewer circuits than
     * threads leaves the surplus threads idle. Results are bit-for-bit
     * identical for any value: every circuit and trajectory draws from
     * its own seed-derived RNG stream and the reduction order is
     * fixed. Negative values are rejected with std::invalid_argument.
     */
    int threads = 0;
    /**
     * State-parallel sweep workers per circuit task (the second
     * parallel axis, sim::ExecOptions): 1 = serial sweeps (default),
     * n > 1 = each running circuit sweeps on a local pool of n
     * workers, 0 = split the `threads` budget between circuit and
     * sweep workers automatically from the circuit width via
     * sim::planBatch, whose per-width memory cap bounds how many wide
     * circuits run at once. Results are bit-for-bit identical for any
     * value; negative values are rejected with std::invalid_argument.
     */
    int stateThreads = 1;
    /**
     * SoA trajectory batching (the third parallel axis,
     * sim::BatchState): number of trajectories packed into one SoA
     * batch, so SIMD lanes run across trajectories. 0 = pick per
     * circuit from its simulated (routed, compacted) width via
     * sim::planBatch (the SIMD lane count below 18 qubits, 1 above),
     * 1 = off (per-state path), n > 1 = force a batch width of n.
     * Results are bit-for-bit identical for any value; negative values
     * are rejected with std::invalid_argument.
     */
    int soaLanes = 0;
};

/** Aggregated result for one configuration. */
struct QvResult
{
    double heavyOutputProportion = 0.0;
    double avgNativeGatesPerCircuit = 0.0;
    double avgTwoQubitTimePerCircuit = 0.0; ///< units of 1/g.
    double avgSwapsPerCircuit = 0.0;
    /**
     * Wall-clock time of the experiment in seconds (timing only — not
     * part of the deterministic result).
     */
    double wallSeconds = 0.0;
};

/**
 * Runs the heavy-output experiment for one configuration.
 * @throws std::invalid_argument, naming the field, on a null device, a
 *         zero width, non-positive circuit or trajectory counts,
 *         negative thread or lane counts, or a device smaller than the
 *         circuit.
 */
QvResult heavyOutputExperiment(const QvConfig &config);

} // namespace qv
} // namespace crisc

#endif // CRISC_QV_QV_HH
