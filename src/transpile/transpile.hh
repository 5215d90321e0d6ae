/**
 * @file
 * Canned transpiler pipelines and the batch driver: one entry point
 * from a logical circuit to a routed native program on a target
 * device. Every workload (synth::compileCircuit, the quantum-volume
 * harness, the examples) assembles its pipeline here, so they all
 * exercise the same pass implementations.
 *
 * transpileBatch fans independent circuits out over a sim::ThreadPool;
 * results land in per-circuit slots, so output order is deterministic
 * and independent of the thread count, and the lowering gate set (with
 * its Weyl cache, on AshN targets) is shared across the whole batch.
 */

#ifndef CRISC_TRANSPILE_TRANSPILE_HH
#define CRISC_TRANSPILE_TRANSPILE_HH

#include "device/device.hh"
#include "transpile/pass_manager.hh"
#include "transpile/passes.hh"

namespace crisc {
namespace transpile {

/** Which passes makePipeline assembles, and their targets. */
struct TranspileOptions
{
    /**
     * Target device: supplies the coupling map (routing) and the
     * native gate set (lowering). When null, the legacy knobs below
     * apply: route onto `coupling` (if any) and lower to an AshN set
     * built from (h, r).
     */
    const device::Device *device = nullptr;
    double h = 0.0;  ///< ZZ coupling ratio (AshN lowering, no device).
    double r = 0.0;  ///< AshN drive cutoff (no device).
    /** Route onto this map when non-null and device is null. */
    const route::CouplingMap *coupling = nullptr;
    bool decomposeWide = true;    ///< expand k >= 3 gates (QSD).
    bool fuseSingleQubit = true;  ///< merge 1q runs into 2q neighbours.
    bool peephole = true;         ///< cancel identities / inverse pairs.
    bool lowerToPulses = true;    ///< emit the native program.
};

/**
 * Builds the standard pipeline for @p opts, in order:
 * WideGateDecompose, SingleQubitFuse, PeepholeCancel, Route,
 * NativeLower (each gated by its option); NativeLower is driven by the
 * device's gate set when a device is given.
 */
PassManager makePipeline(const TranspileOptions &opts);

/** Builds the pipeline for @p opts and runs @p logical through it. */
TranspileResult transpile(const circuit::Circuit &logical,
                          const TranspileOptions &opts = {});

/**
 * Transpiles every circuit through ONE shared pipeline, fanning out
 * over a thread pool (@p threads workers, 0 = hardware concurrency).
 * Results are index-aligned with the inputs and identical to calling
 * transpile() sequentially, for any thread count; a first thrown
 * exception is rethrown on the calling thread.
 * @throws std::invalid_argument if @p threads is negative.
 */
std::vector<TranspileResult>
transpileBatch(const std::vector<circuit::Circuit> &circuits,
               const TranspileOptions &opts = {}, int threads = 0);

} // namespace transpile
} // namespace crisc

#endif // CRISC_TRANSPILE_TRANSPILE_HH
