/**
 * @file
 * Canned transpiler pipelines and the batch driver: one entry point
 * from a logical circuit to a routed native program on a target
 * device::Device. Every workload (the quantum-volume harness, the
 * examples, perfbench) assembles its pipeline here, so they all
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

/** The target makePipeline builds for. */
struct TranspileOptions
{
    /**
     * Target device: supplies the coupling map (routing) and the
     * native gate set (lowering). When null, nothing is routed and
     * NativeLower uses its default, an ideal AshN set (h = r = 0).
     */
    const device::Device *device = nullptr;
};

/**
 * Builds the standard pipeline for @p opts, in order:
 * WideGateDecompose, SingleQubitFuse, PeepholeCancel, Route (only with
 * a device), NativeLower (driven by the device's gate set when a
 * device is given). A partial or custom pipeline is a PassManager
 * assembled with emplace<...>().
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
