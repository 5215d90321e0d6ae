/**
 * @file
 * Core abstractions of the pass-based transpiler: a `Pass` rewrites a
 * gate-list `circuit::Circuit` while reading/writing shared
 * `PassContext` state (device coupling, routing layout, emitted pulse
 * schedule), and a `PassMetrics` record captures what each pass did to
 * the circuit. The `PassManager` (pass_manager.hh) strings passes into
 * a pipeline; canned pipelines live in transpile.hh.
 *
 * Passes are immutable after construction and their `run` is const, so
 * one pipeline instance can transpile many circuits concurrently (each
 * with its own PassContext) — the batch driver relies on this.
 */

#ifndef CRISC_TRANSPILE_PASS_HH
#define CRISC_TRANSPILE_PASS_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "ashn/scheme.hh"
#include "circuit/circuit.hh"
#include "route/route.hh"

namespace crisc {
namespace transpile {

/** One pulse of the emitted schedule (AshN targets only). */
struct PulseOp
{
    std::size_t a = 0, b = 0;  ///< the two register qubits (a = gate msq).
    ashn::GateParams params;   ///< pulse controls (g = 1 units).
};

/**
 * Shared state threaded through a pipeline run. Inputs (device
 * coupling) are set by the caller — usually from a device::Device via
 * TranspileOptions; outputs (routing layout, pulse schedule) are
 * filled in by the passes that produce them. Gate-set parameters (ZZ
 * ratio h, drive cutoff r) live in the NativeGateSet held by the
 * NativeLower pass, not here.
 */
struct PassContext
{
    // --- inputs
    /** Device connectivity; required by Route, ignored elsewhere. */
    const route::CouplingMap *coupling = nullptr;

    // --- outputs
    /** Final logical-to-physical assignment, set by Route. */
    std::optional<route::Layout> layout;
    /** Pulse schedule, appended to by NativeLower for pulse-based sets
     * (one per 2q gate on an AshN target). */
    std::vector<PulseOp> pulses;
    /** Total two-qubit interaction time of the lowered program (1/g):
     * pulse times on AshN targets, native-gate times otherwise. */
    double totalPulseTime = 0.0;
    std::size_t nativeGates = 0;       ///< native 2q gates emitted.
    std::size_t singleQubitGates = 0;  ///< 1q gates in the lowered output.

    // --- per-pass scratch
    /**
     * Largest intermediate gate count the *current* pass saw. Reset to
     * 0 by the PassManager before each pass; a pass that builds a
     * transient circuit bigger than both its input and its output
     * should raise this, and PassMetrics::gatesPeak records
     * max(before, after, peakGates) either way.
     */
    std::size_t peakGates = 0;
};

/** A circuit-to-circuit rewrite step. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable pass name, used in metrics reports. */
    virtual const char *name() const = 0;

    /**
     * Rewrites @p in, reading/writing @p ctx. Must preserve the circuit
     * unitary up to global phase (Route: up to the qubit permutation it
     * records in ctx.layout).
     */
    virtual circuit::Circuit run(const circuit::Circuit &in,
                                 PassContext &ctx) const = 0;
};

/** What one pass did to the circuit, plus its cost. */
struct PassMetrics
{
    std::string pass;
    std::size_t gatesBefore = 0, gatesAfter = 0;
    /**
     * Peak intermediate gate count: max(gatesBefore, gatesAfter, any
     * PassContext::peakGates the pass reported). Before/after deltas
     * alone hide a pass that expands and then shrinks the circuit;
     * this field makes the transpile report agree with what the trace
     * spans actually covered.
     */
    std::size_t gatesPeak = 0;
    std::size_t twoQubitBefore = 0, twoQubitAfter = 0;
    std::size_t depthBefore = 0, depthAfter = 0;
    /** ctx.totalPulseTime after the pass (0 until NativeLower runs). */
    double pulseTimeAfter = 0.0;
    /**
     * Wall time of the pass, measured by the same obs::TimedSpan that
     * emits the "pass.<name>" trace event — the report field and the
     * span duration come from the same two clock samples.
     */
    double wallSeconds = 0.0;
};

/** Per-pass metrics for one pipeline run. */
struct TranspileReport
{
    std::vector<PassMetrics> passes;
    double totalWallSeconds = 0.0;

    /** Formatted table, one line per pass. */
    std::string summary() const;
};

} // namespace transpile
} // namespace crisc

#endif // CRISC_TRANSPILE_PASS_HH
