/**
 * @file
 * The device (target) model: one object owning everything compilation
 * and simulation need to know about a machine —
 *
 *   - connectivity: a route::CouplingMap,
 *   - the native two-qubit instruction set: a NativeGateSet,
 *   - the noise model: gate-time-proportional depolarizing rates.
 *
 * A Device is the one way to name a target. It is constructed once and
 * threaded through the stack: the transpiler routes onto its coupling
 * map and lowers through its gate set
 * (transpile::TranspileOptions::device), and the quantum-volume
 * harness derives per-gate noise budgets from its cost and noise
 * models (qv::QvConfig::device). grid2d(kind, n) builds the paper's
 * three Figure-7 scenarios; withCoupling builds anything else.
 */

#ifndef CRISC_DEVICE_DEVICE_HH
#define CRISC_DEVICE_DEVICE_HH

#include <memory>
#include <string>
#include <utility>

#include "device/native_set.hh"
#include "route/route.hh"

namespace crisc {
namespace device {

/**
 * Gate-time-proportional depolarizing noise (paper Sec. 6.3): every
 * native two-qubit gate suffers two-qubit depolarizing noise at rate
 * twoQubitError * (gate time / referenceTime), plus single-qubit
 * depolarizing noise at singleQubitError on each involved qubit. The
 * reference is the CZ gate time, so twoQubitError reads as "the error
 * rate of a CZ" regardless of the device's native set.
 */
struct NoiseModel
{
    double twoQubitError = 0.01;     ///< rate of a referenceTime-long gate.
    double singleQubitError = 0.001; ///< per qubit, per native gate.
    double referenceTime = kCzTime;  ///< time the 2q rate is quoted at.

    /** Depolarizing rate of one native gate of time @p gate_time. */
    double twoQubitRateFor(double gate_time) const
    {
        return twoQubitError * gate_time / referenceTime;
    }

    /** @throws std::invalid_argument on out-of-range rates/time. */
    void validate() const;
};

/** Parameters shared by the Device factories (grid2d, withCoupling). */
struct DeviceParams
{
    double twoQubitError = 0.01;     ///< CZ-referenced 2q rate.
    double singleQubitError = 0.001; ///< per qubit, per native gate.
    double h = 0.0;                  ///< parasitic ZZ ratio (AshN).
    double r = 0.0;                  ///< AshN drive cutoff.
};

/** A target machine: coupling + native gate set + noise. */
class Device
{
  public:
    using Params = DeviceParams;

    /**
     * General constructor; the factories below are usually simpler.
     * @throws std::invalid_argument on an empty device, a null gate
     *         set, or an invalid noise model.
     */
    Device(std::string name, route::CouplingMap coupling,
           std::shared_ptr<const NativeGateSet> gate_set, NoiseModel noise);

    // --- factories ---------------------------------------------------

    /** Most-square 2D grid of n qubits (the paper's Figure-7 devices). */
    static Device grid2d(NativeKind kind, std::size_t n,
                         const Params &p = {});

    /**
     * Any prebuilt coupling map (line, ring, heavyHex, fromEdges,
     * full, ...).
     */
    static Device withCoupling(NativeKind kind, route::CouplingMap coupling,
                               const Params &p = {});

    // --- accessors ---------------------------------------------------

    const std::string &name() const { return name_; }
    std::size_t numQubits() const { return coupling_.numQubits(); }
    const route::CouplingMap &coupling() const { return coupling_; }
    const NativeGateSet &gateSet() const { return *gateSet_; }
    /** Shared handle, e.g. for a pipeline outliving the Device. */
    std::shared_ptr<const NativeGateSet> gateSetPtr() const
    {
        return gateSet_;
    }
    const NoiseModel &noise() const { return noise_; }

  private:
    std::string name_;
    route::CouplingMap coupling_;
    std::shared_ptr<const NativeGateSet> gateSet_;
    NoiseModel noise_;
};

} // namespace device
} // namespace crisc

#endif // CRISC_DEVICE_DEVICE_HH
