/**
 * @file
 * Trajectory-major structure-of-arrays statevector batch: B independent
 * statevectors of the same register width stored so that, for every
 * amplitude index i, the B real parts are contiguous (and likewise the
 * B imaginary parts). Lane t of amplitude i lives at
 *
 *     re()[i * batch + t]  /  im()[i * batch + t]
 *
 * which makes SIMD lanes run *across trajectories* when a batched
 * gate kernel (the KernelTable *BatchRange entries) walks the amplitude
 * axis — control flow is perfectly uniform because every lane executes
 * the same compiled plan, and divergence (noise sampling, measurement)
 * is expressed per lane through the scalar sim::applyPauliLane and
 * amp().
 *
 * Conversions to and from the library's interleaved
 * std::complex<double> statevectors (pack / unpack) copy values
 * bitwise; a pack -> unpack round trip is the identity.
 *
 * StateView is the non-owning handle the engine drivers (engine.hh)
 * and the noise kernels (circuit/noise.hh) take, so one driver serves
 * both layouts: an interleaved statevector (one lane) or a BatchState.
 */

#ifndef CRISC_SIM_BATCH_STATE_HH
#define CRISC_SIM_BATCH_STATE_HH

#include <cstddef>
#include <vector>

#include "linalg/matrix.hh"

namespace crisc {
namespace sim {

/**
 * Checks, before the allocation is made, that @p lanes statevectors of
 * 2^n_qubits complex doubles (16 * 2^n * lanes bytes) fit in memory.
 * @throws std::length_error naming the width, the lanes and the bytes
 *         when the size overflows std::size_t or exceeds the host's
 *         physical memory.
 */
void checkStateFits(std::size_t n_qubits, std::size_t lanes);

/** A batch of statevectors in trajectory-major SoA layout. */
class BatchState
{
  public:
    /**
     * Creates @p batch lanes of a 2^n statevector, every lane
     * initialized to |0...0>.
     * @throws std::invalid_argument when batch == 0.
     * @throws std::length_error when the lanes do not fit in memory
     *         (checkStateFits).
     */
    BatchState(std::size_t n_qubits, std::size_t batch);

    /**
     * Packs @p states (all the same power-of-two length) into a batch
     * with one lane per input vector, bitwise.
     * @throws std::invalid_argument on an empty list or mismatched /
     *         non-power-of-two lengths.
     */
    static BatchState pack(const std::vector<linalg::CVector> &states);

    /** Overwrites one lane from an interleaved statevector, bitwise.
     *  @throws std::invalid_argument on lane or size mismatch. */
    void packLane(std::size_t lane, const linalg::CVector &amps);

    /** Extracts one lane as an interleaved statevector, bitwise.
     *  @throws std::invalid_argument when lane >= batch(). */
    linalg::CVector unpackLane(std::size_t lane) const;

    /** unpackLane for every lane, in lane order. */
    std::vector<linalg::CVector> unpack() const;

    /** Amplitude @p index of lane @p lane (unchecked hot-path read). */
    linalg::Complex amp(std::size_t index, std::size_t lane) const
    {
        const std::size_t at = index * batch_ + lane;
        return {re_[at], im_[at]};
    }

    std::size_t numQubits() const { return nQubits_; }
    std::size_t dim() const { return std::size_t{1} << nQubits_; }
    std::size_t batch() const { return batch_; }

    double *re() { return re_.data(); }
    double *im() { return im_.data(); }
    const double *re() const { return re_.data(); }
    const double *im() const { return im_.data(); }

  private:
    std::size_t nQubits_;
    std::size_t batch_;
    std::vector<double> re_; ///< dim * batch, lane-major per amplitude.
    std::vector<double> im_;
};

/**
 * Non-owning view of the state an engine driver sweeps: either one
 * interleaved 2^n statevector (a single lane, run by the interleaved
 * kernels) or the split re/im arrays of a BatchState's lanes (run by
 * the SoA kernels). Only the range dispatch (engine.hh executeOpRange)
 * and the per-lane noise and read-out branch on the layout.
 */
class StateView
{
  public:
    /** One interleaved statevector of 2^n_qubits amplitudes. */
    StateView(linalg::Complex *amps, std::size_t n_qubits)
        : amps_(amps), nQubits_(n_qubits)
    {
    }

    /** Every lane of @p batch (implicit: a BatchState is a state). */
    StateView(BatchState &batch)
        : re_(batch.re()), im_(batch.im()), nQubits_(batch.numQubits()),
          lanes_(batch.batch())
    {
    }

    bool interleaved() const { return amps_ != nullptr; }
    std::size_t numQubits() const { return nQubits_; }
    std::size_t lanes() const { return lanes_; }

    linalg::Complex *amps() const { return amps_; }
    double *re() const { return re_; }
    double *im() const { return im_; }

    /** Amplitude @p index of lane @p lane (unchecked hot-path read). */
    linalg::Complex amp(std::size_t index, std::size_t lane) const
    {
        if (amps_ != nullptr)
            return amps_[index];
        const std::size_t at = index * lanes_ + lane;
        return {re_[at], im_[at]};
    }

  private:
    linalg::Complex *amps_ = nullptr;
    double *re_ = nullptr;
    double *im_ = nullptr;
    std::size_t nQubits_;
    std::size_t lanes_ = 1;
};

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_BATCH_STATE_HH
