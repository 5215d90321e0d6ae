#include "batch_state.hh"

#include <unistd.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace crisc {
namespace sim {

void
checkStateFits(std::size_t n_qubits, std::size_t lanes)
{
    const std::string what = std::to_string(n_qubits) + "-qubit state x " +
                             std::to_string(lanes) + " lane(s)";
    constexpr std::size_t kAmpBytes = sizeof(linalg::Complex);
    if (n_qubits >= std::numeric_limits<std::size_t>::digits ||
        lanes > (std::numeric_limits<std::size_t>::max() / kAmpBytes) >>
                    n_qubits)
        throw std::length_error(what + ": " + std::to_string(kAmpBytes) +
                                " * 2^" + std::to_string(n_qubits) + " * " +
                                std::to_string(lanes) +
                                " bytes overflows std::size_t");
    const std::size_t bytes = (kAmpBytes << n_qubits) * lanes;
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long pageSize = sysconf(_SC_PAGE_SIZE);
    if (pages <= 0 || pageSize <= 0)
        return; // Physical memory unknown: only the overflow check holds.
    const std::size_t physical = static_cast<std::size_t>(pages) *
                                 static_cast<std::size_t>(pageSize);
    if (bytes > physical)
        throw std::length_error(what + ": needs " + std::to_string(bytes) +
                                " bytes, more than the host's " +
                                std::to_string(physical) +
                                " bytes of physical memory");
}

BatchState::BatchState(std::size_t n_qubits, std::size_t batch)
    : nQubits_(n_qubits), batch_(batch)
{
    if (batch == 0)
        throw std::invalid_argument("BatchState: batch must be at least 1");
    checkStateFits(n_qubits, batch_);
    const std::size_t total = dim() * batch_;
    re_.assign(total, 0.0);
    im_.assign(total, 0.0);
    for (std::size_t t = 0; t < batch_; ++t)
        re_[t] = 1.0; // |0...0> in every lane.
}

BatchState
BatchState::pack(const std::vector<linalg::CVector> &states)
{
    if (states.empty())
        throw std::invalid_argument("BatchState::pack: empty batch");
    const std::size_t dim = states[0].size();
    if (dim == 0 || (dim & (dim - 1)) != 0)
        throw std::invalid_argument(
            "BatchState::pack: statevector length must be a power of two, "
            "got " +
            std::to_string(dim));
    std::size_t n = 0;
    while ((std::size_t{1} << n) < dim)
        ++n;
    BatchState out(n, states.size());
    for (std::size_t t = 0; t < states.size(); ++t)
        out.packLane(t, states[t]);
    return out;
}

void
BatchState::packLane(std::size_t lane, const linalg::CVector &amps)
{
    if (lane >= batch_)
        throw std::invalid_argument("BatchState::packLane: lane " +
                                    std::to_string(lane) +
                                    " out of range");
    if (amps.size() != dim())
        throw std::invalid_argument(
            "BatchState::packLane: statevector has " +
            std::to_string(amps.size()) + " amplitudes, batch expects " +
            std::to_string(dim()));
    for (std::size_t i = 0; i < amps.size(); ++i) {
        re_[i * batch_ + lane] = amps[i].real();
        im_[i * batch_ + lane] = amps[i].imag();
    }
}

linalg::CVector
BatchState::unpackLane(std::size_t lane) const
{
    if (lane >= batch_)
        throw std::invalid_argument("BatchState::unpackLane: lane " +
                                    std::to_string(lane) +
                                    " out of range");
    linalg::CVector amps(dim());
    for (std::size_t i = 0; i < amps.size(); ++i)
        amps[i] = {re_[i * batch_ + lane], im_[i * batch_ + lane]};
    return amps;
}

std::vector<linalg::CVector>
BatchState::unpack() const
{
    std::vector<linalg::CVector> out;
    out.reserve(batch_);
    for (std::size_t t = 0; t < batch_; ++t)
        out.push_back(unpackLane(t));
    return out;
}

} // namespace sim
} // namespace crisc
