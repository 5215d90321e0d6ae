#include "device.hh"

#include <cmath>
#include <stdexcept>
#include <string>

namespace crisc {
namespace device {

namespace {

void
checkRate(double v, const char *what)
{
    if (!(v >= 0.0 && v <= 1.0))
        throw std::invalid_argument(std::string("NoiseModel: ") + what +
                                    " must lie in [0, 1], got " +
                                    std::to_string(v));
}

NoiseModel
noiseFor(const Device::Params &p)
{
    NoiseModel n;
    n.twoQubitError = p.twoQubitError;
    n.singleQubitError = p.singleQubitError;
    return n;
}

std::string
presetName(NativeKind kind, const char *topology)
{
    return std::string(topology) + "-" + nativeKindName(kind);
}

} // namespace

void
NoiseModel::validate() const
{
    checkRate(twoQubitError, "twoQubitError");
    checkRate(singleQubitError, "singleQubitError");
    if (!(std::isfinite(referenceTime) && referenceTime > 0.0))
        throw std::invalid_argument(
            "NoiseModel: referenceTime must be finite and positive, got " +
            std::to_string(referenceTime));
}

Device::Device(std::string name, route::CouplingMap coupling,
               std::shared_ptr<const NativeGateSet> gate_set,
               NoiseModel noise)
    : name_(std::move(name)), coupling_(std::move(coupling)),
      gateSet_(std::move(gate_set)), noise_(noise)
{
    if (coupling_.numQubits() == 0)
        throw std::invalid_argument(
            "Device: need at least one physical qubit");
    if (gateSet_ == nullptr)
        throw std::invalid_argument("Device: native gate set is null");
    noise_.validate();
}

Device
Device::grid2d(NativeKind kind, std::size_t n, const Params &p)
{
    return {presetName(kind, "grid2d"), route::CouplingMap::gridFor(n),
            makeNativeGateSet(kind, p.h, p.r), noiseFor(p)};
}

Device
Device::withCoupling(NativeKind kind, route::CouplingMap coupling,
                     const Params &p)
{
    return {presetName(kind, "device"), std::move(coupling),
            makeNativeGateSet(kind, p.h, p.r), noiseFor(p)};
}

} // namespace device
} // namespace crisc
