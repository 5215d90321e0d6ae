/**
 * @file
 * Figure-level regression tests (ctest label: slow). The heavy-output
 * values below were captured on pre-refactor main (the hand-rolled
 * per-native-set qv harness) and are asserted bit-identical: the
 * Device-driven rewrite must not perturb a single ulp of the Figure-7
 * numbers on the three grid devices.
 */

#include <gtest/gtest.h>

#include "device/device.hh"
#include "qv/qv.hh"

namespace {

using namespace crisc;
using device::Device;
using device::NativeKind;

struct Pinned
{
    NativeKind native;
    double cutoff;
    std::size_t width;
    double hop;
    double gates;
    double time;
    double swaps;
};

// Captured with: 2q error 0.012, 1q error 0.001, circuits 8,
// trajectories 6, seed 1000 + width, threads 1, on pre-refactor main.
// Each row runs on Device::grid2d(native, width) with drive cutoff
// `cutoff`.
const Pinned kPinned[] = {
    {NativeKind::AshN, 0.0, 3, 0.81123800856606321, 4.0,
     6.1811523084202431, 1.0},
    {NativeKind::AshN, 0.0, 5, 0.85543867285074482, 16.375,
     28.424845434468065, 6.375},
    {NativeKind::AshN, 1.1, 3, 0.81123800856606321, 4.0,
     6.7157690114982493, 1.0},
    {NativeKind::AshN, 1.1, 5, 0.85543867285074482, 16.375,
     29.97654032414048, 6.375},
    {NativeKind::SQiSW, 0.0, 3, 0.83266479816834116, 9.375,
     7.3631077818510802, 1.0},
    {NativeKind::SQiSW, 0.0, 5, 0.82663608635447539, 40.625,
     31.906800388021281, 6.375},
    {NativeKind::CZ, 0.0, 3, 0.78259508096983532, 12.0,
     26.657297628950204, 1.0},
    {NativeKind::CZ, 0.0, 5, 0.74872018163893939, 49.125,
     109.12831216851504, 6.375},
};

Device
deviceFor(const Pinned &p)
{
    return Device::grid2d(p.native, p.width,
                          {.twoQubitError = 0.012,
                           .singleQubitError = 0.001,
                           .h = 0.0,
                           .r = p.cutoff});
}

qv::QvConfig
configFor(const Pinned &p, const Device &dev)
{
    qv::QvConfig cfg;
    cfg.width = p.width;
    cfg.device = &dev;
    cfg.circuits = 8;
    cfg.trajectories = 6;
    cfg.seed = 1000 + p.width;
    cfg.threads = 1;
    return cfg;
}

TEST(Figure7, HeavyOutputBitIdenticalToPreRefactorMain)
{
    for (const Pinned &p : kPinned) {
        const Device dev = deviceFor(p);
        const qv::QvResult r =
            qv::heavyOutputExperiment(configFor(p, dev));
        // EXPECT_EQ on doubles: exact, bit-identical comparison.
        EXPECT_EQ(r.heavyOutputProportion, p.hop)
            << device::nativeKindName(p.native) << " r=" << p.cutoff
            << " d=" << p.width;
        EXPECT_EQ(r.avgNativeGatesPerCircuit, p.gates);
        EXPECT_EQ(r.avgTwoQubitTimePerCircuit, p.time);
        EXPECT_EQ(r.avgSwapsPerCircuit, p.swaps);
    }
}

TEST(Figure7, ThreadCountInvariant)
{
    // The circuit fan-out must not perturb the reduction: 8 circuits
    // split unevenly over 3 workers reproduce every pinned row bit for
    // bit.
    for (const Pinned &p : kPinned) {
        const Device dev = deviceFor(p);
        qv::QvConfig cfg = configFor(p, dev);
        cfg.threads = 3;
        const qv::QvResult r = qv::heavyOutputExperiment(cfg);
        EXPECT_EQ(r.heavyOutputProportion, p.hop)
            << device::nativeKindName(p.native) << " r=" << p.cutoff
            << " d=" << p.width;
        EXPECT_EQ(r.avgNativeGatesPerCircuit, p.gates);
        EXPECT_EQ(r.avgTwoQubitTimePerCircuit, p.time);
        EXPECT_EQ(r.avgSwapsPerCircuit, p.swaps);
    }
}

} // namespace
