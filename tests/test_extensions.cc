/**
 * @file
 * Tests for the extension features: the constructive generic-gate QSD
 * (Theorem 13) and the FRB average-fidelity estimator.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "ashn/special.hh"
#include "calib/frb.hh"
#include "calib/pulse_opt.hh"
#include "device/device.hh"
#include "linalg/random.hh"
#include "qop/metrics.hh"
#include "route/route.hh"
#include "synth/qsd.hh"
#include "transpile/transpile.hh"

namespace {

using namespace crisc;
using linalg::Matrix;

TEST(GenericQsd, CountFormula)
{
    EXPECT_EQ(synth::genericQsdCount(3), 12u);
    EXPECT_EQ(synth::genericQsdCount(4), 4u * 12 + 24); // 72
    EXPECT_EQ(synth::genericQsdCount(5), 4u * 72 + 48); // 336
    // One base-case gate above the paper's Theorem 13 at every n.
    EXPECT_EQ(synth::theorem13Count(4), 68u);
}

TEST(GenericQsd, TwoAndThreeQubitBases)
{
    linalg::Rng rng(5);
    const Matrix u2 = linalg::haarUnitary(rng, 4);
    const circuit::Circuit c2 = synth::genericQsd(u2);
    EXPECT_EQ(c2.twoQubitCount(), 1u);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(c2.toUnitary(), u2, 1e-9));

    const Matrix u3 = linalg::haarUnitary(rng, 8);
    const circuit::Circuit c3 = synth::genericQsd(u3);
    EXPECT_LE(c3.twoQubitCount(), 12u);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(c3.toUnitary(), u3, 1e-5));
}

TEST(GenericQsd, FourQubitHaarUnitary)
{
    linalg::Rng rng(7);
    const Matrix u = linalg::haarUnitary(rng, 16);
    const circuit::Circuit c = synth::genericQsd(u);
    EXPECT_LE(c.twoQubitCount(), synth::genericQsdCount(4));
    // Substantially below the CNOT-set construction.
    EXPECT_LT(c.twoQubitCount(), synth::qsdCnotCount(4));
    EXPECT_TRUE(qop::equalUpToGlobalPhase(c.toUnitary(), u, 1e-5));
}

TEST(Frb, NoiselessSurvivalStaysAtOne)
{
    linalg::Rng rng(11);
    calib::FrbNoise noise; // no depolarizing, identity transfer
    const calib::FrbResult r =
        calib::runFrb(noise, {1, 4, 8}, 10, 1.1, rng);
    for (const auto &pt : r.decay)
        EXPECT_NEAR(pt.survival, 1.0, 1e-9) << "m=" << pt.length;
    EXPECT_NEAR(r.averageGateFidelity, 1.0, 1e-6);
}

TEST(Frb, DecayTracksDepolarizingStrength)
{
    linalg::Rng rng(13);
    calib::FrbNoise weak;
    weak.depolarizingPerTime = 0.005;
    calib::FrbNoise strong;
    strong.depolarizingPerTime = 0.03;
    const std::vector<int> lengths{1, 3, 6, 10, 15};
    const calib::FrbResult rw = calib::runFrb(weak, lengths, 60, 1.1, rng);
    const calib::FrbResult rs = calib::runFrb(strong, lengths, 60, 1.1, rng);
    EXPECT_GT(rw.fittedDecayRate, rs.fittedDecayRate);
    EXPECT_GT(rw.averageGateFidelity, rs.averageGateFidelity);
    // Rough magnitude: per-gate error ~ rate * mean gate time (~1.5/g).
    EXPECT_NEAR(1.0 - rw.fittedDecayRate, 0.005 * 1.5, 0.006);
    EXPECT_LT(rs.averageGateFidelity, 0.99);
    EXPECT_GT(rs.averageGateFidelity, 0.90);
}

TEST(Frb, CoherentControlErrorLowersFidelity)
{
    linalg::Rng rng(17);
    calib::FrbNoise miscal;
    miscal.transfer = {1.05, 0.95, 1.05}; // 5% transfer error, no decoherence
    const calib::FrbResult r =
        calib::runFrb(miscal, {1, 3, 6, 10}, 40, 1.1, rng);
    EXPECT_LT(r.averageGateFidelity, 0.999);
    EXPECT_GT(r.averageGateFidelity, 0.5);
}

class PulseOptShapes
    : public ::testing::TestWithParam<calib::EnvelopeShape>
{
};

TEST_P(PulseOptShapes, RecalibrationCancelsEnvelopeDistortion)
{
    // Paper footnote 4: ramped envelopes "can be addressed with proper
    // calibration". Demonstrate it on the CNOT class with a ramp of 12%
    // of the gate time.
    const weyl::WeylPoint target{M_PI / 4.0, 0.0, 0.0};
    const calib::PulseOptResult r = calib::optimizePulse(
        target, 0.0, 0.0, GetParam(), 0.12 * M_PI / 2.0);
    EXPECT_GT(r.errorBefore, 1e-3);
    EXPECT_LT(r.errorAfter, 1e-7);
    EXPECT_LT(r.errorAfter, r.errorBefore / 100.0);
    // The recalibrated pulse stretches to recover the lost area.
    EXPECT_GT(r.params.tau, M_PI / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PulseOptShapes,
                         ::testing::Values(calib::EnvelopeShape::Trapezoid,
                                           calib::EnvelopeShape::CosineRamp));

TEST(PulseOpt, GenericChamberPointWithZZ)
{
    const weyl::WeylPoint target{0.6, 0.45, 0.2};
    const calib::PulseOptResult r = calib::optimizePulse(
        target, 0.2, 0.0, calib::EnvelopeShape::Trapezoid, 0.1);
    EXPECT_LT(r.errorAfter, 1e-6);
    EXPECT_LT(r.errorAfter, r.errorBefore);
    EXPECT_TRUE(linalg::isUnitary(r.realized, 1e-9));
}

TEST(PulseOpt, SquareEnvelopeNeedsNoCorrection)
{
    const weyl::WeylPoint target{0.5, 0.3, -0.1};
    const calib::PulseOptResult r = calib::optimizePulse(
        target, 0.0, 0.0, calib::EnvelopeShape::Square, 0.0);
    EXPECT_LT(r.errorBefore, 1e-6);
}

/** An AshN device on a complete coupling map: routing onto it inserts
 *  nothing, so a program compiled for it is comparable to its input. */
device::Device
fullAshN(std::size_t n, double h, double r)
{
    return device::Device::withCoupling(device::NativeKind::AshN,
                                        route::CouplingMap::full(n),
                                        {.h = h, .r = r});
}

TEST(Compiler, PreservesCircuitUnitary)
{
    linalg::Rng rng(21);
    circuit::Circuit c(3);
    c.add(linalg::haarUnitary(rng, 2), {0}, "u0");
    c.add(linalg::haarUnitary(rng, 4), {0, 1}, "u01");
    c.add(linalg::haarUnitary(rng, 2), {2}, "u2");
    c.add(linalg::haarUnitary(rng, 4), {1, 2}, "u12");
    c.add(linalg::haarUnitary(rng, 4), {2, 0}, "u20");
    const device::Device dev = fullAshN(3, 0.1, 1.1);
    const transpile::TranspileResult prog =
        transpile::transpile(c, {.device = &dev});
    EXPECT_TRUE(qop::equalUpToGlobalPhase(prog.circuit.toUnitary(),
                                          c.toUnitary(), 1e-5));
    // One pulse per two-qubit gate, nothing more.
    EXPECT_EQ(prog.context.pulses.size(), 3u);
    EXPECT_EQ(prog.circuit.twoQubitCount(), 3u);
    EXPECT_GT(prog.context.totalPulseTime, 0.0);
    for (const auto &p : prog.context.pulses)
        EXPECT_LE(p.params.maxDrive(), ashn::driveBound(1.1) + 1e-6);
}

TEST(Compiler, ExpandsWideGatesThroughGenericQsd)
{
    linalg::Rng rng(23);
    circuit::Circuit c(3);
    c.add(linalg::haarUnitary(rng, 8), {0, 1, 2}, "u012");
    const device::Device dev = fullAshN(3, 0.0, 1.1);
    const transpile::TranspileResult prog =
        transpile::transpile(c, {.device = &dev});
    EXPECT_TRUE(qop::equalUpToGlobalPhase(prog.circuit.toUnitary(),
                                          c.toUnitary(), 1e-4));
    EXPECT_LE(prog.context.pulses.size(), 12u);
}

TEST(Compiler, SingleQubitOnlyCircuitHasNoPulses)
{
    linalg::Rng rng(29);
    circuit::Circuit c(2);
    c.add(linalg::haarUnitary(rng, 2), {0});
    c.add(linalg::haarUnitary(rng, 2), {1});
    const device::Device dev = fullAshN(2, 0.0, 0.5);
    const transpile::TranspileResult prog =
        transpile::transpile(c, {.device = &dev});
    EXPECT_TRUE(prog.context.pulses.empty());
    EXPECT_EQ(prog.context.totalPulseTime, 0.0);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(prog.circuit.toUnitary(),
                                          c.toUnitary(), 1e-9));
}

TEST(Frb, RejectsEmptyExperiment)
{
    linalg::Rng rng(1);
    EXPECT_THROW(calib::runFrb({}, {}, 5, 0.0, rng), std::invalid_argument);
}

} // namespace
