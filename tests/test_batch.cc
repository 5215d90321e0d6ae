/**
 * @file
 * Tests for SoA-batched trajectory execution (sim/batch_state.hh, the
 * SoA kernels of the dispatch table, and StateView execution):
 * pack/unpack round trips, bit-identity of every SoA kernel against the
 * per-lane serial path — including non-power-of-two remainder lanes and
 * the per-lane noise divergence — plus the QV harness's sweep-pool
 * wiring. Whole-plan SoA execution over every thread count and block
 * exponent is pinned by the engine oracle (test_engine_oracle.cc); the
 * QV harness over every (threads, stateThreads, soaLanes) by
 * test_qv's Qv.EveryExecutionConfigMatchesSerial.
 */

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "circuit/noise.hh"
#include "linalg/random.hh"
#include "obs/obs.hh"
#include "qop/gates.hh"
#include "qv/qv.hh"
#include "sim/batch.hh"
#include "sim/batch_state.hh"
#include "sim/dispatch.hh"
#include "sim/engine.hh"
#include "sim/kernels.hh"
#include "sim_test_util.hh"

namespace {

using namespace crisc;
using linalg::Complex;
using linalg::CVector;
using linalg::Matrix;
using testutil::bitIdentical;
using testutil::pairsOf;
using testutil::quadsOf;
using testutil::randomState;

TEST(BatchState, ValidatesArguments)
{
    EXPECT_THROW(sim::BatchState(4, 0), std::invalid_argument);
    EXPECT_THROW(sim::BatchState::pack({}), std::invalid_argument);
    EXPECT_THROW(sim::BatchState::pack({CVector(3)}),
                 std::invalid_argument);

    sim::BatchState batch(3, 2);
    EXPECT_THROW(batch.packLane(2, CVector(8)), std::invalid_argument);
    EXPECT_THROW(batch.packLane(0, CVector(4)), std::invalid_argument);
    EXPECT_THROW(batch.unpackLane(2), std::invalid_argument);
}

TEST(BatchState, RejectsStatesThatCannotBeAllocated)
{
    // 2^64 amplitudes: the shift itself would be undefined.
    EXPECT_THROW(sim::BatchState(64, 1), std::length_error);
    // 16 * 2^40 * 2^24 bytes wraps std::size_t to 0.
    EXPECT_THROW(sim::BatchState(40, std::size_t{1} << 24),
                 std::length_error);
    // 16 TiB fits std::size_t but no host's physical memory.
    const sim::Plan wide(40, {}, {});
    EXPECT_THROW(sim::run(wide), std::length_error);
    try {
        sim::checkStateFits(40, 3);
        FAIL() << "a 40-qubit, 3-lane state must not fit";
    } catch (const std::length_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("40-qubit"), std::string::npos) << what;
        EXPECT_NE(what.find("3 lane"), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(std::size_t{48} << 40)),
                  std::string::npos)
            << what;
    }
    EXPECT_NO_THROW(sim::checkStateFits(10, 4));
}

TEST(BatchState, InitializesEveryLaneToGroundState)
{
    const sim::BatchState batch(3, 5);
    EXPECT_EQ(batch.numQubits(), 3u);
    EXPECT_EQ(batch.dim(), 8u);
    EXPECT_EQ(batch.batch(), 5u);
    for (std::size_t l = 0; l < 5; ++l) {
        const CVector amps = batch.unpackLane(l);
        EXPECT_EQ(amps[0], (Complex{1.0, 0.0}));
        for (std::size_t i = 1; i < amps.size(); ++i)
            EXPECT_EQ(amps[i], (Complex{0.0, 0.0}));
    }
}

TEST(BatchState, PackUnpackRoundTripIsIdentity)
{
    linalg::Rng rng(201);
    const std::size_t n = 6;
    std::vector<CVector> states;
    for (std::size_t t = 0; t < 5; ++t)
        states.push_back(randomState(rng, n));

    const sim::BatchState batch = sim::BatchState::pack(states);
    EXPECT_EQ(batch.batch(), 5u);
    EXPECT_EQ(batch.numQubits(), n);
    const std::vector<CVector> out = batch.unpack();
    ASSERT_EQ(out.size(), states.size());
    for (std::size_t t = 0; t < states.size(); ++t) {
        EXPECT_TRUE(bitIdentical(out[t], states[t])) << "lane " << t;
        // amp() reads the same values the unpack produced.
        for (std::size_t i = 0; i < states[t].size(); ++i)
            EXPECT_EQ(batch.amp(i, t), states[t][i]);
    }
}

TEST(BatchKernels, ScalarBatchMatchesPerLaneScalar)
{
    // The scalar table's SoA entries (the sim::scalar batched kernels),
    // and the one SoA dense kernel, must equal running the scalar serial
    // kernel on every unpacked lane, bit for bit, for any batch width
    // (including remainder-only widths below the SIMD lane count). The
    // table entries run as two ranges, [0, k) + [k, groups), with k off
    // every power-of-two boundary, so the split must reassemble the
    // whole sweep.
    linalg::Rng rng(202);
    const std::size_t n = 7;
    const Matrix u2 = linalg::haarUnitary(rng, 2);
    const Complex m2[4] = {u2(0, 0), u2(0, 1), u2(1, 0), u2(1, 1)};
    const Matrix u4 = linalg::haarUnitary(rng, 4);
    const Matrix rz = qop::rz(0.91);
    const Complex d4[4] = {Complex{1.0, 0.0}, std::polar(1.0, 0.4),
                           std::polar(1.0, -1.1), std::polar(1.0, 2.2)};
    const Matrix dense = linalg::haarUnitary(rng, 8);
    const std::vector<std::size_t> denseQubits{5, 0, 3};
    const sim::KernelTable &k = sim::kernelTable(sim::Backend::Scalar);
    /** Runs @p range over [0, cut) then [cut, groups). */
    const auto split = [](std::size_t groups, const auto &range) {
        const std::size_t cut = groups / 3 + 1;
        range(0, cut);
        range(cut, groups);
    };

    for (const std::size_t B : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}}) {
        std::vector<CVector> states;
        for (std::size_t t = 0; t < B; ++t)
            states.push_back(randomState(rng, n));

        for (int which = 0; which < 5; ++which) {
            sim::BatchState batch = sim::BatchState::pack(states);
            double *re = batch.re();
            double *im = batch.im();
            std::vector<CVector> expect = states;
            for (std::size_t q = 0; q < n; ++q) {
                switch (which) {
                  case 0:
                    split(pairsOf(n), [&](std::size_t g0, std::size_t g1) {
                        k.apply1qBatchRange(re, im, n, B, q, m2, g0, g1);
                    });
                    for (CVector &e : expect)
                        sim::scalar::apply1qRange(e.data(), n, q, m2, 0,
                                                  pairsOf(n));
                    break;
                  case 1:
                    split(pairsOf(n), [&](std::size_t g0, std::size_t g1) {
                        k.apply1qDiagBatchRange(re, im, n, B, q, rz(0, 0),
                                                rz(1, 1), g0, g1);
                    });
                    for (CVector &e : expect)
                        sim::scalar::apply1qDiagRange(e.data(), n, q,
                                                      rz(0, 0), rz(1, 1), 0,
                                                      pairsOf(n));
                    break;
                  case 2:
                    if (q + 1 >= n)
                        continue;
                    split(quadsOf(n), [&](std::size_t g0, std::size_t g1) {
                        k.apply2qBatchRange(re, im, n, B, q, q + 1,
                                            u4.data(), g0, g1);
                    });
                    for (CVector &e : expect)
                        sim::scalar::apply2qRange(e.data(), n, q, q + 1,
                                                  u4.data(), 0, quadsOf(n));
                    break;
                  case 3:
                    if (q + 1 >= n)
                        continue;
                    split(quadsOf(n), [&](std::size_t g0, std::size_t g1) {
                        k.apply2qDiagBatchRange(re, im, n, B, q + 1, q, d4,
                                                g0, g1);
                    });
                    for (CVector &e : expect)
                        sim::scalar::apply2qDiagRange(e.data(), n, q + 1, q,
                                                      d4, 0, quadsOf(n));
                    break;
                  case 4:
                    if (q != 0)
                        continue;
                    sim::applyDenseBatchRange(
                        re, im, n, B, dense, denseQubits, 0,
                        (std::size_t{1} << n) >> denseQubits.size());
                    for (CVector &e : expect)
                        sim::applyDenseRange(
                            e.data(), n, dense, denseQubits, 0,
                            (std::size_t{1} << n) >> denseQubits.size());
                    break;
                }
            }
            for (std::size_t t = 0; t < B; ++t)
                EXPECT_TRUE(bitIdentical(batch.unpackLane(t), expect[t]))
                    << "which=" << which << " B=" << B << " lane=" << t;
        }
    }
}

TEST(BatchKernels, EveryTableBatchMatchesPerLaneScalar)
{
    // Every compiled table's SoA kernels (SIMD runs + element tails)
    // must equal the scalar interleaved references per lane, bit for
    // bit, at every stride and for batch widths below, at, and above
    // the vector width. The dense step after them runs the one SoA
    // dense kernel that every backend shares.
    linalg::Rng rng(203);
    const std::size_t n = 7;
    const std::size_t pairs = (std::size_t{1} << n) >> 1;
    const std::size_t quads = pairs >> 1;
    const Matrix u2 = linalg::haarUnitary(rng, 2);
    const Complex m2[4] = {u2(0, 0), u2(0, 1), u2(1, 0), u2(1, 1)};
    const Matrix u4 = linalg::haarUnitary(rng, 4);
    const Matrix rz = qop::rz(0.13);
    const Complex d4[4] = {std::polar(1.0, 0.3), std::polar(1.0, -0.8),
                           Complex{1.0, 0.0}, std::polar(1.0, 1.5)};
    const Matrix dense = linalg::haarUnitary(rng, 8);
    const std::vector<std::size_t> denseQubits{6, 2, 4};

    for (const std::size_t B : {std::size_t{1}, std::size_t{2},
                                std::size_t{5}, std::size_t{8}}) {
        std::vector<CVector> randoms;
        for (std::size_t t = 0; t < B; ++t)
            randoms.push_back(randomState(rng, n));
        std::vector<CVector> expect = randoms;
        for (CVector &e : expect) {
            for (std::size_t q = 0; q < n; ++q) {
                sim::scalar::apply1qRange(e.data(), n, q, m2, 0, pairsOf(n));
                sim::scalar::apply1qDiagRange(e.data(), n, q, rz(0, 0),
                                              rz(1, 1), 0, pairsOf(n));
                if (q + 1 < n) {
                    sim::scalar::apply2qRange(e.data(), n, q, q + 1, u4.data(),
                                              0, quadsOf(n));
                    sim::scalar::apply2qDiagRange(e.data(), n, q + 1, q, d4, 0,
                                                  quadsOf(n));
                }
            }
            sim::applyDenseRange(e.data(), n, dense, denseQubits, 0,
                                 quads >> 1);
        }
        for (const sim::Backend b : sim::compiledBackends()) {
            const sim::KernelTable &k = sim::kernelTable(b);
            sim::BatchState batch = sim::BatchState::pack(randoms);
            double *re = batch.re();
            double *im = batch.im();
            for (std::size_t q = 0; q < n; ++q) {
                k.apply1qBatchRange(re, im, n, B, q, m2, 0, pairs);
                k.apply1qDiagBatchRange(re, im, n, B, q, rz(0, 0), rz(1, 1),
                                        0, pairs);
                if (q + 1 < n) {
                    k.apply2qBatchRange(re, im, n, B, q, q + 1, u4.data(), 0,
                                        quads);
                    k.apply2qDiagBatchRange(re, im, n, B, q + 1, q, d4, 0,
                                            quads);
                }
            }
            sim::applyDenseBatchRange(re, im, n, B, dense, denseQubits, 0,
                                      quads >> 1);
            for (std::size_t t = 0; t < B; ++t)
                EXPECT_TRUE(bitIdentical(batch.unpackLane(t), expect[t]))
                    << sim::backendName(b) << " B=" << B << " lane=" << t;
        }
    }
}

TEST(BatchKernels, PauliLaneMatchesSerialAndLeavesOtherLanesAlone)
{
    // sim::applyPauliLane is the per-lane divergence primitive: it must
    // match sim::applyPauli on that lane and touch no other lane. Both
    // must also give the same bit patterns under every backend the
    // process can select as under scalar: the basis states are almost
    // all exact zeros, where a backend-specific negation would leave a
    // zero of the other sign.
    const std::size_t n = 6;
    const std::size_t B = 5;
    // Per (qubit, Pauli): the serial result, then the batched lane.
    const auto runAll = [&] {
        std::vector<CVector> out;
        for (std::size_t q = 0; q < n; ++q) {
            for (std::size_t pauli = 1; pauli <= 3; ++pauli) {
                std::vector<CVector> states;
                for (std::size_t t = 0; t < B; ++t) {
                    CVector s(std::size_t{1} << n, Complex{0.0, 0.0});
                    s[(t * 7) % s.size()] = 1.0;
                    states.push_back(std::move(s));
                }
                sim::BatchState batch = sim::BatchState::pack(states);
                const std::size_t lane = (q + pauli) % B;
                sim::applyPauliLane(batch.re(), batch.im(), n, B, lane, q,
                                    pauli);
                std::vector<CVector> expect = states;
                sim::applyPauli(expect[lane].data(), n, q, pauli);
                for (std::size_t t = 0; t < B; ++t)
                    EXPECT_TRUE(
                        bitIdentical(batch.unpackLane(t), expect[t]))
                        << sim::backendName() << " pauli=" << pauli
                        << " q=" << q << " lane=" << t;
                out.push_back(expect[lane]);
                out.push_back(batch.unpackLane(lane));
            }
        }
        return out;
    };

    // Restores the backend active on entry, also on an early return.
    struct Restore
    {
        sim::Backend before = sim::activeBackend();
        ~Restore() { sim::setDispatchOverride(sim::backendName(before)); }
    } restore;
    sim::setDispatchOverride("scalar");
    const std::vector<CVector> reference = runAll();
    for (const sim::Backend b : sim::compiledBackends()) {
        if (!sim::hostSupports(b))
            continue;
        sim::setDispatchOverride(sim::backendName(b));
        const std::vector<CVector> got = runAll();
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(bitIdentical(got[i], reference[i]))
                << sim::backendName(b) << " q=" << i / 6
                << " pauli=" << 1 + (i / 2) % 3
                << (i % 2 == 0 ? " serial" : " lane");
    }

    sim::BatchState batch(2, 1);
    EXPECT_THROW(sim::applyPauliLane(batch.re(), batch.im(), 2, 1, 0, 0, 4),
                 std::invalid_argument);
}

TEST(BatchNoise, LaneDepolarizingMatchesSerialTrajectory)
{
    // A batched trajectory — shared SoA gate sweeps, per-lane noise
    // draws — must reproduce each serial trajectory bit for bit,
    // starting from |0...0> (exact zeros everywhere, so the sign bits
    // of zeros are compared too).
    linalg::Rng oprng(205);
    const std::size_t n = 5;
    const std::size_t B = 4;
    const Matrix u4 = linalg::haarSU(oprng, 4);
    sim::KernelOp quad;
    quad.kind = sim::KernelKind::TwoQ;
    quad.q0 = 1;
    quad.q1 = 3;
    for (std::size_t i = 0; i < 16; ++i)
        quad.m[i] = u4(i / 4, i % 4);
    const double p2 = 0.35, p1 = 0.2; // high rates: every Pauli fires.

    // Serial reference: one statevector per trajectory.
    std::vector<CVector> expect;
    for (std::size_t t = 0; t < B; ++t) {
        linalg::Rng rng(sim::streamSeed(99, t));
        CVector amps(std::size_t{1} << n, Complex{0.0, 0.0});
        amps[0] = 1.0;
        for (int step = 0; step < 6; ++step) {
            sim::executeOp(quad, amps.data(), n);
            circuit::applyDepolarizing(amps.data(), n, quad.q0, quad.q1,
                                       p2, rng);
            circuit::applyDepolarizing(amps.data(), n, quad.q0, p1, rng);
            circuit::applyDepolarizing(amps.data(), n, quad.q1, p1, rng);
        }
        expect.push_back(std::move(amps));
    }

    // Batched: one SoA sweep per step, lane-divergent noise.
    std::vector<linalg::Rng> rngs;
    for (std::size_t t = 0; t < B; ++t)
        rngs.emplace_back(sim::streamSeed(99, t));
    sim::BatchState batch(n, B);
    for (int step = 0; step < 6; ++step) {
        sim::executeOp(quad, batch);
        for (std::size_t l = 0; l < B; ++l) {
            circuit::applyDepolarizing(batch, l, quad.q0, quad.q1, p2,
                                       rngs[l]);
            circuit::applyDepolarizing(batch, l, quad.q0, p1, rngs[l]);
            circuit::applyDepolarizing(batch, l, quad.q1, p1, rngs[l]);
        }
    }
    for (std::size_t t = 0; t < B; ++t)
        EXPECT_TRUE(bitIdentical(batch.unpackLane(t), expect[t]))
            << "lane " << t;

    // Lane and parameter validation on the batched overloads.
    linalg::Rng rng(1);
    EXPECT_THROW(circuit::applyDepolarizing(batch, B, 0, p1, rng),
                 std::invalid_argument);
    EXPECT_THROW(circuit::applyDepolarizing(batch, 0, 2, 2, p2, rng),
                 std::invalid_argument);
    EXPECT_THROW(circuit::applyDepolarizing(batch, 0, 0, -0.1, rng),
                 std::invalid_argument);
}

TEST(BatchQv, SerialSweepsSpawnNoSweepPools)
{
    // Each circuit task builds a local sweep pool only when
    // stateThreads > 1; with serial sweeps (the default) none is ever
    // constructed. Pinned through the qv.sweep_pools counter.
    if (!obs::compiledIn())
        GTEST_SKIP() << "obs not compiled in";
    const device::Device dev =
        device::Device::grid2d(device::NativeKind::AshN, 4);
    qv::QvConfig cfg;
    cfg.width = 4;
    cfg.device = &dev;
    cfg.circuits = 3;
    cfg.trajectories = 2;
    cfg.threads = 4;
    cfg.stateThreads = 1;
    obs::TraceSession session;
    session.start();
    qv::heavyOutputExperiment(cfg);
    EXPECT_EQ(obs::counter("qv.sweep_pools").value(), 0);
    cfg.threads = 2;
    cfg.stateThreads = 2;
    qv::heavyOutputExperiment(cfg);
    EXPECT_EQ(obs::counter("qv.sweep_pools").value(), 3);
    session.stop();
}

} // namespace
