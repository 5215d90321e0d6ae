/**
 * @file
 * Tests for SoA-batched trajectory execution (sim/batch_state.hh, the
 * SoA kernels of the dispatch table, StateView execution, and the
 * tiled TrajectoryRunner): pack/unpack round trips, bit-identity of
 * every SoA kernel against the per-lane serial path — including
 * non-power-of-two remainder lanes and the per-lane noise divergence —
 * plus the planBatch / QvConfig wiring of the third parallel axis.
 * Whole-plan SoA execution over every thread count and block exponent
 * is pinned by the engine oracle (test_engine_oracle.cc).
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
    // The scalar batched references must equal running the scalar
    // serial kernel on every unpacked lane, bit for bit, for any batch
    // width (including remainder-only widths below the SIMD lane
    // count).
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

    for (const std::size_t B : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}}) {
        std::vector<CVector> states;
        for (std::size_t t = 0; t < B; ++t)
            states.push_back(randomState(rng, n));

        for (int which = 0; which < 5; ++which) {
            sim::BatchState batch = sim::BatchState::pack(states);
            std::vector<CVector> expect = states;
            for (std::size_t q = 0; q < n; ++q) {
                switch (which) {
                  case 0:
                    sim::scalar::apply1qBatch(batch.re(), batch.im(), n,
                                              B, q, m2);
                    for (CVector &e : expect)
                        sim::scalar::apply1q(e.data(), n, q, m2);
                    break;
                  case 1:
                    sim::scalar::apply1qDiagBatch(batch.re(), batch.im(),
                                                  n, B, q, rz(0, 0),
                                                  rz(1, 1));
                    for (CVector &e : expect)
                        sim::scalar::apply1qDiag(e.data(), n, q, rz(0, 0),
                                                 rz(1, 1));
                    break;
                  case 2:
                    if (q + 1 >= n)
                        continue;
                    sim::scalar::apply2qBatch(batch.re(), batch.im(), n,
                                              B, q, q + 1, u4.data());
                    for (CVector &e : expect)
                        sim::scalar::apply2q(e.data(), n, q, q + 1,
                                             u4.data());
                    break;
                  case 3:
                    if (q + 1 >= n)
                        continue;
                    sim::scalar::apply2qDiagBatch(batch.re(), batch.im(),
                                                  n, B, q + 1, q, d4);
                    for (CVector &e : expect)
                        sim::scalar::apply2qDiag(e.data(), n, q + 1, q,
                                                 d4);
                    break;
                  case 4:
                    if (q != 0)
                        continue;
                    sim::scalar::applyDenseBatch(batch.re(), batch.im(),
                                                 n, B, dense,
                                                 denseQubits);
                    for (CVector &e : expect)
                        sim::detail::applyDenseRangeShared(
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
    // Every compiled table's SoA kernels (SIMD lane loop + lane tail)
    // must equal the scalar interleaved references per lane, bit for
    // bit, at every stride and for batch widths below, at, and above
    // the vector width.
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
                sim::scalar::apply1q(e.data(), n, q, m2);
                sim::scalar::apply1qDiag(e.data(), n, q, rz(0, 0),
                                         rz(1, 1));
                if (q + 1 < n) {
                    sim::scalar::apply2q(e.data(), n, q, q + 1, u4.data());
                    sim::scalar::apply2qDiag(e.data(), n, q + 1, q, d4);
                }
            }
            sim::detail::applyDenseRangeShared(e.data(), n, dense,
                                               denseQubits, 0, quads >> 1);
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
            k.applyDenseBatchRange(re, im, n, B, dense, denseQubits, 0,
                                   quads >> 1);
            for (std::size_t t = 0; t < B; ++t)
                EXPECT_TRUE(bitIdentical(batch.unpackLane(t), expect[t]))
                    << sim::backendName(b) << " B=" << B << " lane=" << t;
        }
    }
}

TEST(BatchKernels, PauliLaneMatchesSerialAndLeavesOtherLanesAlone)
{
    // Every table's applyPauliLane is the per-lane divergence primitive:
    // it must match the same table's applyPauli on that lane (including
    // its stride-dependent negation flavour on exact zeros) and touch
    // no other lane.
    const std::size_t n = 6;
    const std::size_t B = 5;
    for (const sim::Backend b : sim::compiledBackends()) {
        const sim::KernelTable &k = sim::kernelTable(b);
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
                k.applyPauliLane(batch.re(), batch.im(), n, B, lane, q,
                                 pauli);
                std::vector<CVector> expect = states;
                k.applyPauli(expect[lane].data(), n, q, pauli);
                for (std::size_t t = 0; t < B; ++t)
                    EXPECT_TRUE(
                        bitIdentical(batch.unpackLane(t), expect[t]))
                        << sim::backendName(b) << " pauli=" << pauli
                        << " q=" << q << " lane=" << t;
            }
        }
        sim::BatchState batch(2, 1);
        EXPECT_THROW(k.applyPauliLane(batch.re(), batch.im(), 2, 1, 0, 0, 4),
                     std::invalid_argument)
            << sim::backendName(b);
    }
}

TEST(BatchNoise, LaneDepolarizingMatchesSerialTrajectory)
{
    // A batched trajectory — shared SoA gate sweeps, per-lane noise
    // draws — must reproduce each serial trajectory bit for bit,
    // starting from |0...0> (exact zeros everywhere, the inputs where
    // negation flavours could diverge).
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

TEST(BatchRunner, TiledRunIsScheduleInvariantWithRemainder)
{
    // A tiled run must reproduce the one-lane run exactly — same RNG
    // streams, same result slots — for any (trajWorkers, stateThreads)
    // split and a count that is not a multiple of the lane width (11 =
    // 2 full tiles of 4 plus a remainder of 3).
    linalg::Rng crng(206);
    const std::size_t n = 8;
    circuit::Circuit c(n);
    for (std::size_t q = 0; q + 1 < n; q += 2)
        c.add(linalg::haarSU(crng, 4), {q, q + 1});
    const sim::Plan plan = sim::compile(c);

    const sim::TrajectoryRunner::Body body =
        [&](std::size_t, std::size_t lanes, linalg::Rng *rngs,
            const sim::ExecOptions &exec, double *out) {
            sim::BatchState batch(n, lanes);
            sim::execute(plan, batch, exec);
            for (std::size_t l = 0; l < lanes; ++l) {
                const std::size_t pick = rngs[l].index(batch.dim());
                out[l] = std::norm(batch.amp(pick, l));
            }
        };

    sim::TrajectoryRunner serial(1, 1);
    const std::vector<double> reference = serial.run(11, 88, 1, body);
    ASSERT_EQ(reference.size(), 11u);

    for (const auto &[traj, state] :
         {std::pair<std::size_t, std::size_t>{1, 1}, {4, 1}, {2, 2}}) {
        sim::TrajectoryRunner runner(traj, state);
        const std::vector<double> got = runner.run(11, 88, 4, body);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], reference[i])
                << "traj=" << traj << " state=" << state << " i=" << i;
        EXPECT_EQ(runner.sum(11, 88, 4, body), serial.sum(11, 88, 1, body));
    }

    EXPECT_THROW(serial.run(4, 88, 0, body), std::invalid_argument);
    EXPECT_TRUE(serial.run(0, 88, 4, body).empty());
}

TEST(BatchRunner, TrajParallelArmSpawnsNoStatePools)
{
    // Satellite contract: the pure trajectory-parallel arm
    // (stateThreads <= 1) must never construct per-slot sweep pools.
    // Pinned through the traj.state_pool_spawns counter.
    if (!obs::compiledIn())
        GTEST_SKIP() << "obs not compiled in";
    obs::TraceSession session;
    session.start();
    {
        sim::TrajectoryRunner trajOnly(4, 1);
        EXPECT_EQ(obs::counter("traj.state_pool_spawns").value(), 0);
    }
    {
        sim::TrajectoryRunner hybrid(2, 2);
        EXPECT_EQ(obs::counter("traj.state_pool_spawns").value(), 2);
    }
    session.stop();
}

TEST(BatchQv, SoaLanesDoesNotChangeHeavyOutput)
{
    // The QV harness must produce bit-identical heavy-output
    // proportions with SoA batching off, at the SIMD lane count, and at
    // a remainder-producing width. (10 trajectories over 4 lanes leaves
    // a 2-lane tail; 5 lanes leaves none but crosses the vector width.)
    qv::QvConfig cfg;
    cfg.width = 4;
    cfg.circuits = 4;
    cfg.trajectories = 10;
    cfg.seed = 31;
    cfg.threads = 1;
    cfg.soaLanes = 1;
    const qv::QvResult off = qv::heavyOutputExperiment(cfg);

    for (const int lanes : {4, 5}) {
        cfg.soaLanes = lanes;
        const qv::QvResult on = qv::heavyOutputExperiment(cfg);
        EXPECT_EQ(on.heavyOutputProportion, off.heavyOutputProportion)
            << "soaLanes=" << lanes;
    }

    // Auto mode (0) picks the heuristic; still bit-identical.
    cfg.soaLanes = 0;
    const qv::QvResult automatic = qv::heavyOutputExperiment(cfg);
    EXPECT_EQ(automatic.heavyOutputProportion, off.heavyOutputProportion);

    cfg.soaLanes = -1;
    EXPECT_THROW(qv::heavyOutputExperiment(cfg), std::invalid_argument);
}

} // namespace
