/**
 * @file
 * Tests for the kernelized statevector engine (src/sim/): kernel
 * correctness of every compiled KernelTable against dense embeddings,
 * randomized engine-vs-toUnitary equivalence, gate fusion, the thread
 * pool, and bit-for-bit determinism of nested parallel work items.
 */

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "circuit/noise.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "sim/batch.hh"
#include "sim/dispatch.hh"
#include "sim/engine.hh"
#include "sim/kernels.hh"
#include "sim_test_util.hh"

namespace {

using namespace crisc;
using circuit::Circuit;
using linalg::Complex;
using linalg::CVector;
using linalg::Matrix;
using testutil::bitIdentical;
using testutil::maxDiff;
using testutil::pairsOf;
using testutil::quadsOf;
using testutil::randomState;

// Every compiled table's whole-register sweep (the range [0, groups))
// against the dense embedding, and bit for bit against its sim::scalar
// reference, whatever CRISC_SIMD_DISPATCH resolved.

TEST(Kernels, OneQubitMatchesEmbedding)
{
    linalg::Rng rng(11);
    const std::size_t n = 4;
    const std::size_t pairs = (std::size_t{1} << n) >> 1;
    for (std::size_t q = 0; q < n; ++q) {
        const Matrix u = linalg::haarUnitary(rng, 2);
        const CVector in = randomState(rng, n);
        const Complex m[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
        const CVector viaEmbed = qop::embed(u, {q}, n) * in;
        CVector viaScalar = in;
        sim::scalar::apply1qRange(viaScalar.data(), n, q, m, 0, pairsOf(n));
        for (const sim::Backend b : sim::compiledBackends()) {
            CVector viaKernel = in;
            sim::kernelTable(b).apply1qRange(viaKernel.data(), n, q, m, 0,
                                             pairs);
            EXPECT_LT(maxDiff(viaKernel, viaEmbed), 1e-12)
                << sim::backendName(b);
            EXPECT_TRUE(bitIdentical(viaKernel, viaScalar))
                << sim::backendName(b);
        }
    }
}

TEST(Kernels, OneQubitDiagonalMatchesDense)
{
    linalg::Rng rng(12);
    const std::size_t n = 5;
    const std::size_t pairs = (std::size_t{1} << n) >> 1;
    const Matrix u = qop::rz(0.7317);
    for (std::size_t q = 0; q < n; ++q) {
        const CVector in = randomState(rng, n);
        const CVector viaEmbed = qop::embed(u, {q}, n) * in;
        CVector viaScalar = in;
        sim::scalar::apply1qDiagRange(viaScalar.data(), n, q, u(0, 0), u(1, 1),
                                      0, pairsOf(n));
        for (const sim::Backend b : sim::compiledBackends()) {
            CVector viaDiag = in;
            sim::kernelTable(b).apply1qDiagRange(viaDiag.data(), n, q,
                                                 u(0, 0), u(1, 1), 0, pairs);
            EXPECT_LT(maxDiff(viaDiag, viaEmbed), 1e-12)
                << sim::backendName(b);
            EXPECT_TRUE(bitIdentical(viaDiag, viaScalar))
                << sim::backendName(b);
        }
    }
}

TEST(Kernels, PauliKernelMatchesDense)
{
    // sim::applyPauli has one scalar definition on every backend; the
    // dense embedding of the Pauli is its oracle at every stride.
    linalg::Rng rng(103);
    for (std::size_t n = 1; n <= 9; ++n) {
        for (std::size_t q = 0; q < n; ++q) {
            for (std::size_t p = 1; p <= 3; ++p) {
                const CVector in = randomState(rng, n);
                const CVector viaEmbed =
                    qop::embed(circuit::pauliByIndex(p), {q}, n) * in;
                CVector viaKernel = in;
                sim::applyPauli(viaKernel.data(), n, q, p);
                EXPECT_LT(maxDiff(viaKernel, viaEmbed), 1e-15)
                    << "n=" << n << " q=" << q << " pauli=" << p;
            }
        }
    }
    CVector buf(2, Complex{1.0, 0.0});
    EXPECT_THROW(sim::applyPauli(buf.data(), 1, 0, 4), std::invalid_argument);
    EXPECT_THROW(sim::applyPauli(buf.data(), 1, 0, 0), std::invalid_argument);
}

TEST(Kernels, TwoQubitMatchesEmbeddingAllPairs)
{
    linalg::Rng rng(14);
    const std::size_t n = 4;
    const std::size_t quads = (std::size_t{1} << n) >> 2;
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
            if (a == b)
                continue;
            const Matrix u = linalg::haarUnitary(rng, 4);
            const CVector in = randomState(rng, n);
            const CVector viaEmbed = qop::embed(u, {a, b}, n) * in;
            CVector viaScalar = in;
            sim::scalar::apply2qRange(viaScalar.data(), n, a, b, u.data(), 0,
                                      quadsOf(n));
            for (const sim::Backend be : sim::compiledBackends()) {
                CVector viaKernel = in;
                sim::kernelTable(be).apply2qRange(viaKernel.data(), n, a, b,
                                                  u.data(), 0, quads);
                EXPECT_LT(maxDiff(viaKernel, viaEmbed), 1e-12)
                    << sim::backendName(be) << " pair (" << a << ", " << b
                    << ")";
                EXPECT_TRUE(bitIdentical(viaKernel, viaScalar))
                    << sim::backendName(be) << " pair (" << a << ", " << b
                    << ")";
            }
        }
    }
}

TEST(Kernels, TwoQubitDiagonalMatchesDense)
{
    linalg::Rng rng(15);
    const std::size_t n = 4;
    const std::size_t quads = (std::size_t{1} << n) >> 2;
    const Matrix &u = qop::cz();
    const Complex d[4] = {u(0, 0), u(1, 1), u(2, 2), u(3, 3)};
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
            if (a == b)
                continue;
            const CVector in = randomState(rng, n);
            const CVector viaEmbed = qop::embed(u, {a, b}, n) * in;
            CVector viaScalar = in;
            sim::scalar::apply2qDiagRange(viaScalar.data(), n, a, b, d, 0,
                                          quadsOf(n));
            for (const sim::Backend be : sim::compiledBackends()) {
                CVector viaDiag = in;
                sim::kernelTable(be).apply2qDiagRange(viaDiag.data(), n, a,
                                                      b, d, 0, quads);
                EXPECT_LT(maxDiff(viaDiag, viaEmbed), 1e-15)
                    << sim::backendName(be);
                EXPECT_TRUE(bitIdentical(viaDiag, viaScalar))
                    << sim::backendName(be);
            }
        }
    }
}

/** Random circuit mixing 1q, 2q, diagonal, and (optionally) 3q gates. */
Circuit
randomCircuit(linalg::Rng &rng, std::size_t n, std::size_t gates,
              bool with_dense)
{
    Circuit c(n);
    for (std::size_t g = 0; g < gates; ++g) {
        const std::size_t kind = rng.index(with_dense && n >= 3 ? 6 : 5);
        const std::size_t a = rng.index(n);
        std::size_t b = rng.index(n - 1);
        if (b >= a)
            ++b;
        switch (kind) {
          case 0:
            c.add(linalg::haarUnitary(rng, 2), {a}, "u1");
            break;
          case 1:
            c.add(qop::rz(rng.uniform(0.0, 6.28)), {a}, "rz");
            break;
          case 2:
            c.add(linalg::haarSU(rng, 4), {a, b}, "u2");
            break;
          case 3:
            c.add(qop::cz(), {a, b}, "cz");
            break;
          case 4:
            c.add(qop::cnot(), {a, b}, "cx");
            break;
          default: {
            std::size_t d = rng.index(n - 2);
            for (std::size_t q : {std::min(a, b), std::max(a, b)})
                if (d >= q)
                    ++d;
            c.add(linalg::haarUnitary(rng, 8), {a, b, d}, "u3");
            break;
          }
        }
    }
    return c;
}

TEST(Engine, RandomCircuitsMatchToUnitary)
{
    linalg::Rng rng(21);
    for (std::size_t n = 2; n <= 5; ++n) {
        for (int rep = 0; rep < 8; ++rep) {
            const Circuit c = randomCircuit(rng, n, 4 * n, true);
            const Matrix u = c.toUnitary();
            const CVector amps = sim::run(sim::compile(c));
            CVector expected(u.rows());
            for (std::size_t i = 0; i < u.rows(); ++i)
                expected[i] = u(i, 0);
            EXPECT_LT(maxDiff(amps, expected), 1e-9)
                << "n = " << n << ", rep = " << rep;
        }
    }
}

/** The unfused reference: circuit::State::run lowers each gate in turn
 *  (sim::lowerGate) and runs it through the engine. */
CVector
gateByGate(const Circuit &c)
{
    circuit::State s(c.numQubits());
    s.run(c);
    return s.amplitudes();
}

TEST(Engine, FusedAndUnfusedPlansAgree)
{
    linalg::Rng rng(22);
    const std::size_t n = 4;
    const Circuit c = randomCircuit(rng, n, 32, false);
    const sim::Plan fused = sim::compile(c);
    EXPECT_LT(maxDiff(sim::run(fused), gateByGate(c)), 1e-12);
    EXPECT_LE(fused.ops().size(), c.size());
}

/** H-rz-H on q0 and rz-S on q1: the 1q-run fusion testbed. */
Circuit
dressedPairCircuit()
{
    Circuit c(2);
    c.add(qop::hadamard(), {0}, "H");
    c.add(qop::rz(0.3), {0}, "rz");
    c.add(qop::hadamard(), {0}, "H");
    c.add(qop::rz(0.5), {1}, "rz");
    c.add(qop::sGate(), {1}, "S");
    return c;
}

/** The same dressing, then CX: the quad-fusion testbed. */
Circuit
dressedCnotCircuit()
{
    Circuit c = dressedPairCircuit();
    c.add(qop::cnot(), {0, 1}, "CX");
    return c;
}

TEST(Engine, FusionMergesAdjacentSingleQubitRuns)
{
    const Circuit c = dressedPairCircuit();
    const sim::Plan plan = sim::compile(c);
    // Three 1q gates on q0 -> one op; two diagonal 1q on q1 -> one
    // diagonal op.
    EXPECT_EQ(plan.ops().size(), 2u);
    EXPECT_EQ(plan.stats().fusedGates, 3u);
    EXPECT_EQ(plan.stats().sourceGates, 5u);
    EXPECT_EQ(plan.stats().fusedInto2q, 0u);
    bool sawDiag = false;
    for (const sim::KernelOp &op : plan.ops())
        sawDiag = sawDiag || op.kind == sim::KernelKind::OneQDiag;
    EXPECT_TRUE(sawDiag);
}

TEST(Engine, TwoQubitFusionFoldsDressedEntanglerIntoOneQuad)
{
    const Circuit c = dressedCnotCircuit();
    const sim::Plan plan = sim::compile(c);
    // Both pending 1q products fold into the CX: one 4x4 kernel total.
    ASSERT_EQ(plan.ops().size(), 1u);
    EXPECT_EQ(plan.ops()[0].kind, sim::KernelKind::TwoQ);
    EXPECT_EQ(plan.stats().sourceGates, 6u);
    EXPECT_EQ(plan.stats().fusedGates, 5u); // every 1q gate absorbed
    EXPECT_EQ(plan.stats().fusedInto2q, 2u);

    // And it is the same unitary: executing the one-op plan equals the
    // gate-by-gate reference to near machine precision.
    EXPECT_LT(maxDiff(sim::run(plan), gateByGate(c)), 1e-12);
}

TEST(Engine, TwoQubitFusionOfDiagonalDressingStaysDiagonal)
{
    // Diagonal 1q pendings folded into a diagonal entangler keep the
    // quad on the phase-only kernel path.
    Circuit c(2);
    c.add(qop::rz(0.4), {0}, "rz");
    c.add(qop::rz(0.9), {1}, "rz");
    c.add(qop::cz(), {0, 1}, "CZ");
    const sim::Plan plan = sim::compile(c);
    ASSERT_EQ(plan.ops().size(), 1u);
    EXPECT_EQ(plan.ops()[0].kind, sim::KernelKind::TwoQDiag);
    EXPECT_EQ(plan.stats().fusedInto2q, 2u);
}

TEST(Engine, TwoQubitFusionLeavesUnrelatedPendingsAlone)
{
    // A pending 1q product on a qubit the 2q gate does not touch must
    // flush as its own kernel op, after the quad.
    Circuit c(3);
    c.add(qop::hadamard(), {2}, "H");
    c.add(qop::cnot(), {0, 1}, "CX");
    const sim::Plan plan = sim::compile(c);
    ASSERT_EQ(plan.ops().size(), 2u);
    EXPECT_EQ(plan.stats().fusedInto2q, 0u);
    EXPECT_LT(maxDiff(sim::run(plan), gateByGate(c)), 1e-12);
}

TEST(Engine, DiagonalTwoQubitGateLowersToDiagKernel)
{
    Circuit c(3);
    c.add(qop::cz(), {0, 2}, "CZ");
    const sim::Plan plan = sim::compile(c);
    ASSERT_EQ(plan.ops().size(), 1u);
    EXPECT_EQ(plan.ops()[0].kind, sim::KernelKind::TwoQDiag);
    EXPECT_EQ(plan.stats().diagOps, 1u);
}

TEST(Engine, StateApplyStillMatchesToUnitary)
{
    // State::apply routes through the engine; re-check the original
    // contract on a mixed circuit.
    linalg::Rng rng(23);
    const Circuit c = randomCircuit(rng, 3, 12, true);
    const Matrix u = c.toUnitary();
    circuit::State s(3);
    s.run(c);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(std::abs(s.amplitudes()[i] - u(i, 0)), 0.0, 1e-9);
}

TEST(Engine, StateApplyIsTheLoweredOpThroughTheEngine)
{
    // State::apply lowers each gate with the plan compiler's lowering
    // and runs it through executeOp: bit for bit the one-gate plan.
    linalg::Rng rng(24);
    const Circuit c = randomCircuit(rng, 4, 24, true);
    for (const circuit::Gate &g : c.gates()) {
        const sim::KernelOp op = sim::lowerGate(g.op, g.qubits);
        Circuit one(4);
        one.add(g.op, g.qubits, g.label);
        const sim::Plan plan = sim::compile(one);
        ASSERT_EQ(plan.ops().size(), 1u);
        EXPECT_EQ(op.kind, plan.ops()[0].kind) << g.label;
        circuit::State s(4);
        s.data()[0] = 0.0;
        s.data()[5] = Complex{0.6, -0.8};
        CVector viaPlan = s.amplitudes();
        s.apply(g.op, g.qubits);
        sim::execute(plan, viaPlan.data());
        EXPECT_TRUE(bitIdentical(s.amplitudes(), viaPlan)) << g.label;
    }
}

TEST(Engine, RejectsOpsOutsideTheRegister)
{
    // Hand-built ops that would address amplitudes outside a 3-qubit
    // register: both checked entries (Plan's constructor, with the op
    // index, and executeOp) reject each one, naming the field, before
    // any amplitude moves.
    const std::size_t n = 3;
    const auto oneQ = [](sim::KernelKind kind, std::size_t q0) {
        sim::KernelOp op;
        op.kind = kind;
        op.q0 = q0;
        op.m[0] = op.m[3] = 1.0;
        return op;
    };
    const auto twoQ = [](sim::KernelKind kind, std::size_t q0,
                         std::size_t q1) {
        sim::KernelOp op;
        op.kind = kind;
        op.q0 = q0;
        op.q1 = q1;
        for (std::size_t i = 0; i < 4; ++i)
            op.m[i * 5] = 1.0;
        return op;
    };
    const auto dense = [](std::vector<std::size_t> qubits, std::size_t dim) {
        sim::KernelOp op;
        op.kind = sim::KernelKind::Dense;
        op.qubits = std::move(qubits);
        op.dense = Matrix::identity(dim);
        return op;
    };
    struct Bad
    {
        sim::KernelOp op;
        const char *field;
    };
    const std::vector<Bad> bad = {
        {oneQ(sim::KernelKind::OneQ, 3), "q0"},
        {oneQ(sim::KernelKind::OneQDiag, 64), "q0"},
        {twoQ(sim::KernelKind::TwoQ, 3, 0), "q0"},
        {twoQ(sim::KernelKind::TwoQ, 0, 7), "q1"},
        {twoQ(sim::KernelKind::TwoQDiag, 1, 3), "q1"},
        {twoQ(sim::KernelKind::TwoQ, 2, 2), "q0 == q1"},
        {twoQ(sim::KernelKind::TwoQDiag, 0, 0), "q0 == q1"},
        {dense({0, 1, 3}, 8), "qubits"},
        {dense({0, 2, 0}, 8), "qubits"},
        {dense({0, 1, 2}, 4), "dense"},
        {dense({2, 0}, 8), "dense"},
    };
    const auto expectRejected = [](const auto &call, const std::string &who,
                                   const char *field) {
        try {
            call();
            ADD_FAILURE() << who << " accepted a bad " << field;
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(who), std::string::npos) << what;
            EXPECT_NE(what.find(field), std::string::npos) << what;
        }
    };
    const CVector ground = sim::run(sim::Plan(n, {}, {}));
    for (const Bad &b : bad) {
        const sim::KernelOp good = oneQ(sim::KernelKind::OneQ, 0);
        expectRejected([&] { sim::Plan(n, {good, b.op}, {}); }, "Plan: op 1",
                       b.field);
        CVector amps = ground;
        expectRejected([&] { sim::executeOp(b.op, amps.data(), n); },
                       "executeOp", b.field);
        EXPECT_TRUE(bitIdentical(amps, ground)) << b.field;
    }
    // The same shapes in range are accepted.
    for (const sim::KernelOp &op :
         {oneQ(sim::KernelKind::OneQ, 2), twoQ(sim::KernelKind::TwoQ, 2, 0),
          dense({2, 0, 1}, 8), dense({1, 2}, 4)}) {
        CVector amps = ground;
        EXPECT_NO_THROW(sim::executeOp(op, amps.data(), n));
        EXPECT_NO_THROW(sim::Plan(n, {op}, {}));
    }
}

TEST(Batch, StreamSeedsAreDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t base : {1ULL, 2ULL, 999ULL})
        for (std::uint64_t stream = 0; stream < 100; ++stream)
            seen.insert(sim::streamSeed(base, stream));
    EXPECT_EQ(seen.size(), 300u);
}

TEST(Batch, StreamSeedAdjacentBasesAndIndicesDoNotOverlap)
{
    // Regression for the stream-derivation contract: nearby base seeds
    // (the values callers actually pick: 42, 43, ...) combined with the
    // first few hundred trajectory indices must all map to distinct
    // RNG seeds — a collision would hand two trajectories (or two
    // experiments) the same random stream.
    std::set<std::uint64_t> seen;
    std::size_t inserted = 0;
    for (std::uint64_t base = 1000; base < 1008; ++base) {
        for (std::uint64_t stream = 0; stream < 256; ++stream) {
            seen.insert(sim::streamSeed(base, stream));
            ++inserted;
        }
    }
    EXPECT_EQ(seen.size(), inserted);
    // Zero-valued inputs are ordinary members of the family.
    EXPECT_NE(sim::streamSeed(0, 0), sim::streamSeed(0, 1));
    EXPECT_NE(sim::streamSeed(0, 0), sim::streamSeed(1, 0));
}

TEST(Batch, ParallelForZeroCountIsAWellDefinedNoOp)
{
    sim::ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
    // The pool is still fully serviceable afterwards.
    pool.parallelFor(8, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 8);
}

TEST(Batch, ParallelForCoversEveryIndexOnce)
{
    sim::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
    // Reuse across batches (exercises the generation handshake).
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 2);
}

TEST(Batch, ParallelForPropagatesTaskExceptionAndStaysServiceable)
{
    // A throwing task must not deadlock or terminate the pool: the
    // first exception is rethrown on the calling thread once the batch
    // drains, and the pool keeps working afterwards.
    sim::ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallelFor(200,
                         [&](std::size_t i) {
                             if (i == 37)
                                 throw std::runtime_error("task 37");
                             ++ran;
                         }),
        std::runtime_error);
    EXPECT_LT(ran.load(), 200); // indices after the throw were skipped

    // Every task throwing still surfaces exactly one exception.
    EXPECT_THROW(pool.parallelFor(
                     50, [](std::size_t) { throw std::logic_error("all"); }),
                 std::logic_error);

    // The pool is fully serviceable after both failed batches.
    std::vector<std::atomic<int>> hits(100);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);

    // The inline (single-thread / single-item) paths propagate too.
    sim::ThreadPool inlinePool(1);
    EXPECT_THROW(inlinePool.parallelFor(
                     3, [](std::size_t) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    EXPECT_THROW(
        pool.parallelFor(1,
                         [](std::size_t) { throw std::runtime_error("y"); }),
        std::runtime_error);
}

TEST(Batch, PlanBatchWidthHeuristic)
{
    // Narrow registers: all threads to the trajectory axis, with SoA
    // lanes across trajectories (the third axis).
    sim::BatchPlan p = sim::planBatch(8, 10, 100);
    EXPECT_EQ(p.trajWorkers, 8u);
    EXPECT_EQ(p.stateThreads, 1u);
    EXPECT_EQ(p.soaLanes, sim::simdLanes());

    // Very wide registers: all threads to the sweep axis, no SoA
    // batching (one statevector is already memory-bound).
    p = sim::planBatch(8, 27, 100);
    EXPECT_EQ(p.trajWorkers, 1u);
    EXPECT_EQ(p.stateThreads, 8u);
    EXPECT_EQ(p.soaLanes, 1u);

    // Band boundaries: 17 is still trajectory-only (with lanes), 18 is
    // the first hybrid-band width; 25 is the last hybrid width, 26 the
    // first state-only one.
    p = sim::planBatch(8, 17, 100);
    EXPECT_EQ(p.trajWorkers, 8u);
    EXPECT_EQ(p.stateThreads, 1u);
    EXPECT_EQ(p.soaLanes, sim::simdLanes());
    p = sim::planBatch(8, 18, 100);
    EXPECT_EQ(p.trajWorkers, 8u); // memCap 256; 8 x 1 uses all 8.
    EXPECT_EQ(p.stateThreads, 1u);
    EXPECT_EQ(p.soaLanes, 1u);
    p = sim::planBatch(8, 25, 100);
    EXPECT_EQ(p.trajWorkers, 2u); // memCap 2.
    EXPECT_EQ(p.stateThreads, 4u);
    EXPECT_EQ(p.soaLanes, 1u);
    p = sim::planBatch(8, 26, 100);
    EXPECT_EQ(p.trajWorkers, 1u);
    EXPECT_EQ(p.stateThreads, 8u);
    EXPECT_EQ(p.soaLanes, 1u);

    // Hybrid band: concurrent statevectors capped by the per-width
    // memory budget (2^(26 - width)), spare threads to the sweeps.
    p = sim::planBatch(8, 24, 100);
    EXPECT_EQ(p.trajWorkers, 4u);
    EXPECT_EQ(p.stateThreads, 2u);
    EXPECT_EQ(p.soaLanes, 1u);

    // Scarce trajectories hand their threads to the sweep axis.
    p = sim::planBatch(8, 20, 2);
    EXPECT_EQ(p.trajWorkers, 2u);
    EXPECT_EQ(p.stateThreads, 4u);

    // A split that would idle threads to truncation (3 x 2 of 8) backs
    // off to one that uses the whole budget (2 x 4).
    p = sim::planBatch(8, 20, 3);
    EXPECT_EQ(p.trajWorkers, 2u);
    EXPECT_EQ(p.stateThreads, 4u);

    // One thread or an empty batch degenerates to fully serial — but a
    // single narrow-register thread still batches SoA lanes.
    p = sim::planBatch(1, 24, 100);
    EXPECT_EQ(p.trajWorkers, 1u);
    EXPECT_EQ(p.stateThreads, 1u);
    EXPECT_EQ(p.soaLanes, 1u);
    p = sim::planBatch(1, 10, 5);
    EXPECT_EQ(p.trajWorkers, 1u);
    EXPECT_EQ(p.stateThreads, 1u);
    EXPECT_EQ(p.soaLanes, sim::simdLanes());
    p = sim::planBatch(8, 24, 0);
    EXPECT_EQ(p.trajWorkers, 1u);
    EXPECT_EQ(p.stateThreads, 1u);
    EXPECT_EQ(p.soaLanes, 1u);
}

TEST(Batch, PlanBatchValidatesArguments)
{
    // 0 threads no longer means hardware here — callers resolve that
    // with sim::resolveThreads first; a zero width has no band.
    EXPECT_THROW(sim::planBatch(0, 14, 10), std::invalid_argument);
    EXPECT_THROW(sim::planBatch(8, 0, 10), std::invalid_argument);
    EXPECT_GE(sim::resolveThreads(0), 1u);
    EXPECT_EQ(sim::resolveThreads(5), 5u);
}

TEST(Batch, NestedSweepPoolsAreScheduleInvariant)
{
    // Indexed work items on an outer pool, each on its own stream RNG
    // and sweeping with a local pool of its own (the shape the QV
    // harness runs circuits in), must be bit-for-bit identical for
    // every (items, sweep) split — item-only, sweep-only, hybrid.
    linalg::Rng crng(55);
    const std::size_t n = 14;
    circuit::Circuit c(n);
    for (std::size_t q = 0; q < n; ++q)
        c.add(linalg::haarUnitary(crng, 2), {q});
    for (std::size_t q = 0; q + 1 < n; q += 2)
        c.add(linalg::haarUnitary(crng, 4), {q, q + 1});
    const sim::Plan plan = sim::compile(c);

    constexpr std::size_t kItems = 12;
    const auto runAll = [&](std::size_t items, std::size_t sweep) {
        std::vector<double> out(kItems);
        sim::ThreadPool outer(items);
        outer.parallelFor(kItems, [&](std::size_t i) {
            sim::ThreadPool local(sweep);
            sim::ExecOptions exec;
            exec.pool = &local;
            linalg::Rng rng(sim::streamSeed(77, i));
            const CVector amps = sim::run(plan, exec);
            // A random amplitude's probability, so the result depends
            // on both the sweep outcome and the RNG stream.
            out[i] = std::norm(amps[rng.index(amps.size())]);
        });
        return out;
    };

    const std::vector<double> reference = runAll(1, 1);
    for (const auto &[items, sweep] :
         {std::pair<std::size_t, std::size_t>{4, 1}, {2, 2}, {1, 4},
          {7, 1}}) {
        const std::vector<double> got = runAll(items, sweep);
        for (std::size_t i = 0; i < kItems; ++i)
            EXPECT_EQ(got[i], reference[i])
                << "items=" << items << " sweep=" << sweep << " i=" << i;
    }
}

TEST(Noise, FastPathsMatchVectorOverloads)
{
    linalg::Rng rng(91);
    const std::size_t n = 3;
    CVector a = randomState(rng, n);
    CVector b = a;
    linalg::Rng rngA(5), rngB(5);
    for (int i = 0; i < 300; ++i) {
        circuit::applyDepolarizing(a.data(), n, {1}, 0.4, rngA);
        circuit::applyDepolarizing(b.data(), n, std::size_t{1}, 0.4, rngB);
        circuit::applyDepolarizing(a.data(), n, {0, 2}, 0.4, rngA);
        circuit::applyDepolarizing(b.data(), n, std::size_t{0},
                                   std::size_t{2}, 0.4, rngB);
    }
    EXPECT_EQ(maxDiff(a, b), 0.0);
}

TEST(Noise, RawOverloadMatchesStateOverload)
{
    // Same rng stream => same Pauli choices => identical states.
    linalg::Rng rngA(77), rngB(77);
    circuit::State viaState(3);
    viaState.apply(qop::hadamard(), {0});
    CVector raw = viaState.amplitudes();
    for (int i = 0; i < 200; ++i) {
        circuit::applyDepolarizing(viaState, {0, 2}, 0.5, rngA);
        circuit::applyDepolarizing(raw.data(), 3, {0, 2}, 0.5, rngB);
    }
    EXPECT_EQ(maxDiff(raw, viaState.amplitudes()), 0.0);
}

} // namespace
