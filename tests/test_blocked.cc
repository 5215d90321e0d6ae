/**
 * @file
 * Cache-blocked execution suite (fast; runs under the CI sanitizer
 * matrix). executeBlocked inverts the sweep loop nest — amplitude
 * blocks outer, the ops of a blockable segment inner — and must stay
 * bit-identical to serial plan execution; the engine oracle
 * (test_engine_oracle.cc) pins that over every block exponent, thread
 * count, and SoA lane count. This suite pins forced exponents through
 * resolveBlockQubits, the block-range substrate and argument
 * validation, the blockable-segment
 * partition (blockSegments and the PlanStats counters), the
 * cache-geometry helpers in sim/cache.hh (the byte-budget arithmetic,
 * the auto/forced resolution bands), and the planBatch blocking
 * heuristic.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "sim/batch.hh"
#include "sim/batch_state.hh"
#include "sim/cache.hh"
#include "sim/engine.hh"
#include "sim/kernels.hh"
#include "sim_test_util.hh"

namespace {

using namespace crisc;
using linalg::CVector;
using testutil::bitIdentical;
using testutil::randomCircuit;
using testutil::randomState;

// ---------------------------------------------------------------------
// sim/cache.hh helpers.
// ---------------------------------------------------------------------

TEST(Cache, AutoBlockQubitsMatchesBudgetAndClampsToWidth)
{
    // 1 MiB = 2^16 amplitudes of 16 bytes.
    const std::size_t mib = std::size_t{1} << 20;
    EXPECT_EQ(sim::blockQubitsForBytes(mib, 26), 16u);
    EXPECT_EQ(sim::blockQubitsForBytes(mib, 17), 16u);
    EXPECT_EQ(sim::blockQubitsForBytes(mib, 16), 16u);
    EXPECT_EQ(sim::blockQubitsForBytes(mib, 10), 10u); // never exceeds n
    EXPECT_EQ(sim::blockQubitsForBytes(mib, 0), 0u);
    // 4 KiB (kMinBlockBytes) = 256 amplitudes.
    EXPECT_EQ(sim::blockQubitsForBytes(sim::kMinBlockBytes, 10), 8u);
    EXPECT_EQ(sim::blockQubitsForBytes(sim::kMinBlockBytes, 5), 5u);

    // The detected budget lies within the clamps and feeds the same
    // arithmetic.
    const std::size_t bytes = sim::cacheBlockBytes();
    EXPECT_GE(bytes, sim::kMinBlockBytes);
    EXPECT_LE(bytes, sim::kMaxBlockBytes);
    for (const std::size_t n : {std::size_t{0}, std::size_t{10},
                                std::size_t{26}})
        EXPECT_EQ(sim::autoBlockQubits(n), sim::blockQubitsForBytes(bytes, n))
            << "n=" << n;
}

TEST(Cache, ResolveBlockQubitsBands)
{
    // Auto: off below the width threshold, autoBlockQubits at or above.
    EXPECT_EQ(sim::resolveBlockQubits(0, sim::kAutoBlockFromWidth - 1),
              0u);
    EXPECT_EQ(sim::resolveBlockQubits(0, sim::kAutoBlockFromWidth),
              sim::autoBlockQubits(sim::kAutoBlockFromWidth));
    EXPECT_EQ(sim::resolveBlockQubits(0, 28), sim::autoBlockQubits(28));
    // Forced: honored and clamped to the width (b = n is the
    // degenerate single-block form, the explicit "off").
    EXPECT_EQ(sim::resolveBlockQubits(5, 12), 5u);
    EXPECT_EQ(sim::resolveBlockQubits(40, 12), 12u);
    EXPECT_EQ(sim::resolveBlockQubits(7, 0), 0u);
}

TEST(Cache, PlanBatchTurnsBlockingOnAtWideWidths)
{
    EXPECT_EQ(sim::planBatch(4, 12, 8).blockQubits, 0u);
    EXPECT_EQ(sim::planBatch(4, sim::kAutoBlockFromWidth - 1, 8).blockQubits,
              0u);
    EXPECT_EQ(sim::planBatch(4, sim::kAutoBlockFromWidth, 8).blockQubits,
              sim::autoBlockQubits(sim::kAutoBlockFromWidth));
    EXPECT_EQ(sim::planBatch(4, 28, 8).blockQubits,
              sim::autoBlockQubits(28));
}

// ---------------------------------------------------------------------
// Segment partition.
// ---------------------------------------------------------------------

TEST(BlockSegments, PartitionBoundariesAndMinBlockBits)
{
    // n = 8; qubit q addresses index bit 7 - q, so minBlockBits of an
    // op is 8 - min(target qubits). The compiler holds a 1q gate until
    // the end of the plan unless a 2q gate on its qubit absorbs it, so
    // the lone 1q gate becomes the last op.
    linalg::Rng rng(3);
    circuit::Circuit c(8);
    c.add(qop::cz(), {6, 7}, "low2");               // bits 2
    c.add(linalg::haarUnitary(rng, 2), {7}, "low"); // bits 1
    c.add(linalg::haarSU(rng, 4), {0, 1}, "high");  // bits 8
    c.add(qop::cnot(), {4, 6}, "mid");              // bits 4
    const sim::Plan plan = sim::compile(c);
    ASSERT_EQ(plan.ops().size(), 4u);
    const std::vector<std::size_t> &bits = plan.minBlockBits();
    EXPECT_EQ(bits[0], 2u);
    EXPECT_EQ(bits[1], 8u);
    EXPECT_EQ(bits[2], 4u);
    EXPECT_EQ(bits[3], 1u);

    // b = 4: [blockable][non-blockable][blockable x2].
    const std::vector<sim::BlockSegment> at4 = sim::blockSegments(plan, 4);
    ASSERT_EQ(at4.size(), 3u);
    EXPECT_TRUE(at4[0].blockable);
    EXPECT_EQ(at4[0].first, 0u);
    EXPECT_EQ(at4[0].count, 1u);
    EXPECT_FALSE(at4[1].blockable);
    EXPECT_EQ(at4[1].first, 1u);
    EXPECT_EQ(at4[1].count, 1u);
    EXPECT_TRUE(at4[2].blockable);
    EXPECT_EQ(at4[2].first, 2u);
    EXPECT_EQ(at4[2].count, 2u);

    // b = 1: only the last op qualifies.
    const std::vector<sim::BlockSegment> at1 = sim::blockSegments(plan, 1);
    ASSERT_EQ(at1.size(), 2u);
    EXPECT_FALSE(at1[0].blockable);
    EXPECT_EQ(at1[0].count, 3u);
    EXPECT_TRUE(at1[1].blockable);
    EXPECT_EQ(at1[1].first, 3u);
    EXPECT_EQ(at1[1].count, 1u);

    // b = n: everything is blockable, one segment.
    const std::vector<sim::BlockSegment> at8 = sim::blockSegments(plan, 8);
    ASSERT_EQ(at8.size(), 1u);
    EXPECT_TRUE(at8[0].blockable);
    EXPECT_EQ(at8[0].count, 4u);

    EXPECT_THROW(sim::blockSegments(plan, 0), std::invalid_argument);
    EXPECT_THROW(sim::blockSegments(plan, 9), std::invalid_argument);
}

TEST(BlockSegments, PlanStatsCountSegmentsAtAutoExponent)
{
    // The stats count the blockable runs of blockSegments at the auto
    // exponent, whatever this host's L2 makes it.
    linalg::Rng rng(5);
    circuit::Circuit c(10);
    c.add(qop::cz(), {8, 9}, "low");                // bits 2
    c.add(linalg::haarSU(rng, 4), {0, 1}, "high");  // bits 10
    c.add(qop::cnot(), {6, 7}, "mid2");             // bits 4
    c.add(linalg::haarUnitary(rng, 2), {5}, "mid"); // bits 5
    const sim::Plan plan = sim::compile(c);
    std::size_t segments = 0;
    std::size_t ops = 0;
    for (const sim::BlockSegment &s :
         sim::blockSegments(plan, sim::autoBlockQubits(10))) {
        if (s.blockable) {
            ++segments;
            ops += s.count;
        }
    }
    EXPECT_GE(segments, 1u);
    EXPECT_EQ(plan.stats().blockedSegments, segments);
    EXPECT_EQ(plan.stats().blockableOps, ops);

    const sim::Plan empty = sim::compile(circuit::Circuit(10));
    EXPECT_EQ(empty.stats().blockedSegments, 0u);
    EXPECT_EQ(empty.stats().blockableOps, 0u);
    EXPECT_TRUE(sim::blockSegments(empty, 8).empty());
}

// ---------------------------------------------------------------------
// Blocked execution: routing, the range substrate, validation.
// ---------------------------------------------------------------------

TEST(BlockedExecution, ForcedExponentsMatchUnblockedExecute)
{
    linalg::Rng rng(91);
    const std::size_t n = 11;
    const sim::Plan plan = sim::compile(randomCircuit(rng, n, 30));
    const CVector init = randomState(rng, n);
    CVector ref = init;
    sim::execute(plan, ref.data());

    // Forced exponents, resolved as requested (values above n clamp).
    for (const std::size_t req : {std::size_t{5}, std::size_t{40}}) {
        CVector amps = init;
        sim::ExecOptions opts;
        opts.threads = 2;
        sim::executeBlocked(plan, sim::StateView(amps.data(), n),
                            sim::resolveBlockQubits(req, n), opts);
        EXPECT_TRUE(bitIdentical(amps, ref)) << "req=" << req;
    }
    // SoA lanes take the same route.
    {
        sim::BatchState batch = sim::BatchState::pack({init, init});
        sim::executeBlocked(plan, batch, 6);
        EXPECT_TRUE(bitIdentical(batch.unpackLane(0), ref));
        EXPECT_TRUE(bitIdentical(batch.unpackLane(1), ref));
    }
}

TEST(BlockedExecution, RangeFormPartitionsReassembleTheSweep)
{
    linalg::Rng rng(13);
    const std::size_t n = 10;
    // All-blockable plan at b = 4: gates confined to qubits >= 6.
    circuit::Circuit c(n);
    for (int layer = 0; layer < 2; ++layer)
        for (std::size_t q = 6 + (layer % 2); q + 1 < n; q += 2)
            c.add(linalg::haarSU(rng, 4), {q, q + 1}, "u2");
    const sim::Plan plan = sim::compile(c);
    const std::size_t b = 4;
    const std::size_t blocks = plan.dim() >> b; // 64

    const CVector init = randomState(rng, n);
    CVector ref = init;
    sim::execute(plan, ref.data());

    // Any partition of the block axis reassembles the full run.
    for (const std::size_t step : {std::size_t{1}, std::size_t{7},
                                   std::size_t{64}}) {
        CVector amps = init;
        for (std::size_t b0 = 0; b0 < blocks; b0 += step)
            sim::executeBlockedRange(plan, 0, plan.ops().size(),
                                     sim::StateView(amps.data(), n), b, b0,
                                     std::min(b0 + step, blocks));
        EXPECT_TRUE(bitIdentical(amps, ref)) << "step=" << step;
    }
}

TEST(BlockedExecution, ValidatesArguments)
{
    linalg::Rng rng(19);
    const std::size_t n = 8;
    circuit::Circuit c(n);
    c.add(linalg::haarSU(rng, 4), {0, 1}, "high"); // blockable only at n
    c.add(qop::cz(), {6, 7}, "low");
    const sim::Plan plan = sim::compile(c);
    CVector amps = randomState(rng, n);
    const sim::StateView view(amps.data(), n);

    EXPECT_THROW(sim::executeBlocked(plan, view, 0), std::invalid_argument);
    EXPECT_THROW(sim::executeBlocked(plan, view, n + 1),
                 std::invalid_argument);
    // The range form rejects ops that are not blockable at b, and
    // out-of-range op/block intervals.
    EXPECT_THROW(sim::executeBlockedRange(plan, 0, 2, view, 4, 0, 1),
                 std::invalid_argument);
    EXPECT_THROW(sim::executeBlockedRange(plan, 1, 2, view, 4, 0,
                                          (plan.dim() >> 4) + 1),
                 std::invalid_argument);
    EXPECT_THROW(sim::executeBlockedRange(plan, 1, 3, view, 4, 0, 1),
                 std::invalid_argument);

    sim::BatchState batch(n - 1, 2); // width mismatch
    EXPECT_THROW(sim::executeBlocked(plan, batch, 4), std::invalid_argument);
}

} // namespace
