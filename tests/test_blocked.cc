/**
 * @file
 * Cache-blocked execution suite (fast; runs under the CI sanitizer
 * matrix). executeBlocked inverts the sweep loop nest — amplitude
 * blocks outer, the ops of a blockable segment inner — and must stay
 * bit-identical to serial plan execution; the engine oracle
 * (test_engine_oracle.cc) pins that over every block exponent, thread
 * count, and SoA lane count. This suite pins the ExecOptions routing,
 * the block-range substrate and argument validation, the blockable-segment
 * partition (blockSegments and the PlanStats counters), the
 * cache-geometry helpers in sim/cache.hh (CRISC_BLOCK_BYTES override,
 * clamping, the reject-loud sim/env.hh parse, the auto/forced
 * resolution bands), and the planBatch blocking heuristic.
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

/** Pins CRISC_BLOCK_BYTES for one scope and restores the old value. */
class ScopedBlockBytes : public testutil::ScopedEnv
{
  public:
    explicit ScopedBlockBytes(const char *value)
        : ScopedEnv("CRISC_BLOCK_BYTES", value)
    {
    }
};

sim::Plan
compileUnfused(const circuit::Circuit &c)
{
    return sim::compile(c,
                        {.fuseSingleQubit = false, .fuseTwoQubit = false});
}

// ---------------------------------------------------------------------
// sim/cache.hh helpers.
// ---------------------------------------------------------------------

TEST(Cache, EnvOverrideWinsAndClamps)
{
    {
        ScopedBlockBytes env("262144");
        EXPECT_EQ(sim::cacheBlockBytes(), 262144u);
    }
    {
        // Below the floor: clamped up, never a degenerate tiny block.
        ScopedBlockBytes env("16");
        EXPECT_EQ(sim::cacheBlockBytes(), sim::kMinBlockBytes);
    }
    {
        // Above the ceiling: clamped down.
        ScopedBlockBytes env("9999999999999");
        EXPECT_EQ(sim::cacheBlockBytes(), sim::kMaxBlockBytes);
    }
}

TEST(Cache, EmptyOrZeroOverrideFallsThroughGarbageThrows)
{
    ScopedBlockBytes unset(nullptr);
    const std::size_t detected = sim::cacheBlockBytes();
    EXPECT_GE(detected, sim::kMinBlockBytes);
    EXPECT_LE(detected, sim::kMaxBlockBytes);
    // Unset / empty / "0" mean "no override" (sim/env.hh).
    for (const char *off : {"", "0"}) {
        ScopedBlockBytes env(off);
        EXPECT_EQ(sim::cacheBlockBytes(), detected) << "'" << off << "'";
    }
    // Anything unparsable is rejected loudly, never silently ignored.
    for (const char *bad : {"banana", "12abc", "-4", " 8"}) {
        ScopedBlockBytes env(bad);
        EXPECT_THROW(sim::cacheBlockBytes(), std::invalid_argument)
            << "'" << bad << "'";
    }
}

TEST(Cache, AutoBlockQubitsMatchesBudgetAndClampsToWidth)
{
    // 1 MiB = 2^16 amplitudes of 16 bytes.
    ScopedBlockBytes env("1048576");
    EXPECT_EQ(sim::autoBlockQubits(26), 16u);
    EXPECT_EQ(sim::autoBlockQubits(17), 16u);
    EXPECT_EQ(sim::autoBlockQubits(16), 16u);
    EXPECT_EQ(sim::autoBlockQubits(10), 10u); // never exceeds the width
    EXPECT_EQ(sim::autoBlockQubits(0), 0u);
}

TEST(Cache, ResolveBlockQubitsBands)
{
    ScopedBlockBytes env("1048576");
    // Auto: off below the width threshold, autoBlockQubits at or above.
    EXPECT_EQ(sim::resolveBlockQubits(0, sim::kAutoBlockFromWidth - 1),
              0u);
    EXPECT_EQ(sim::resolveBlockQubits(0, sim::kAutoBlockFromWidth), 16u);
    EXPECT_EQ(sim::resolveBlockQubits(0, 28), 16u);
    // Forced: honored and clamped to the width (b = n is the
    // degenerate single-block form, the explicit "off").
    EXPECT_EQ(sim::resolveBlockQubits(5, 12), 5u);
    EXPECT_EQ(sim::resolveBlockQubits(40, 12), 12u);
    EXPECT_EQ(sim::resolveBlockQubits(7, 0), 0u);
}

TEST(Cache, PlanBatchTurnsBlockingOnAtWideWidths)
{
    ScopedBlockBytes env("1048576");
    EXPECT_EQ(sim::planBatch(4, 12, 8).blockQubits, 0u);
    EXPECT_EQ(sim::planBatch(4, sim::kAutoBlockFromWidth - 1, 8).blockQubits,
              0u);
    EXPECT_EQ(sim::planBatch(4, sim::kAutoBlockFromWidth, 8).blockQubits,
              16u);
    EXPECT_EQ(sim::planBatch(4, 28, 8).blockQubits, 16u);
}

// ---------------------------------------------------------------------
// Segment partition.
// ---------------------------------------------------------------------

TEST(BlockSegments, PartitionBoundariesAndMinBlockBits)
{
    // n = 8; qubit q addresses index bit 7 - q, so minBlockBits of an
    // op is 8 - min(target qubits).
    linalg::Rng rng(3);
    circuit::Circuit c(8);
    c.add(linalg::haarUnitary(rng, 2), {7}, "low");  // bits 1
    c.add(qop::cz(), {6, 7}, "low2");                // bits 2
    c.add(linalg::haarUnitary(rng, 2), {0}, "high"); // bits 8
    c.add(qop::cnot(), {4, 6}, "mid");               // bits 4
    const sim::Plan plan = compileUnfused(c);
    ASSERT_EQ(plan.ops().size(), 4u);
    const std::vector<std::size_t> &bits = plan.minBlockBits();
    EXPECT_EQ(bits[0], 1u);
    EXPECT_EQ(bits[1], 2u);
    EXPECT_EQ(bits[2], 8u);
    EXPECT_EQ(bits[3], 4u);

    // b = 4: [blockable x2][non-blockable][blockable].
    const std::vector<sim::BlockSegment> at4 = sim::blockSegments(plan, 4);
    ASSERT_EQ(at4.size(), 3u);
    EXPECT_TRUE(at4[0].blockable);
    EXPECT_EQ(at4[0].first, 0u);
    EXPECT_EQ(at4[0].count, 2u);
    EXPECT_FALSE(at4[1].blockable);
    EXPECT_EQ(at4[1].first, 2u);
    EXPECT_EQ(at4[1].count, 1u);
    EXPECT_TRUE(at4[2].blockable);
    EXPECT_EQ(at4[2].first, 3u);
    EXPECT_EQ(at4[2].count, 1u);

    // b = 1: only the first op qualifies.
    const std::vector<sim::BlockSegment> at1 = sim::blockSegments(plan, 1);
    ASSERT_EQ(at1.size(), 2u);
    EXPECT_TRUE(at1[0].blockable);
    EXPECT_EQ(at1[0].count, 1u);
    EXPECT_FALSE(at1[1].blockable);
    EXPECT_EQ(at1[1].count, 3u);

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
    // Pin the auto exponent: 4096 B = 256 amplitudes -> b = 8, clamped
    // to the width 10 only if larger (it is not).
    ScopedBlockBytes env("4096");
    ASSERT_EQ(sim::autoBlockQubits(10), 8u);
    linalg::Rng rng(5);
    circuit::Circuit c(10);
    c.add(qop::cz(), {8, 9}, "low");                 // bits 2
    c.add(linalg::haarUnitary(rng, 2), {0}, "high"); // bits 10
    c.add(linalg::haarUnitary(rng, 2), {5}, "mid");  // bits 5
    c.add(qop::cnot(), {6, 7}, "mid2");              // bits 4
    const sim::Plan plan = compileUnfused(c);
    // Blockable at b = 8: ops 0, 2, 3 -> two maximal runs around op 1.
    EXPECT_EQ(plan.stats().blockedSegments, 2u);
    EXPECT_EQ(plan.stats().blockableOps, 3u);

    const sim::Plan empty = compileUnfused(circuit::Circuit(10));
    EXPECT_EQ(empty.stats().blockedSegments, 0u);
    EXPECT_EQ(empty.stats().blockableOps, 0u);
    EXPECT_TRUE(sim::blockSegments(empty, 8).empty());
}

// ---------------------------------------------------------------------
// Blocked execution: routing, the range substrate, validation.
// ---------------------------------------------------------------------

TEST(BlockedExecution, ExecOptionsDispatchMatchesExplicitCall)
{
    ScopedBlockBytes env("4096");
    linalg::Rng rng(91);
    const std::size_t n = 11;
    const sim::Plan plan = compileUnfused(randomCircuit(rng, n, 30));
    const CVector init = randomState(rng, n);
    CVector ref = init;
    sim::execute(plan, ref.data());

    // Forced through the user-facing knob (values above n clamp).
    for (const std::size_t req : {std::size_t{5}, std::size_t{40}}) {
        CVector amps = init;
        sim::ExecOptions opts;
        opts.blockQubits = req;
        opts.threads = 2;
        sim::execute(plan, amps.data(), opts);
        EXPECT_TRUE(bitIdentical(amps, ref)) << "req=" << req;
    }
    // SoA lanes take the same route.
    {
        sim::BatchState batch = sim::BatchState::pack({init, init});
        sim::ExecOptions opts;
        opts.blockQubits = 6;
        sim::execute(plan, batch, opts);
        EXPECT_TRUE(bitIdentical(batch.unpackLane(0), ref));
        EXPECT_TRUE(bitIdentical(batch.unpackLane(1), ref));
    }
    // Auto below kAutoBlockFromWidth stays on the unblocked path and
    // still matches, of course.
    {
        CVector amps = init;
        sim::ExecOptions opts;
        sim::execute(plan, amps.data(), opts);
        EXPECT_TRUE(bitIdentical(amps, ref));
    }
}

TEST(BlockedExecution, RangeFormPartitionsReassembleTheSweep)
{
    ScopedBlockBytes env("4096");
    linalg::Rng rng(13);
    const std::size_t n = 10;
    // All-blockable plan at b = 4: gates confined to qubits >= 6.
    circuit::Circuit c(n);
    for (int layer = 0; layer < 2; ++layer)
        for (std::size_t q = 6 + (layer % 2); q + 1 < n; q += 2)
            c.add(linalg::haarSU(rng, 4), {q, q + 1}, "u2");
    const sim::Plan plan = compileUnfused(c);
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
    c.add(linalg::haarUnitary(rng, 2), {0}, "high"); // blockable only at n
    c.add(qop::cz(), {6, 7}, "low");
    const sim::Plan plan = compileUnfused(c);
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
