/**
 * @file
 * Tests for the pass-based transpiler and its routing substrate:
 * coupling-map edge cases, layout bijection invariants, routePair
 * postconditions, routed-unitary-vs-permutation equivalence, pipeline
 * unitary preservation on random circuits, the compileCircuit façade,
 * peephole cancellation, the Weyl cache, and thread-count-invariant
 * batch transpilation.
 */

#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "device/native_set.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "qop/metrics.hh"
#include "route/route.hh"
#include "synth/compiler.hh"
#include "transpile/transpile.hh"

namespace {

using namespace crisc;
using circuit::Circuit;
using circuit::Gate;
using linalg::Matrix;

/** Random circuit of 1q/2q Haar gates (plus a 3q gate when wide). */
Circuit
randomCircuit(linalg::Rng &rng, std::size_t n, std::size_t gates,
              bool wide = false)
{
    Circuit c(n);
    if (wide && n >= 3)
        c.add(linalg::haarUnitary(rng, 8), {0, 1, 2}, "wide");
    for (std::size_t i = 0; i < gates; ++i) {
        if (n >= 2 && rng.index(3) != 0) {
            const std::size_t a = rng.index(n);
            std::size_t b = rng.index(n);
            while (b == a)
                b = rng.index(n);
            c.add(linalg::haarUnitary(rng, 4), {a, b});
        } else {
            c.add(linalg::haarUnitary(rng, 2), {rng.index(n)});
        }
    }
    return c;
}

TEST(CircuitDepth, CountsLongestQubitChain)
{
    Circuit c(3);
    EXPECT_EQ(c.depth(), 0u);
    c.add(qop::hadamard(), {0});
    c.add(qop::hadamard(), {1});
    EXPECT_EQ(c.depth(), 1u); // parallel 1q layer
    c.add(qop::cnot(), {0, 1});
    EXPECT_EQ(c.depth(), 2u);
    c.add(qop::cnot(), {1, 2});
    EXPECT_EQ(c.depth(), 3u);
    c.add(qop::hadamard(), {2});
    EXPECT_EQ(c.depth(), 4u);
}

TEST(CouplingMap, GridForEdgeCases)
{
    EXPECT_THROW(route::CouplingMap::gridFor(0), std::invalid_argument);
    const route::CouplingMap one = route::CouplingMap::gridFor(1);
    EXPECT_EQ(one.numQubits(), 1u);
    EXPECT_TRUE(one.neighbours(0).empty());
    const std::vector<std::size_t> self = one.shortestPath(0, 0);
    EXPECT_EQ(self, std::vector<std::size_t>{0});
}

TEST(CouplingMap, OutOfRangeIndicesThrow)
{
    const route::CouplingMap grid = route::CouplingMap::grid(2, 2);
    EXPECT_THROW(grid.adjacent(0, 4), std::out_of_range);
    EXPECT_THROW(grid.adjacent(4, 0), std::out_of_range);
    EXPECT_THROW(grid.shortestPath(0, 4), std::out_of_range);
    EXPECT_THROW(grid.neighbours(4), std::out_of_range);
}

TEST(CouplingMap, DisconnectedShortestPathThrows)
{
    const route::CouplingMap m =
        route::CouplingMap::fromEdges(4, {{0, 1}, {2, 3}});
    EXPECT_EQ(m.shortestPath(0, 1).size(), 2u);
    EXPECT_THROW(m.shortestPath(0, 3), std::runtime_error);
    EXPECT_THROW(route::CouplingMap::fromEdges(2, {{0, 0}}),
                 std::invalid_argument);
    EXPECT_THROW(route::CouplingMap::fromEdges(2, {{0, 2}}),
                 std::invalid_argument);
}

TEST(Routing, RoutePairRejectsIdenticalEndpoints)
{
    const route::CouplingMap grid = route::CouplingMap::grid(2, 2);
    route::Layout layout(4);
    EXPECT_THROW(route::routePair(grid, layout, 1, 1),
                 std::invalid_argument);
}

TEST(Routing, LayoutStaysBijectiveUnderRandomSwaps)
{
    const std::size_t n = 9;
    linalg::Rng rng(5);
    route::Layout layout(n);
    for (int step = 0; step < 200; ++step) {
        const std::size_t a = rng.index(n);
        std::size_t b = rng.index(n);
        while (b == a)
            b = rng.index(n);
        layout.swapPhysical(a, b);
        std::vector<bool> physSeen(n, false), logSeen(n, false);
        for (std::size_t l = 0; l < n; ++l) {
            const std::size_t p = layout.physicalOf(l);
            ASSERT_LT(p, n);
            ASSERT_FALSE(physSeen[p]) << "two logicals share a physical";
            physSeen[p] = true;
            ASSERT_EQ(layout.logicalOf(p), l);
        }
        for (std::size_t p = 0; p < n; ++p) {
            const std::size_t l = layout.logicalOf(p);
            ASSERT_LT(l, n);
            ASSERT_FALSE(logSeen[l]);
            logSeen[l] = true;
        }
    }
}

TEST(Routing, RoutePairLeavesPairAdjacent)
{
    const route::CouplingMap grid = route::CouplingMap::grid(3, 3);
    linalg::Rng rng(6);
    route::Layout layout(9);
    for (int step = 0; step < 60; ++step) {
        const std::size_t a = rng.index(9);
        std::size_t b = rng.index(9);
        while (b == a)
            b = rng.index(9);
        route::routePair(grid, layout, a, b);
        EXPECT_TRUE(grid.adjacent(layout.physicalOf(a),
                                  layout.physicalOf(b)));
    }
}

/**
 * Routed circuit unitary equals the logical one composed with the final
 * layout permutation: (U_routed)_{p, c} = (U_logical)_{perm(p), c} with
 * perm reading each logical bit l from physical position layout(l).
 */
TEST(Routing, RoutedUnitaryMatchesLogicalUpToPermutation)
{
    const std::size_t n = 4;
    const std::size_t dim = std::size_t{1} << n;
    const route::CouplingMap grid = route::CouplingMap::grid(2, 2);
    linalg::Rng rng(7);

    for (int trial = 0; trial < 3; ++trial) {
        Circuit logical(n);
        for (int i = 0; i < 6; ++i) {
            const std::size_t a = rng.index(n);
            std::size_t b = rng.index(n);
            while (b == a)
                b = rng.index(n);
            logical.add(linalg::haarUnitary(rng, 4), {a, b});
        }

        transpile::TranspileOptions opts;
        opts.coupling = &grid;
        opts.decomposeWide = false;
        opts.fuseSingleQubit = false;
        opts.lowerToPulses = false;
        const transpile::TranspileResult res =
            transpile::transpile(logical, opts);
        ASSERT_TRUE(res.context.layout.has_value());
        const route::Layout &layout = *res.context.layout;

        const Matrix ul = logical.toUnitary();
        const Matrix ur = res.circuit.toUnitary();
        for (std::size_t phys = 0; phys < dim; ++phys) {
            std::size_t perm = 0;
            for (std::size_t l = 0; l < n; ++l) {
                const std::size_t pq = layout.physicalOf(l);
                const std::size_t bit = (phys >> (n - 1 - pq)) & 1;
                perm |= bit << (n - 1 - l);
            }
            for (std::size_t col = 0; col < dim; ++col)
                EXPECT_NEAR(std::abs(ur(phys, col) - ul(perm, col)), 0.0,
                            1e-9);
        }
    }
}

TEST(Pipeline, UnitaryEquivalentForRandomCircuits)
{
    linalg::Rng rng(8);
    for (std::size_t n = 2; n <= 5; ++n) {
        const Circuit logical = randomCircuit(rng, n, 6, n == 3);
        transpile::TranspileOptions opts;
        opts.h = 0.1;
        opts.r = 0.5;
        const transpile::TranspileResult res =
            transpile::transpile(logical, opts);
        EXPECT_TRUE(qop::equalUpToGlobalPhase(res.circuit.toUnitary(),
                                              logical.toUnitary(), 1e-6))
            << "n = " << n;
        EXPECT_EQ(res.context.pulses.size(),
                  res.circuit.twoQubitCount());
        double tau = 0.0;
        for (const transpile::PulseOp &p : res.context.pulses)
            tau += p.params.tau;
        EXPECT_NEAR(res.context.totalPulseTime, tau, 1e-12);
    }
}

TEST(Pipeline, RoutedAndLoweredStillUnitaryEquivalent)
{
    // Full pipeline with routing: lowered unitary must equal the
    // logical one re-read through the final layout permutation.
    const std::size_t n = 4;
    const std::size_t dim = std::size_t{1} << n;
    const route::CouplingMap grid = route::CouplingMap::grid(2, 2);
    linalg::Rng rng(9);
    const Circuit logical = randomCircuit(rng, n, 5);

    transpile::TranspileOptions opts;
    opts.coupling = &grid;
    const transpile::TranspileResult res =
        transpile::transpile(logical, opts);
    ASSERT_TRUE(res.context.layout.has_value());
    const route::Layout &layout = *res.context.layout;

    const Matrix ul = logical.toUnitary();
    const Matrix ur = res.circuit.toUnitary();
    // Undo the permutation, then compare up to global phase.
    Matrix unpermuted(dim, dim);
    for (std::size_t phys = 0; phys < dim; ++phys) {
        std::size_t perm = 0;
        for (std::size_t l = 0; l < n; ++l) {
            const std::size_t pq = layout.physicalOf(l);
            const std::size_t bit = (phys >> (n - 1 - pq)) & 1;
            perm |= bit << (n - 1 - l);
        }
        for (std::size_t col = 0; col < dim; ++col)
            unpermuted(perm, col) = ur(phys, col);
    }
    EXPECT_TRUE(qop::equalUpToGlobalPhase(unpermuted, ul, 1e-6));
}

TEST(Pipeline, MetricsReportCoversEveryPass)
{
    linalg::Rng rng(10);
    const Circuit logical = randomCircuit(rng, 3, 5, true);
    const transpile::TranspileResult res = transpile::transpile(logical);
    ASSERT_EQ(res.report.passes.size(), 4u);
    EXPECT_EQ(res.report.passes[0].pass, "wide-gate-decompose");
    EXPECT_EQ(res.report.passes[1].pass, "single-qubit-fuse");
    EXPECT_EQ(res.report.passes[2].pass, "peephole-cancel");
    EXPECT_EQ(res.report.passes[3].pass, "native-lower");
    EXPECT_EQ(res.report.passes[0].gatesBefore, logical.size());
    EXPECT_EQ(res.report.passes[3].gatesAfter, res.circuit.size());
    EXPECT_GT(res.report.passes[3].pulseTimeAfter, 0.0);
    EXPECT_NE(res.report.summary().find("native-lower"), std::string::npos);
}

TEST(Pipeline, MetricsRecordGatesPeak)
{
    linalg::Rng rng(10);
    const Circuit logical = randomCircuit(rng, 3, 5, true);
    const transpile::TranspileResult res = transpile::transpile(logical);
    // Every current pass only grows or shrinks monotonically, so the
    // peak is exactly the larger endpoint.
    for (const transpile::PassMetrics &m : res.report.passes)
        EXPECT_EQ(m.gatesPeak, std::max(m.gatesBefore, m.gatesAfter))
            << m.pass;
}

/** A pass whose transient working set exceeds both endpoints; it
 *  reports the excursion through ctx.peakGates. */
class InflatingPass final : public transpile::Pass
{
  public:
    const char *name() const override { return "inflating"; }
    Circuit run(const Circuit &in,
                transpile::PassContext &ctx) const override
    {
        ctx.peakGates = in.size() + 100;
        return in;
    }
};

TEST(Pipeline, PassRaisedPeakGatesIsRecorded)
{
    transpile::PassManager pm;
    pm.emplace<InflatingPass>();
    Circuit c(2);
    c.add(qop::cnot(), {0, 1});
    const transpile::TranspileResult res = pm.run(c);
    ASSERT_EQ(res.report.passes.size(), 1u);
    EXPECT_EQ(res.report.passes[0].gatesPeak, c.size() + 100);
    // The scratch field resets per pass: a second (standard) pipeline
    // run is unaffected by the previous excursion.
    const transpile::TranspileResult clean = transpile::transpile(c);
    for (const transpile::PassMetrics &m : clean.report.passes)
        EXPECT_LE(m.gatesPeak, std::max(m.gatesBefore, m.gatesAfter) + 0u)
            << m.pass;
}

TEST(Pipeline, RouteErrors)
{
    const transpile::Route pass;
    transpile::PassContext ctx;
    Circuit c(2);
    c.add(qop::cnot(), {0, 1});
    EXPECT_THROW(pass.run(c, ctx), std::invalid_argument); // no coupling

    const route::CouplingMap one = route::CouplingMap::gridFor(1);
    ctx.coupling = &one;
    EXPECT_THROW(pass.run(c, ctx), std::invalid_argument); // too small

    const route::CouplingMap grid = route::CouplingMap::grid(2, 2);
    ctx.coupling = &grid;
    Circuit wide(4);
    wide.add(Matrix::identity(8), {0, 1, 2});
    EXPECT_THROW(pass.run(wide, ctx), std::invalid_argument); // 3q gate
}

TEST(Peephole, CancelsInversePairsAndIdentities)
{
    Circuit c(2);
    c.add(qop::hadamard(), {0});
    c.add(qop::cnot(), {0, 1});
    c.add(qop::cnot(), {0, 1});
    c.add(qop::hadamard(), {0});
    c.add(qop::cz(), {1, 0}); // symmetric gate, reversed qubit order
    c.add(qop::cz(), {0, 1});
    c.add(qop::rz(0.0), {1}); // identity up to phase
    const transpile::PeepholeCancel pass;
    transpile::PassContext ctx;
    const Circuit out = pass.run(c, ctx);
    EXPECT_EQ(out.size(), 0u);
}

TEST(Peephole, PreservesUnitaryWhileShrinking)
{
    linalg::Rng rng(12);
    const Circuit base = randomCircuit(rng, 3, 4);
    // Interleave cancelling pairs into a copy.
    Circuit padded(3);
    const Matrix u = linalg::haarUnitary(rng, 4);
    for (const Gate &g : base.gates()) {
        padded.add(u, {0, 1});
        padded.add(u.dagger(), {0, 1});
        padded.add(g.op, g.qubits, g.label);
    }
    const transpile::PeepholeCancel pass;
    transpile::PassContext ctx;
    const Circuit out = pass.run(padded, ctx);
    EXPECT_EQ(out.size(), base.size());
    EXPECT_TRUE(qop::equalUpToGlobalPhase(out.toUnitary(),
                                          base.toUnitary(), 1e-7));
}

TEST(WeylCache, MemoizesRepeatedGateClasses)
{
    // Ten identical bond gates on alternating pairs: one synthesis
    // miss, nine hits, and the lowered circuit still reproduces the
    // logical unitary.
    const Matrix bond = qop::canonicalGate(0.3, 0.2, 0.1);
    Circuit c(3);
    for (int i = 0; i < 10; ++i)
        c.add(bond, {std::size_t(i % 2), std::size_t(i % 2 + 1)}, "bond");

    transpile::PassManager pm;
    pm.emplace<transpile::NativeLower>();
    const auto &lower =
        dynamic_cast<const transpile::NativeLower &>(pm.pass(0));
    const auto &ashn =
        dynamic_cast<const device::AshNGateSet &>(lower.gateSet());
    const transpile::TranspileResult res = pm.run(c);
    EXPECT_EQ(ashn.cache().misses(), 1u);
    EXPECT_EQ(ashn.cache().hits(), 9u);
    EXPECT_EQ(ashn.cache().size(), 1u);
    EXPECT_EQ(res.context.nativeGates, 10u);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(res.circuit.toUnitary(),
                                          c.toUnitary(), 1e-6));
}

TEST(Peephole, DefaultPipelineMatchesPeepholeOff)
{
    // PeepholeCancel is on by default in makePipeline; the lowered
    // unitary must be unchanged relative to a peephole-free pipeline
    // (the guard for enabling it by default). SingleQubitFuse merges a
    // cancelling same-pair 2q sequence into ONE identity-class gate —
    // only the peephole then deletes it, saving a whole native gate.
    linalg::Rng rng(15);
    for (int trial = 0; trial < 3; ++trial) {
        const Matrix u = linalg::haarUnitary(rng, 4);
        Circuit logical(4);
        logical.add(u, {0, 1});
        logical.add(linalg::haarUnitary(rng, 4), {2, 3});
        logical.add(u.dagger(), {0, 1});
        logical.add(linalg::haarUnitary(rng, 4), {1, 2});

        transpile::TranspileOptions off;
        off.peephole = false;
        const transpile::TranspileResult without =
            transpile::transpile(logical, off);
        const transpile::TranspileResult with =
            transpile::transpile(logical);
        EXPECT_LT(with.circuit.size(), without.circuit.size());
        EXPECT_LT(with.context.pulses.size(),
                  without.context.pulses.size());
        EXPECT_TRUE(qop::equalUpToGlobalPhase(with.circuit.toUnitary(),
                                              without.circuit.toUnitary(),
                                              1e-6))
            << "trial " << trial;
    }
}

TEST(Batch, RejectsNegativeThreadCount)
{
    linalg::Rng rng(17);
    const std::vector<Circuit> circuits{randomCircuit(rng, 3, 2)};
    try {
        transpile::transpileBatch(circuits, {}, -2);
        FAIL() << "a negative thread count must be rejected";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("transpileBatch"), std::string::npos) << what;
        EXPECT_NE(what.find("-2"), std::string::npos) << what;
    }
}

TEST(Batch, DeterministicAcrossThreadCounts)
{
    linalg::Rng rng(13);
    std::vector<Circuit> circuits;
    for (int i = 0; i < 6; ++i)
        circuits.push_back(randomCircuit(rng, 3, 4));

    transpile::TranspileOptions opts;
    opts.h = 0.05;
    const auto one = transpile::transpileBatch(circuits, opts, 1);
    const auto four = transpile::transpileBatch(circuits, opts, 4);
    ASSERT_EQ(one.size(), circuits.size());
    ASSERT_EQ(four.size(), circuits.size());
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        // Bit-for-bit identical gate streams regardless of threads.
        ASSERT_EQ(one[i].circuit.size(), four[i].circuit.size());
        for (std::size_t g = 0; g < one[i].circuit.size(); ++g) {
            const Gate &ga = one[i].circuit.gates()[g];
            const Gate &gb = four[i].circuit.gates()[g];
            ASSERT_EQ(ga.qubits, gb.qubits);
            for (std::size_t r = 0; r < ga.op.rows(); ++r)
                for (std::size_t col = 0; col < ga.op.cols(); ++col)
                    ASSERT_EQ(ga.op(r, col), gb.op(r, col));
        }
        ASSERT_EQ(one[i].context.pulses.size(),
                  four[i].context.pulses.size());
        for (std::size_t p = 0; p < one[i].context.pulses.size(); ++p)
            ASSERT_EQ(one[i].context.pulses[p].params.tau,
                      four[i].context.pulses[p].params.tau);
        // And identical to a standalone transpile() of the same input.
        const transpile::TranspileResult solo =
            transpile::transpile(circuits[i], opts);
        ASSERT_EQ(solo.circuit.size(), one[i].circuit.size());
        ASSERT_EQ(solo.context.totalPulseTime,
                  one[i].context.totalPulseTime);
    }
}

TEST(Facade, CompileCircuitMatchesPipeline)
{
    linalg::Rng rng(14);
    const Circuit logical = randomCircuit(rng, 3, 5, true);
    const synth::CompiledProgram prog =
        synth::compileCircuit(logical, 0.2, 0.8);
    EXPECT_TRUE(qop::equalUpToGlobalPhase(prog.circuit.toUnitary(),
                                          logical.toUnitary(), 1e-6));
    EXPECT_EQ(prog.pulses.size(), prog.circuit.twoQubitCount());
    double tau = 0.0;
    for (const synth::ScheduledPulse &p : prog.pulses)
        tau += p.params.tau;
    EXPECT_NEAR(prog.totalTwoQubitTime, tau, 1e-12);

    transpile::TranspileOptions opts;
    opts.h = 0.2;
    opts.r = 0.8;
    const transpile::TranspileResult res =
        transpile::transpile(logical, opts);
    ASSERT_EQ(res.circuit.size(), prog.circuit.size());
    EXPECT_EQ(res.context.singleQubitGates, prog.singleQubitGates);
    EXPECT_EQ(res.context.totalPulseTime, prog.totalTwoQubitTime);
}

} // namespace
