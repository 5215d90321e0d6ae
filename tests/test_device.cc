/**
 * @file
 * Tests for the device layer: coupling-map factories (line, ring,
 * heavy-hex), Device/NoiseModel/QvConfig validation, the per-set cost
 * models, and — the core guarantee — per-gate-set lowering
 * equivalence: the native program NativeLower emits for AshN, CZ, and
 * SQiSW targets reproduces the logical unitary, both gate-by-gate and
 * through the full routed pipeline on grid, line, and ring devices.
 */

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "ashn/special.hh"
#include "circuit/circuit.hh"
#include "device/device.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "qop/metrics.hh"
#include "qv/qv.hh"
#include "route/route.hh"
#include "sim/engine.hh"
#include "synth/two_qubit.hh"
#include "transpile/transpile.hh"
#include "weyl/weyl.hh"

namespace {

using namespace crisc;
using circuit::Circuit;
using circuit::Gate;
using device::Device;
using device::NativeKind;
using linalg::Matrix;
using route::CouplingMap;

// ------------------------------------------------- coupling factories

TEST(CouplingFactories, LineIsAChain)
{
    const CouplingMap m = CouplingMap::line(5);
    ASSERT_EQ(m.numQubits(), 5u);
    for (std::size_t q = 0; q + 1 < 5; ++q)
        EXPECT_TRUE(m.adjacent(q, q + 1));
    EXPECT_FALSE(m.adjacent(0, 4));
    EXPECT_FALSE(m.adjacent(0, 2));
    EXPECT_EQ(m.shortestPath(0, 4).size(), 5u);
    EXPECT_THROW(CouplingMap::line(0), std::invalid_argument);
}

TEST(CouplingFactories, RingClosesTheChain)
{
    const CouplingMap m = CouplingMap::ring(6);
    ASSERT_EQ(m.numQubits(), 6u);
    for (std::size_t q = 0; q < 6; ++q) {
        EXPECT_TRUE(m.adjacent(q, (q + 1) % 6));
        EXPECT_EQ(m.neighbours(q).size(), 2u);
    }
    // Opposite side is 3 hops, not 5: the ring edge is used.
    EXPECT_EQ(m.shortestPath(0, 3).size(), 4u);
    EXPECT_EQ(m.shortestPath(0, 5).size(), 2u);
    // Degenerate sizes stay valid graphs.
    EXPECT_EQ(CouplingMap::ring(1).neighbours(0).size(), 0u);
    EXPECT_TRUE(CouplingMap::ring(2).adjacent(0, 1));
    EXPECT_THROW(CouplingMap::ring(0), std::invalid_argument);
}

TEST(CouplingFactories, HeavyHexShape)
{
    for (std::size_t d : {1u, 3u, 5u, 7u}) {
        const CouplingMap m = CouplingMap::heavyHex(d);
        ASSERT_EQ(m.numQubits(), (5 * d * d - 2 * d - 1) / 2) << "d=" << d;
        // Connected, and every vertex has degree <= 3 (the "heavy"
        // lattice property).
        for (std::size_t q = 0; q < m.numQubits(); ++q) {
            EXPECT_LE(m.neighbours(q).size(), 3u);
            EXPECT_FALSE(m.shortestPath(0, q).empty());
        }
    }
    // Data qubits of the d=3 lattice sit on a 3x3 grid subdivided by
    // flags: horizontal data neighbours are exactly 2 hops apart.
    const CouplingMap m3 = CouplingMap::heavyHex(3);
    EXPECT_EQ(m3.shortestPath(0, 1).size(), 3u);
    EXPECT_THROW(CouplingMap::heavyHex(0), std::invalid_argument);
    EXPECT_THROW(CouplingMap::heavyHex(2), std::invalid_argument);
    EXPECT_THROW(CouplingMap::heavyHex(4), std::invalid_argument);
}

// --------------------------------------------------------- validation

TEST(DeviceValidation, RejectsBadParameters)
{
    EXPECT_THROW(Device::grid2d(NativeKind::AshN, 0), std::invalid_argument);
    EXPECT_THROW(Device::grid2d(NativeKind::CZ, 4, {.twoQubitError = 1.5}),
                 std::invalid_argument);
    EXPECT_THROW(Device::grid2d(NativeKind::CZ, 4, {.twoQubitError = -0.1}),
                 std::invalid_argument);
    EXPECT_THROW(
        Device::grid2d(NativeKind::SQiSW, 4, {.singleQubitError = 2.0}),
        std::invalid_argument);
    EXPECT_THROW(Device::grid2d(NativeKind::AshN, 4, {.h = 1.5}),
                 std::invalid_argument);
    EXPECT_THROW(Device::grid2d(NativeKind::AshN, 4, {.r = -0.5}),
                 std::invalid_argument);
    // Cutoff beyond ashn::synthesize's realizability bound
    // (1-|h|)*pi/2 fails at construction, not mid-transpile.
    EXPECT_THROW(Device::grid2d(NativeKind::AshN, 4, {.r = 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(Device::grid2d(NativeKind::AshN, 4, {.h = 0.5, .r = 1.0}),
                 std::invalid_argument);
    // CZ and SQiSW do not read (h, r), but makeNativeGateSet checks them
    // for every kind, so a bad value fails at construction and names
    // the kind.
    for (const NativeKind kind : {NativeKind::CZ, NativeKind::SQiSW}) {
        const std::string name = device::nativeKindName(kind);
        EXPECT_THROW(Device::grid2d(kind, 4, {.h = std::nan("")}),
                     std::invalid_argument)
            << name;
        EXPECT_THROW(Device::grid2d(kind, 4, {.h = 1.5}),
                     std::invalid_argument)
            << name;
        EXPECT_THROW(Device::grid2d(kind, 4, {.r = -0.5}),
                     std::invalid_argument)
            << name;
        EXPECT_THROW(Device::withCoupling(kind, CouplingMap::line(2),
                                          {.r = std::numeric_limits<
                                               double>::infinity()}),
                     std::invalid_argument)
            << name;
        try {
            device::makeNativeGateSet(kind, std::nan(""), 0.0);
            ADD_FAILURE() << name << " accepted h = NaN";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
        EXPECT_NO_THROW(Device::grid2d(kind, 4));
    }
    // AshNGateSet runs ashn::synthesize's own argument check, so a
    // non-finite h or cutoff fails at construction too, naming the set.
    EXPECT_THROW(device::AshNGateSet(std::nan(""), 0.0),
                 std::invalid_argument);
    EXPECT_THROW(device::AshNGateSet(0.1, std::nan("")),
                 std::invalid_argument);
    EXPECT_THROW(
        device::AshNGateSet(0.1, std::numeric_limits<double>::infinity()),
        std::invalid_argument);
    EXPECT_THROW(Device::grid2d(NativeKind::AshN, 4, {.h = std::nan("")}),
                 std::invalid_argument);
    try {
        device::AshNGateSet bad(0.1, std::nan(""));
        ADD_FAILURE() << "AshNGateSet accepted r = NaN";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("AshNGateSet"),
                  std::string::npos);
    }
    EXPECT_NO_THROW(device::AshNGateSet(1.0, 0.0));
    EXPECT_NO_THROW(device::AshNGateSet(0.0, M_PI / 2.0));
    EXPECT_THROW(Device("x", CouplingMap::line(2), nullptr, {}),
                 std::invalid_argument);

    device::NoiseModel nan;
    nan.twoQubitError = std::nan("");
    EXPECT_THROW(nan.validate(), std::invalid_argument);
    device::NoiseModel zeroRef;
    zeroRef.referenceTime = 0.0;
    EXPECT_THROW(zeroRef.validate(), std::invalid_argument);
    // An infinite reference time would make every 2q rate 0, silently
    // turning noise off.
    device::NoiseModel infRef;
    infRef.referenceTime = std::numeric_limits<double>::infinity();
    EXPECT_THROW(infRef.validate(), std::invalid_argument);
    device::NoiseModel nanRef;
    nanRef.referenceTime = std::nan("");
    EXPECT_THROW(nanRef.validate(), std::invalid_argument);
}

TEST(DeviceValidation, PresetsAreWellFormed)
{
    const Device dev = Device::grid2d(NativeKind::AshN, 7, {.r = 1.1});
    EXPECT_EQ(dev.numQubits(), 7u);
    EXPECT_EQ(dev.gateSet().kind(), NativeKind::AshN);
    EXPECT_STREQ(dev.gateSet().name(), "AshN");
    // A copy shares the gate set (and its Weyl cache).
    const Device copy = dev;
    EXPECT_EQ(&copy.gateSet(), &dev.gateSet());
}

/**
 * Runs heavyOutputExperiment on @p cfg, expecting std::invalid_argument
 * whose message contains @p field.
 */
void
expectRejectedNaming(const qv::QvConfig &cfg, const std::string &field)
{
    try {
        qv::heavyOutputExperiment(cfg);
        ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << "message \"" << e.what() << "\" does not name " << field;
    }
}

TEST(DeviceValidation, QvConfigRejectsGarbage)
{
    // Every case breaks exactly one field of an otherwise valid,
    // device-backed config, so each throw is the one under test. Error
    // rates are Device parameters; RejectsBadParameters covers them
    // through the factories.
    const Device dev = Device::grid2d(NativeKind::AshN, 4);
    qv::QvConfig good;
    good.width = 4;
    good.device = &dev;
    good.circuits = 1;
    good.trajectories = 1;
    good.threads = 1;
    EXPECT_NO_THROW(qv::heavyOutputExperiment(good));

    qv::QvConfig bad = good;
    bad.device = nullptr;
    expectRejectedNaming(bad, "QvConfig::device");
    bad = good;
    bad.width = 0;
    expectRejectedNaming(bad, "QvConfig: width ");
    bad = good;
    bad.width = 31;  // beyond the statevector simulation limit.
    expectRejectedNaming(bad, "QvConfig: width ");
    bad = good;
    bad.circuits = 0;
    expectRejectedNaming(bad, "QvConfig: circuits ");
    bad = good;
    bad.trajectories = -3;
    expectRejectedNaming(bad, "QvConfig: trajectories ");
    bad = good;
    bad.threads = -1;
    expectRejectedNaming(bad, "QvConfig: threads ");
    bad = good;
    bad.stateThreads = -2;
    expectRejectedNaming(bad, "QvConfig: stateThreads ");
    bad = good;
    bad.soaLanes = -4;
    expectRejectedNaming(bad, "QvConfig: soaLanes ");
    // A device smaller than the requested width is rejected up front.
    const Device small = Device::grid2d(NativeKind::AshN, 2);
    bad = good;
    bad.device = &small;
    expectRejectedNaming(bad, "device has 2 qubits");
}

// -------------------------------------------------------- cost models

TEST(NoiseModel, RatesScaleWithGateTime)
{
    device::NoiseModel n;
    n.twoQubitError = 0.012;
    EXPECT_DOUBLE_EQ(n.twoQubitRateFor(device::kCzTime), 0.012);
    EXPECT_DOUBLE_EQ(n.twoQubitRateFor(0.5 * device::kCzTime), 0.006);
    EXPECT_DOUBLE_EQ(n.twoQubitRateFor(0.0), 0.0);
}

TEST(GateSetCost, MatchesPaperModel)
{
    const weyl::WeylPoint swap = ashn::swapPoint();
    const weyl::WeylPoint cnot = ashn::cnotPoint();

    const auto cz = device::makeNativeGateSet(NativeKind::CZ)->cost(swap);
    EXPECT_EQ(cz.nativeGates, 3);
    EXPECT_NEAR(cz.totalTime, 3.0 * M_PI / std::sqrt(2.0), 1e-12);

    // CNOT class sits on the 2-SQiSW boundary x = y + |z|.
    const auto sqiswSet = device::makeNativeGateSet(NativeKind::SQiSW);
    EXPECT_EQ(sqiswSet->cost(cnot).nativeGates, 2);
    EXPECT_EQ(sqiswSet->cost(swap).nativeGates, 3);

    const auto an = device::makeNativeGateSet(NativeKind::AshN)->cost(swap);
    EXPECT_EQ(an.nativeGates, 1);
    EXPECT_NEAR(an.totalTime, 3.0 * M_PI / 4.0, 1e-12);
    // Near-identity gates under a cutoff pay the ND-EXT time.
    const auto tiny = device::makeNativeGateSet(NativeKind::AshN, 0.0, 1.1)
                          ->cost({0.01, 0.0, 0.0});
    EXPECT_NEAR(tiny.totalTime, M_PI - 0.02, 1e-9);
}

// ------------------------------------------------ lowering equivalence

/** Gates worth lowering: specials plus Haar randoms. */
std::vector<Matrix>
lowerTargets(linalg::Rng &rng, int randoms)
{
    std::vector<Matrix> gates = {
        qop::cnot(), qop::swapGate(), qop::cz(), qop::iswap(),
        qop::sqisw(), qop::canonicalGate(0.3, 0.2, 0.1),
        linalg::kron(linalg::haarUnitary(rng, 2),
                     linalg::haarUnitary(rng, 2)),
        Matrix::identity(4),
    };
    for (int i = 0; i < randoms; ++i)
        gates.push_back(linalg::haarUnitary(rng, 4));
    return gates;
}

TEST(NativeLowering, EveryGateSetReproducesTheUnitary)
{
    linalg::Rng rng(21);
    const std::vector<Matrix> targets = lowerTargets(rng, 6);
    for (const NativeKind kind :
         {NativeKind::AshN, NativeKind::CZ, NativeKind::SQiSW}) {
        const auto set = device::makeNativeGateSet(kind, 0.0, 0.0);
        for (std::size_t i = 0; i < targets.size(); ++i) {
            const device::Lowered2q low = set->lower(targets[i]);
            EXPECT_TRUE(qop::equalUpToGlobalPhase(
                low.ops.toUnitary(), targets[i], 1e-5))
                << set->name() << " target " << i;
            // Native count bookkeeping matches the emitted circuit.
            std::size_t natives = 0;
            for (const Gate &g : low.ops.gates())
                natives += g.qubits.size() == 2;
            EXPECT_EQ(natives,
                      static_cast<std::size_t>(low.cost.nativeGates))
                << set->name() << " target " << i;
        }
    }
}

TEST(NativeLowering, CzUsesMinimalCountAndSqiswMatchesRegion)
{
    linalg::Rng rng(22);
    const std::vector<Matrix> targets = lowerTargets(rng, 4);
    const auto cz = device::makeNativeGateSet(NativeKind::CZ);
    const auto sq = device::makeNativeGateSet(NativeKind::SQiSW);
    for (const Matrix &u : targets) {
        EXPECT_EQ(static_cast<std::size_t>(cz->lower(u).cost.nativeGates),
                  synth::cnotCost(u));
        const weyl::WeylPoint p = weyl::weylCoordinates(u);
        EXPECT_EQ(sq->lower(u).cost.nativeGates, sq->cost(p).nativeGates);
    }
    // AshN is the headline: always exactly one native pulse.
    const auto an = device::makeNativeGateSet(NativeKind::AshN);
    for (const Matrix &u : targets) {
        const device::Lowered2q low = an->lower(u);
        EXPECT_EQ(low.cost.nativeGates, 1);
        ASSERT_TRUE(low.pulse.has_value());
        EXPECT_DOUBLE_EQ(low.cost.totalTime, low.pulse->tau);
    }
}

/** Undoes the routing permutation of @p routed given the final layout. */
Matrix
unpermute(const Matrix &routed, const route::Layout &layout, std::size_t n)
{
    const std::size_t dim = std::size_t{1} << n;
    Matrix out(dim, dim);
    for (std::size_t phys = 0; phys < dim; ++phys) {
        const std::size_t perm = layout.logicalBasisIndex(phys, n);
        for (std::size_t col = 0; col < dim; ++col)
            out(perm, col) = routed(phys, col);
    }
    return out;
}

TEST(NativeLowering, RoutedPipelineEquivalentOnGridLineAndRing)
{
    const std::size_t n = 4;
    linalg::Rng rng(23);

    struct Topology
    {
        const char *name;
        CouplingMap map;
    };
    const Topology topologies[] = {
        {"grid", CouplingMap::gridFor(n)},
        {"line", CouplingMap::line(n)},
        {"ring", CouplingMap::ring(n)},
    };
    for (const NativeKind kind :
         {NativeKind::AshN, NativeKind::CZ, NativeKind::SQiSW}) {
        for (const Topology &topo : topologies) {
            const Device dev =
                Device::withCoupling(kind, topo.map, {.r = 0.0});
            Circuit logical(n);
            for (int i = 0; i < 5; ++i) {
                const std::size_t a = rng.index(n);
                std::size_t b = rng.index(n);
                while (b == a)
                    b = rng.index(n);
                logical.add(linalg::haarUnitary(rng, 4), {a, b});
            }

            transpile::TranspileOptions opts;
            opts.device = &dev;
            const transpile::TranspileResult res =
                transpile::transpile(logical, opts);
            ASSERT_TRUE(res.context.layout.has_value());
            EXPECT_GT(res.context.nativeGates, 0u);
            if (kind == NativeKind::AshN)
                EXPECT_EQ(res.context.pulses.size(),
                          res.circuit.twoQubitCount());
            else
                EXPECT_TRUE(res.context.pulses.empty());

            const Matrix ur = unpermute(res.circuit.toUnitary(),
                                        *res.context.layout, n);
            EXPECT_TRUE(qop::equalUpToGlobalPhase(ur, logical.toUnitary(),
                                                  1e-5))
                << device::nativeKindName(kind) << " on " << topo.name;
        }
    }
}

TEST(NativeLowering, HeavyHexDeviceRoutesAndLowers)
{
    // A non-grid device is one line to construct and drops straight
    // into the same pipeline. 19 physical qubits is too wide for a
    // dense unitary, so compare statevectors: run both programs from
    // |0...0> and undo the routing permutation on basis indices.
    const Device dev = Device::withCoupling(
        NativeKind::AshN, CouplingMap::heavyHex(3), {.r = 1.1});
    const std::size_t n = dev.numQubits();
    linalg::Rng rng(24);
    Circuit logical(4);
    for (int i = 0; i < 4; ++i) {
        const std::size_t a = rng.index(4);
        std::size_t b = rng.index(4);
        while (b == a)
            b = rng.index(4);
        logical.add(linalg::haarUnitary(rng, 4), {a, b});
    }
    transpile::TranspileOptions opts;
    opts.device = &dev;
    const transpile::TranspileResult res =
        transpile::transpile(logical, opts);
    ASSERT_TRUE(res.context.layout.has_value());
    const route::Layout &layout = *res.context.layout;

    Circuit wide(n);
    for (const Gate &g : logical.gates())
        wide.add(g.op, g.qubits, g.label);
    const linalg::CVector ideal = sim::run(sim::compile(wide));
    const linalg::CVector lowered = sim::run(sim::compile(res.circuit));
    ASSERT_EQ(lowered.size(), ideal.size());
    linalg::Complex overlap{0.0, 0.0};
    for (std::size_t phys = 0; phys < lowered.size(); ++phys) {
        const std::size_t perm = layout.logicalBasisIndex(phys, n);
        overlap += std::conj(ideal[perm]) * lowered[phys];
    }
    EXPECT_NEAR(std::abs(overlap), 1.0, 1e-7);
}

TEST(QvOnDevice, DeviceLargerThanWidthRoutesThroughSpareQubits)
{
    // Width-3 circuits on a 4-qubit device whose topology forces
    // routing through physical qubit 3 (0-3, 3-1, 1-2): trajectories
    // must simulate the whole device, not just `width` qubits.
    const Device dev = Device::withCoupling(
        NativeKind::AshN,
        CouplingMap::fromEdges(4, {{0, 3}, {3, 1}, {1, 2}}));
    qv::QvConfig cfg;
    cfg.width = 3;
    cfg.circuits = 3;
    cfg.trajectories = 2;
    cfg.seed = 7;
    cfg.threads = 1;
    cfg.device = &dev;
    const qv::QvResult r = qv::heavyOutputExperiment(cfg);
    EXPECT_GE(r.heavyOutputProportion, 0.0);
    EXPECT_LE(r.heavyOutputProportion, 1.0);
    EXPECT_TRUE(std::isfinite(r.heavyOutputProportion));
}

// ---------------------------------------------------- Weyl cache edges

TEST(WeylCache, RejectsNonFiniteCoordinates)
{
    // A NaN key can never equal itself, so without the guard every
    // lookup of a poisoned point would insert a fresh entry; the cache
    // must fail fast and stay empty instead.
    device::WeylCache cache;
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(cache.lookup({nan, 0.1, 0.0}, 0.0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(cache.lookup({0.3, nan, 0.0}, 0.0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(cache.lookup({0.3, 0.1, nan}, 0.0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(cache.lookup({0.3, 0.1, 0.0}, nan, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(cache.lookup({0.3, 0.1, 0.0}, 0.0, nan),
                 std::invalid_argument);
    EXPECT_THROW(cache.lookup({inf, 0.1, 0.0}, 0.0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(cache.lookup({0.3, 0.1, 0.0}, -inf, 0.0),
                 std::invalid_argument);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    // Repeating the poisoned lookup never grows the map.
    for (int i = 0; i < 4; ++i)
        EXPECT_THROW(cache.lookup({nan, 0.1, 0.0}, 0.0, 0.0),
                     std::invalid_argument);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(WeylCache, NegativeZeroNormalizedInEveryKeyField)
{
    // -0.0 == 0.0 but hashes differently; all five key fields must
    // normalize so signed zeros share one entry.
    device::WeylCache cache;
    cache.lookup({0.3, 0.1, 0.0}, 0.0, 0.0);
    EXPECT_EQ(cache.misses(), 1u);
    cache.lookup({0.3, 0.1, -0.0}, -0.0, -0.0);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(WeylCache, ConcurrentBatchAccountsEveryLoweringAndStaysBounded)
{
    // One gate class repeated across a batch transpiled on several
    // threads, lowered through the device's shared AshN cache: every
    // 2q lowering must register as exactly one hit or miss, and the
    // cache must hold exactly the distinct chamber points (one), not
    // grow with the lookup count. Bonds alternate between the pairs
    // (0,1) and (1,2), so no two neighbours share a pair and the full
    // pipeline keeps every bond a separate lowering.
    const Matrix bond = qop::canonicalGate(0.3, 0.2, 0.1);
    const std::size_t gatesPerCircuit = 10;
    std::vector<Circuit> batch;
    for (int i = 0; i < 16; ++i) {
        Circuit c(3);
        for (std::size_t g = 0; g < gatesPerCircuit; ++g)
            c.add(bond, {g % 2, g % 2 + 1}, "bond");
        batch.push_back(std::move(c));
    }

    const Device dev = Device::withCoupling(
        NativeKind::AshN, CouplingMap::line(3),
        {.twoQubitError = 0.012, .singleQubitError = 0.001, .h = 0.0,
         .r = 0.0});
    const auto results =
        transpile::transpileBatch(batch, {.device = &dev}, 4);

    std::size_t lowered = 0;
    for (const auto &res : results)
        lowered += res.context.nativeGates;
    EXPECT_EQ(lowered, batch.size() * gatesPerCircuit);

    const auto &ashn =
        dynamic_cast<const device::AshNGateSet &>(dev.gateSet());
    EXPECT_EQ(ashn.cache().hits() + ashn.cache().misses(), lowered);
    EXPECT_EQ(ashn.cache().size(), 1u); // one gate class, one entry
    EXPECT_GE(ashn.cache().misses(), 1u);
}

TEST(QvOnDevice, WideDeviceCompactsToTouchedQubits)
{
    // Width-3 circuits on the 19-qubit heavy-hex device: trajectory
    // cost must scale with the routed circuit (a handful of touched
    // qubits), not with 2^19, so this completes in well under a
    // second.
    const Device dev = Device::withCoupling(NativeKind::CZ,
                                            CouplingMap::heavyHex(3));
    qv::QvConfig cfg;
    cfg.width = 3;
    cfg.circuits = 2;
    cfg.trajectories = 2;
    cfg.seed = 11;
    cfg.threads = 1;
    cfg.device = &dev;
    const qv::QvResult r = qv::heavyOutputExperiment(cfg);
    EXPECT_GE(r.heavyOutputProportion, 0.0);
    EXPECT_LE(r.heavyOutputProportion, 1.0);
}

} // namespace
