/**
 * @file
 * Tests for routing and the quantum-volume harness.
 */

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "device/device.hh"
#include "qv/qv.hh"
#include "route/route.hh"

namespace {

using namespace crisc;
using device::Device;
using device::NativeKind;
using route::CouplingMap;
using route::Layout;

/** The Figure-7 grid device for a width-d harness run. */
Device
gridDevice(NativeKind kind, std::size_t d, double two_qubit_error,
           double single_qubit_error)
{
    return Device::grid2d(kind, d,
                          {.twoQubitError = two_qubit_error,
                           .singleQubitError = single_qubit_error});
}

TEST(Route, GridAdjacency)
{
    const CouplingMap m = CouplingMap::grid(2, 3);
    ASSERT_EQ(m.numQubits(), 6u);
    EXPECT_TRUE(m.adjacent(0, 1));
    EXPECT_TRUE(m.adjacent(1, 4));
    EXPECT_FALSE(m.adjacent(0, 4));
    EXPECT_FALSE(m.adjacent(0, 5));
}

TEST(Route, GridForTruncatesConnected)
{
    for (std::size_t n : {2u, 3u, 5u, 7u, 8u}) {
        const CouplingMap m = CouplingMap::gridFor(n);
        ASSERT_EQ(m.numQubits(), n);
        // Connectivity: BFS reaches everything.
        for (std::size_t q = 1; q < n; ++q)
            EXPECT_FALSE(m.shortestPath(0, q).empty());
    }
}

TEST(Route, ShortestPathOnGrid)
{
    const CouplingMap m = CouplingMap::grid(3, 3);
    const auto path = m.shortestPath(0, 8);
    EXPECT_EQ(path.size(), 5u); // Manhattan distance 4.
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), 8u);
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_TRUE(m.adjacent(path[i], path[i + 1]));
}

TEST(Route, RoutePairMakesAdjacent)
{
    const CouplingMap m = CouplingMap::grid(3, 3);
    Layout layout(9);
    const auto swaps = route::routePair(m, layout, 0, 8);
    EXPECT_EQ(swaps.size(), 3u); // distance 4 -> 3 swaps.
    EXPECT_TRUE(m.adjacent(layout.physicalOf(0), layout.physicalOf(8)));
    // Layout stays a permutation.
    std::vector<bool> seen(9, false);
    for (std::size_t l = 0; l < 9; ++l) {
        const std::size_t p = layout.physicalOf(l);
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
        EXPECT_EQ(layout.logicalOf(p), l);
    }
}

TEST(Route, AdjacentPairNeedsNoSwap)
{
    const CouplingMap m = CouplingMap::grid(2, 2);
    Layout layout(4);
    EXPECT_TRUE(route::routePair(m, layout, 0, 1).empty());
}

TEST(Qv, NoiselessHeavyOutputIsHigh)
{
    // Without noise the heavy output proportion approaches the ideal
    // (1 + ln 2)/2 ~ 0.85 for Haar-random circuits.
    const Device dev = gridDevice(NativeKind::AshN, 3, 0.0, 0.0);
    qv::QvConfig cfg;
    cfg.width = 3;
    cfg.device = &dev;
    cfg.circuits = 30;
    cfg.trajectories = 1;
    const qv::QvResult r = qv::heavyOutputExperiment(cfg);
    EXPECT_GT(r.heavyOutputProportion, 0.75);
    EXPECT_LT(r.heavyOutputProportion, 0.95);
}

TEST(Qv, NoiseLowersHeavyOutput)
{
    const Device cleanDev = gridDevice(NativeKind::AshN, 4, 0.0, 0.0);
    const Device noisyDev = gridDevice(NativeKind::AshN, 4, 0.03, 0.001);
    qv::QvConfig clean;
    clean.width = 4;
    clean.device = &cleanDev;
    clean.circuits = 24;
    clean.trajectories = 1;
    clean.seed = 5;
    qv::QvConfig noisy = clean;
    noisy.device = &noisyDev;
    noisy.trajectories = 24;
    const double hClean =
        qv::heavyOutputExperiment(clean).heavyOutputProportion;
    const double hNoisy =
        qv::heavyOutputExperiment(noisy).heavyOutputProportion;
    EXPECT_GT(hClean - hNoisy, 0.05);
}

TEST(Qv, AshnBeatsCzAtEqualErrorRate)
{
    // The headline of Figure 7: shorter gates, fewer native gates,
    // higher heavy-output proportion.
    const Device ashnDev = gridDevice(NativeKind::AshN, 4, 0.03, 0.001);
    const Device czDev = gridDevice(NativeKind::CZ, 4, 0.03, 0.001);
    qv::QvConfig cfg;
    cfg.width = 4;
    cfg.circuits = 20;
    cfg.trajectories = 10;
    cfg.seed = 9;
    cfg.device = &ashnDev;
    const double ashn =
        qv::heavyOutputExperiment(cfg).heavyOutputProportion;
    cfg.device = &czDev;
    const double czv = qv::heavyOutputExperiment(cfg).heavyOutputProportion;
    EXPECT_GT(ashn, czv + 0.02);
}

TEST(Qv, RejectsNegativeThreadAndLaneCounts)
{
    // Regression: threads < 0 used to be silently clamped to 1; every
    // execution knob now fails validation like every other bad config.
    const Device dev = Device::grid2d(NativeKind::AshN, 3);
    qv::QvConfig cfg;
    cfg.width = 3;
    cfg.device = &dev;
    cfg.circuits = 1;
    cfg.trajectories = 1;
    cfg.threads = -1;
    EXPECT_THROW(qv::heavyOutputExperiment(cfg), std::invalid_argument);
    cfg.threads = 0;
    cfg.stateThreads = -3;
    EXPECT_THROW(qv::heavyOutputExperiment(cfg), std::invalid_argument);
    cfg.stateThreads = 1;
    cfg.soaLanes = -1;
    EXPECT_THROW(qv::heavyOutputExperiment(cfg), std::invalid_argument);
}

/** Bitwise equality of the four deterministic QvResult fields. */
void
expectSameResult(const qv::QvResult &got, const qv::QvResult &want)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.heavyOutputProportion),
              std::bit_cast<std::uint64_t>(want.heavyOutputProportion));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.avgNativeGatesPerCircuit),
              std::bit_cast<std::uint64_t>(want.avgNativeGatesPerCircuit));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(got.avgTwoQubitTimePerCircuit),
        std::bit_cast<std::uint64_t>(want.avgTwoQubitTimePerCircuit));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.avgSwapsPerCircuit),
              std::bit_cast<std::uint64_t>(want.avgSwapsPerCircuit));
}

TEST(Qv, EveryExecutionConfigMatchesSerial)
{
    // The differential oracle for the harness's three parallel axes:
    // circuit workers (7 > 6 circuits leaves some idle, 3 and 4 split
    // them unevenly), sweep workers per circuit (explicit or the width
    // heuristic), and SoA lanes (10 trajectories over 3 or 4 lanes
    // leave a remainder tile). Every combination must reproduce the
    // one-thread, one-lane serial run in all four result fields, bit
    // for bit.
    for (const NativeKind kind :
         {NativeKind::AshN, NativeKind::SQiSW, NativeKind::CZ}) {
        const Device dev = gridDevice(kind, 4, 0.02, 0.001);
        qv::QvConfig cfg;
        cfg.width = 4;
        cfg.device = &dev;
        cfg.circuits = 6;
        cfg.trajectories = 10;
        cfg.seed = 31;
        cfg.threads = 1;
        cfg.stateThreads = 1;
        cfg.soaLanes = 1;
        const qv::QvResult serial = qv::heavyOutputExperiment(cfg);
        for (const int threads : {1, 2, 3, 4, 7}) {
            for (const int stateThreads : {1, 2, 0}) {
                for (const int soaLanes : {1, 3, 4, 0}) {
                    SCOPED_TRACE(std::string(device::nativeKindName(kind)) +
                                 " threads=" + std::to_string(threads) +
                                 " stateThreads=" +
                                 std::to_string(stateThreads) +
                                 " soaLanes=" + std::to_string(soaLanes));
                    cfg.threads = threads;
                    cfg.stateThreads = stateThreads;
                    cfg.soaLanes = soaLanes;
                    expectSameResult(qv::heavyOutputExperiment(cfg),
                                     serial);
                }
            }
        }
    }
}

TEST(Qv, SwapOverheadTracked)
{
    const Device dev = Device::grid2d(NativeKind::AshN, 5);
    qv::QvConfig cfg;
    cfg.width = 5;
    cfg.device = &dev;
    cfg.circuits = 5;
    cfg.trajectories = 1;
    const qv::QvResult r = qv::heavyOutputExperiment(cfg);
    EXPECT_GT(r.avgSwapsPerCircuit, 0.0);
    EXPECT_GT(r.avgNativeGatesPerCircuit, 0.0);
    EXPECT_GT(r.avgTwoQubitTimePerCircuit, 0.0);
}

} // namespace
