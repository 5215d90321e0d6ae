/**
 * @file
 * The engine's differential oracle (fast; part of check-fast and the CI
 * sanitizer matrix). Every execution configuration must reproduce
 * forced-scalar, serial, interleaved execution bit for bit, on every
 * lane, over random circuits covering all five KernelKinds. The
 * configuration space is the product of
 *
 *   - every compiled and host-supported SIMD backend,
 *   - 1, 2 or 4 sweep threads (a caller pool or a transient one),
 *   - the state layout: one interleaved statevector, or a SoA batch of
 *     B = 1, 3 or 8 lanes, and
 *   - the block exponent: off, 3, or the whole register.
 *
 * Each configuration runs once, on one of the circuits in rotation.
 * The register is wide enough that every kind's sweep clears the
 * engine's parallel cutoff, so threaded configurations really chunk.
 */

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/random.hh"
#include "sim/batch.hh"
#include "sim/batch_state.hh"
#include "sim/dispatch.hh"
#include "sim/engine.hh"
#include "sim_test_util.hh"

namespace {

using namespace crisc;
using linalg::CVector;
using testutil::bitIdentical;
using testutil::randomState;

/** Restores the probe-resolved backend when a forcing test exits. */
struct DispatchRestore
{
    ~DispatchRestore() { sim::setDispatchOverride("auto"); }
};

constexpr std::size_t kWidth = 13;
constexpr std::size_t kMaxLanes = 8;

/** A random plan, kMaxLanes input states and their reference outputs
 *  from forced-scalar, serial, interleaved execution. */
struct OracleCase
{
    sim::Plan plan;
    std::vector<CVector> inputs;
    std::vector<CVector> expected;
};

TEST(EngineOracle, EveryConfigurationMatchesScalarSerialInterleaved)
{
    DispatchRestore restore;
    linalg::Rng rng(83);
    bool sawKind[5] = {false, false, false, false, false};

    sim::setDispatchOverride("scalar");
    std::vector<OracleCase> cases;
    for (int c = 0; c < 3; ++c) {
        OracleCase oc{sim::compile(testutil::randomCircuit(rng, kWidth, 20)),
                      {},
                      {}};
        for (const sim::KernelOp &op : oc.plan.ops())
            sawKind[static_cast<int>(op.kind)] = true;
        for (std::size_t l = 0; l < kMaxLanes; ++l) {
            oc.inputs.push_back(randomState(rng, kWidth));
            CVector ref = oc.inputs.back();
            sim::execute(oc.plan, ref.data());
            oc.expected.push_back(std::move(ref));
        }
        cases.push_back(std::move(oc));
    }
    for (int k = 0; k < 5; ++k)
        EXPECT_TRUE(sawKind[k]) << "kernel kind " << k << " never hit";

    std::vector<sim::Backend> backends;
    for (const sim::Backend b : sim::compiledBackends())
        if (sim::hostSupports(b))
            backends.push_back(b);
    sim::ThreadPool pool2(2), pool4(4);

    std::size_t index = 0;
    bool sawSoaBlockedAvx2T4 = false;
    for (const sim::Backend backend : backends) {
        sim::setDispatchOverride(sim::backendName(backend));
        for (const std::size_t threads : {1u, 2u, 4u}) {
            // lanes == 0 is the interleaved layout.
            for (const std::size_t lanes : {0u, 1u, 3u, 8u}) {
                for (const std::size_t block : {std::size_t{0},
                                                std::size_t{3}, kWidth}) {
                    const OracleCase &oc = cases[index % cases.size()];
                    sim::ExecOptions opts;
                    opts.threads = threads;
                    // Alternate a caller pool with a transient one.
                    if (index++ % 2 == 0 && threads > 1)
                        opts.pool = threads == 2 ? &pool2 : &pool4;
                    // Block exponent 0 is plain execute() (auto stays
                    // off at this width); others force executeBlocked.
                    const auto run = [&](sim::StateView state) {
                        if (block == 0)
                            sim::execute(oc.plan, state, opts);
                        else
                            sim::executeBlocked(oc.plan, state, block, opts);
                    };

                    std::vector<CVector> got;
                    if (lanes == 0) {
                        got.push_back(oc.inputs[0]);
                        run(sim::StateView(got[0].data(), kWidth));
                    } else {
                        sim::BatchState batch =
                            sim::BatchState::pack(std::vector<CVector>(
                                oc.inputs.begin(),
                                oc.inputs.begin() + lanes));
                        run(batch);
                        got = batch.unpack();
                    }
                    for (std::size_t l = 0; l < got.size(); ++l)
                        EXPECT_TRUE(bitIdentical(got[l], oc.expected[l]))
                            << sim::backendName(backend)
                            << " threads=" << threads << " lanes=" << lanes
                            << " block=" << block << " lane=" << l;
                    sawSoaBlockedAvx2T4 |= backend == sim::Backend::Avx2 &&
                                           threads == 4 && lanes > 0 &&
                                           block != 0;
                }
            }
        }
    }
    if (sim::backendCompiled(sim::Backend::Avx2) &&
        sim::hostSupports(sim::Backend::Avx2)) {
        EXPECT_TRUE(sawSoaBlockedAvx2T4);
    }
}

TEST(EngineOracle, RejectsStateOfTheWrongWidth)
{
    linalg::Rng rng(84);
    const sim::Plan plan = sim::compile(testutil::randomCircuit(rng, 5, 8));
    sim::BatchState wrong(6, 2);
    EXPECT_THROW(sim::execute(plan, wrong), std::invalid_argument);
    EXPECT_THROW(sim::executeBlocked(plan, wrong, 3), std::invalid_argument);
    EXPECT_THROW(sim::executeBlockedRange(plan, 0, 0, wrong, 3, 0, 1),
                 std::invalid_argument);
}

} // namespace
