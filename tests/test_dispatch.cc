/**
 * @file
 * Runtime ISA dispatch suite (fast; runs under the CI sanitizer
 * matrix). One binary carries every backend the compiler could build
 * (sim/dispatch.hh), so this suite can force each of them in-process
 * and pin the whole contract: override parsing rejects unknown names,
 * forcing an uncompiled or host-unsupported backend throws rather than
 * silently falling back, "auto" resolves deterministically to the
 * first compiled+supported backend in probe order, and every compiled
 * table covers every KernelKind with non-null entries. That every
 * selectable backend is bit-identical to forced-scalar on every
 * execution path is the engine oracle's job (test_engine_oracle.cc).
 */

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/dispatch.hh"
#include "sim/kernels.hh"

namespace {

using namespace crisc;

/** Restores the probe-resolved backend when a forcing test exits. */
struct DispatchRestore
{
    ~DispatchRestore() { sim::setDispatchOverride("auto"); }
};

constexpr sim::Backend kAllBackends[] = {
    sim::Backend::Scalar, sim::Backend::Avx2, sim::Backend::Neon};

// ---------------------------------------------------------------------
// Override parsing and reject-loud forcing.
// ---------------------------------------------------------------------

TEST(Dispatch, ParseOverrideAcceptsNamesAndAuto)
{
    EXPECT_EQ(sim::parseDispatchOverride("auto"), std::nullopt);
    EXPECT_EQ(sim::parseDispatchOverride(""), std::nullopt);
    EXPECT_EQ(sim::parseDispatchOverride("scalar"), sim::Backend::Scalar);
    EXPECT_EQ(sim::parseDispatchOverride("avx2"), sim::Backend::Avx2);
    EXPECT_EQ(sim::parseDispatchOverride("neon"), sim::Backend::Neon);
}

TEST(Dispatch, ParseOverrideRejectsUnknownNames)
{
    EXPECT_THROW(sim::parseDispatchOverride("sse2"),
                 std::invalid_argument);
    // The retired AVX-512 backend is an unknown name like any typo.
    EXPECT_THROW(sim::parseDispatchOverride("avx512"),
                 std::invalid_argument);
    EXPECT_THROW(sim::setDispatchOverride("avx512"),
                 std::invalid_argument);
    EXPECT_THROW(sim::parseDispatchOverride("AVX2"),
                 std::invalid_argument);
    EXPECT_THROW(sim::parseDispatchOverride("scalar "),
                 std::invalid_argument);
    EXPECT_THROW(sim::setDispatchOverride("fastest"),
                 std::invalid_argument);
}

TEST(Dispatch, ForcingUncompiledBackendThrows)
{
    // A binary never carries both x86 and aarch64 backends, so at least
    // one of the three is always absent — forcing it must throw, not
    // fall back.
    DispatchRestore restore;
    bool sawUncompiled = false;
    for (const sim::Backend b : kAllBackends) {
        if (sim::backendCompiled(b))
            continue;
        sawUncompiled = true;
        EXPECT_THROW(sim::setDispatchOverride(sim::backendName(b)),
                     std::runtime_error)
            << sim::backendName(b);
    }
    EXPECT_TRUE(sawUncompiled);

    // Compiled but host-unsupported (e.g. the avx2 TU on a pre-AVX2
    // x86-64 host) must throw the same way.
    for (const sim::Backend b : kAllBackends) {
        if (!sim::backendCompiled(b) || sim::hostSupports(b))
            continue;
        EXPECT_THROW(sim::setDispatchOverride(sim::backendName(b)),
                     std::runtime_error)
            << sim::backendName(b);
    }

    // A failed force never disturbs the resolved backend.
    EXPECT_TRUE(sim::backendCompiled(sim::activeBackend()));
    EXPECT_TRUE(sim::hostSupports(sim::activeBackend()));
}

TEST(Dispatch, AutoResolvesDeterministically)
{
    DispatchRestore restore;
    sim::setDispatchOverride("auto");
    const sim::Backend first = sim::activeBackend();
    sim::setDispatchOverride("auto");
    EXPECT_EQ(sim::activeBackend(), first);
    EXPECT_EQ(sim::activeKernels().backend, first);
    EXPECT_STREQ(sim::backendName(), sim::backendName(first));
    EXPECT_EQ(sim::simdLanes(), sim::activeKernels().lanes);

    // The probe picks the first compiled backend the host supports, in
    // probe order — no compiled+supported backend precedes it.
    const std::vector<sim::Backend> compiled = sim::compiledBackends();
    EXPECT_TRUE(sim::backendCompiled(first));
    EXPECT_TRUE(sim::hostSupports(first));
    for (const sim::Backend b : compiled) {
        if (b == first)
            break;
        EXPECT_FALSE(sim::hostSupports(b)) << sim::backendName(b);
    }
}

// ---------------------------------------------------------------------
// Table completeness: every KernelKind populated for every compiled
// backend.
// ---------------------------------------------------------------------

TEST(Dispatch, EveryCompiledTableIsComplete)
{
    const std::vector<sim::Backend> compiled = sim::compiledBackends();
    ASSERT_FALSE(compiled.empty());
    EXPECT_TRUE(sim::backendCompiled(sim::Backend::Scalar));

    for (const sim::Backend b : compiled) {
        const sim::KernelTable &t = sim::kernelTable(b);
        EXPECT_EQ(t.backend, b);
        EXPECT_STREQ(t.name, sim::backendName(b));
        EXPECT_GE(t.lanes, 1u);

        EXPECT_NE(t.apply1qRange, nullptr);
        EXPECT_NE(t.apply1qDiagRange, nullptr);
        EXPECT_NE(t.apply2qRange, nullptr);
        EXPECT_NE(t.apply2qDiagRange, nullptr);
        EXPECT_NE(t.applyDenseRange, nullptr);
        EXPECT_NE(t.applyPauli, nullptr);
        EXPECT_NE(t.apply1qBatchRange, nullptr);
        EXPECT_NE(t.apply1qDiagBatchRange, nullptr);
        EXPECT_NE(t.apply2qBatchRange, nullptr);
        EXPECT_NE(t.apply2qDiagBatchRange, nullptr);
        EXPECT_NE(t.applyDenseBatchRange, nullptr);
        EXPECT_NE(t.applyPauliLane, nullptr);

        // The dense kernel carries no SIMD: one shared implementation.
        EXPECT_EQ(t.applyDenseRange, &sim::detail::applyDenseRangeShared);
    }
    const sim::KernelTable &scalar =
        sim::kernelTable(sim::Backend::Scalar);
    EXPECT_EQ(scalar.lanes, 1u);

    EXPECT_THROW(
        [] {
            for (const sim::Backend b : kAllBackends)
                if (!sim::backendCompiled(b))
                    (void)sim::kernelTable(b);
        }(),
        std::runtime_error);
}

} // namespace
