/**
 * @file
 * Reproduces Figure 6(a)/(b): average decomposition error versus
 * two-qubit gate count when numerically instantiating circuits against
 * Haar-random targets — generic SU(4) gates versus CNOTs — at n = 3 and
 * n = 4. The paper uses 1000 targets per point with QFactor; here a
 * CI-sized sample (the target counts in main) shows the same cliff:
 * the error plummets once the count crosses the dimension-counting
 * lower bound (6 generic / 14 CNOT at n = 3; 27 / 61 at n = 4).
 */

#include <cmath>
#include <cstdio>

#include "linalg/random.hh"
#include "synth/instantiate.hh"
#include "synth/qsd.hh"

using namespace crisc;

namespace {

void
sweep(std::size_t n, bool generic, const std::vector<std::size_t> &counts,
      int targets, int sweeps, int restarts)
{
    linalg::Rng rng(1234 + n + generic);
    std::printf("  %-7s", generic ? "AshN" : "CNOT");
    for (std::size_t gates : counts) {
        double sumLog = 0.0;
        for (int t = 0; t < targets; ++t) {
            const linalg::Matrix target =
                linalg::haarUnitary(rng, std::size_t{1} << n);
            const synth::Template tmpl =
                generic ? synth::genericTemplate(n, gates)
                        : synth::cnotTemplate(n, gates);
            const synth::InstantiationResult r = synth::instantiate(
                target, tmpl, rng, sweeps, 1e-11, restarts);
            sumLog += std::log10(std::max(r.distance, 1e-14));
        }
        std::printf(" %7.2f", sumLog / targets);
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("=== Figure 6(a): n = 3, mean log10 decomposition error vs "
                "gate count ===\n");
    std::printf("  lower bounds: %zu generic / %zu CNOT\n",
                synth::su4LowerBound(3), synth::cnotLowerBound(3));
    {
        const std::vector<std::size_t> counts{3, 4, 5, 6, 7};
        std::printf("  gates  ");
        for (auto c : counts)
            std::printf(" %7zu", c);
        std::printf("\n");
        sweep(3, true, counts, 12, 400, 3);
    }
    {
        const std::vector<std::size_t> counts{8, 10, 12, 14, 16};
        std::printf("  gates  ");
        for (auto c : counts)
            std::printf(" %7zu", c);
        std::printf("\n");
        sweep(3, false, counts, 12, 400, 3);
    }

    std::printf("\n=== Figure 6(b): n = 4 (reduced sample count) ===\n");
    std::printf("  lower bounds: %zu generic / %zu CNOT\n",
                synth::su4LowerBound(4), synth::cnotLowerBound(4));
    {
        const std::vector<std::size_t> counts{24, 26, 27, 28, 30};
        std::printf("  gates  ");
        for (auto c : counts)
            std::printf(" %7zu", c);
        std::printf("\n");
        sweep(4, true, counts, 3, 400, 2);
    }
    {
        const std::vector<std::size_t> counts{55, 59, 61, 63, 67};
        std::printf("  gates  ");
        for (auto c : counts)
            std::printf(" %7zu", c);
        std::printf("\n");
        sweep(4, false, counts, 3, 400, 2);
    }

    std::printf("\n  Expected shape (paper): error stays O(1e-2..1e-4) below "
                "the lower bound and collapses to the numerical threshold "
                "just above it;\n  the generic (AshN) set needs less than "
                "half the CNOT count at equal error.\n");
    return 0;
}
