/**
 * @file
 * Reproduces Figure 6(c): the table of numerical and analytical
 * two-qubit gate counts for n-qubit synthesis, CNOT instruction set
 * versus arbitrary-SU(4) (AshN) instruction set, alongside this
 * library's constructively achieved counts.
 */

#include <cstdio>

#include "circuit/circuit.hh"
#include "linalg/random.hh"
#include "qop/metrics.hh"
#include "synth/qsd.hh"
#include "synth/three_qubit.hh"

using namespace crisc;

int
main()
{
    std::printf("=== Figure 6(c): gate counts for n-qubit synthesis ===\n\n");
    std::printf("  %-26s %-10s %-10s %-14s\n", "", "3-qubit", "4-qubit",
                "n-qubit");
    std::printf("  %-26s %-10zu %-10zu %-14s\n", "CNOT lower bound (N)",
                synth::cnotLowerBound(3), synth::cnotLowerBound(4), "-");
    std::printf("  %-26s %-10zu %-10zu %-14s\n", "AshN lower bound (N)",
                synth::su4LowerBound(3), synth::su4LowerBound(4), "-");
    std::printf("  %-26s %-10zu %-10zu %-14s\n", "CNOT analytic (QSD, [35])",
                synth::optimizedQsdCnotCount(3),
                synth::optimizedQsdCnotCount(4), "23/48*4^n");
    std::printf("  %-26s %-10zu %-10zu %-14s\n", "AshN analytic (Thm 13)",
                synth::theorem13Count(3), synth::theorem13Count(4),
                "23/64*4^n");
    std::printf("  %-26s %-10zu %-10zu %-14s\n", "our QSD (unoptimized)",
                synth::qsdCnotCount(3), synth::qsdCnotCount(4),
                "9/16*4^n");

    // Constructively achieved counts.
    linalg::Rng rng(3);
    const linalg::Matrix u3 = linalg::haarUnitary(rng, 8);
    const circuit::Circuit c3 = synth::threeQubitGeneric(u3);
    const bool ok3 = qop::equalUpToGlobalPhase(c3.toUnitary(), u3, 1e-5);
    std::printf("  %-26s %-10zu %-10s %-14s\n",
                "our 3q generic (exact)", c3.twoQubitCount(),
                "-", ok3 ? "verified" : "FAILED");

    const linalg::Matrix u4 = linalg::haarUnitary(rng, 16);
    const circuit::Circuit c4 = synth::qsd(u4);
    const bool ok4 = qop::equalUpToGlobalPhase(c4.toUnitary(), u4, 1e-5);
    std::printf("  %-26s %-10s %-10zu %-14s\n", "our QSD CNOT (exact)", "-",
                c4.twoQubitCount(), ok4 ? "verified" : "FAILED");

    const circuit::Circuit g4 = synth::genericQsd(u4);
    const bool okg4 = qop::equalUpToGlobalPhase(g4.toUnitary(), u4, 1e-5);
    std::printf("  %-26s %-10s %-10zu %-14s\n", "our generic QSD (exact)",
                "-", g4.twoQubitCount(), okg4 ? "verified" : "FAILED");

    std::printf("\n  Paper Fig. 6(c) reference: CNOT (N) 14 / 61, "
                "AshN (N) 6 / 27, CNOT (A) 20 / 100, AshN (A) 11 / 68.\n");
    std::printf("  Note: the analytic 3-qubit construction here reaches %zu "
                "generic gates; the paper's final regrouping step reaches "
                "11 (that step is not implemented).\n",
                c3.twoQubitCount());
    std::printf("  The numerical counts (6 and 27) are demonstrated in "
                "bench_fig6_numeric.\n");
    return 0;
}
