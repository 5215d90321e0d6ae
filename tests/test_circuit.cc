/**
 * @file
 * Tests for the circuit IR, statevector simulator, and noise channels.
 */

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "circuit/noise.hh"
#include "linalg/random.hh"
#include "qop/gates.hh"
#include "qop/metrics.hh"
#include "sim/batch_state.hh"

namespace {

using namespace crisc;
using circuit::Circuit;
using circuit::State;
using linalg::Matrix;

TEST(Circuit, BellStatePreparation)
{
    Circuit c(2);
    c.add(qop::hadamard(), {0}, "H");
    c.add(qop::cnot(), {0, 1}, "CX");
    State s(2);
    s.run(c);
    EXPECT_NEAR(s.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(s.probability(3), 0.5, 1e-12);
    EXPECT_NEAR(s.probability(1), 0.0, 1e-12);
    EXPECT_NEAR(s.probability(2), 0.0, 1e-12);
}

TEST(Circuit, GhzOnFiveQubits)
{
    const std::size_t n = 5;
    Circuit c(n);
    c.add(qop::hadamard(), {0}, "H");
    for (std::size_t q = 0; q + 1 < n; ++q)
        c.add(qop::cnot(), {q, q + 1}, "CX");
    State s(n);
    s.run(c);
    EXPECT_NEAR(s.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(s.probability((1u << n) - 1), 0.5, 1e-12);
}

TEST(Circuit, ToUnitaryMatchesStateEvolution)
{
    linalg::Rng rng(3);
    Circuit c(3);
    c.add(linalg::haarUnitary(rng, 4), {1, 2}, "U12");
    c.add(linalg::haarUnitary(rng, 2), {0}, "U0");
    c.add(linalg::haarUnitary(rng, 4), {0, 2}, "U02");
    const Matrix u = c.toUnitary();
    State s(3);
    s.run(c);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(std::abs(s.amplitudes()[i] - u(i, 0)), 0.0, 1e-10);
}

TEST(Circuit, NonAdjacentTwoQubitGate)
{
    // CNOT on (2, 0) of three qubits: control 2, target 0.
    Circuit c(3);
    c.add(qop::pauliX(), {2}, "X");
    c.add(qop::cnot(), {2, 0}, "CX");
    State s(3);
    s.run(c);
    // |001> then control=q2=1 flips q0 -> |101> = index 5.
    EXPECT_NEAR(s.probability(5), 1.0, 1e-12);
}

TEST(Circuit, EmbedAgreesWithKron)
{
    linalg::Rng rng(5);
    const Matrix u = linalg::haarUnitary(rng, 2);
    const Matrix direct = qop::embed(u, {1}, 3);
    const Matrix expected =
        linalg::kron(qop::pauliI(), linalg::kron(u, qop::pauliI()));
    EXPECT_TRUE(linalg::approxEqual(direct, expected, 1e-12));
}

/** Expects @p call to throw std::invalid_argument naming @p fn. */
template <typename F>
void
expectRejected(F &&call, const std::string &fn)
{
    try {
        call();
        ADD_FAILURE() << fn << " accepted a bad operand";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()).rfind(fn + ":", 0), 0u) << e.what();
    }
}

TEST(Circuit, RejectsBadArguments)
{
    Circuit c(2);
    EXPECT_THROW(c.add(qop::cnot(), {0}), std::invalid_argument);
    EXPECT_THROW(c.add(qop::hadamard(), {5}), std::invalid_argument);
    State s(2);
    EXPECT_THROW(s.apply(qop::cnot(), {0}), std::invalid_argument);

    // A repeated qubit is not a two-qubit gate: nothing may accept it.
    expectRejected([&] { c.add(qop::cnot(), {1, 1}); }, "Circuit::add");
    expectRejected([&] { s.apply(qop::cnot(), {1, 1}); }, "State::apply");
    Circuit wide(3);
    expectRejected([&] { wide.add(Matrix::identity(8), {0, 2, 0}); },
                   "Circuit::add");
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(wide.size(), 0u);
}

TEST(Circuit, EmbedRejectsBadQubits)
{
    expectRejected([] { qop::embed(qop::hadamard(), {5}, 2); }, "embed");
    expectRejected([] { qop::embed(qop::hadamard(), {2}, 2); }, "embed");
    expectRejected([] { qop::embed(qop::cnot(), {1, 1}, 2); }, "embed");
}

TEST(Circuit, StateRejectsRegistersThatCannotBeAllocated)
{
    // 2^64 amplitudes: the shift itself would be undefined.
    EXPECT_THROW(State(64), std::length_error);
    // 16 TiB fits std::size_t but no host's physical memory.
    EXPECT_THROW(State(40), std::length_error);
}

TEST(Noise, ZeroProbabilityIsIdentity)
{
    linalg::Rng rng(7);
    State s(2);
    s.apply(qop::hadamard(), {0});
    const auto before = s.amplitudes();
    circuit::applyDepolarizing(s, {0, 1}, 0.0, rng);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(before[i], s.amplitudes()[i]);
}

TEST(Noise, DepolarizingDamagesFidelityAtExpectedRate)
{
    // With probability p a non-identity Pauli hits; fidelity with the
    // noiseless state then drops. Measure the empirical rate.
    linalg::Rng rng(11);
    const double p = 0.3;
    int hits = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        State clean(2);
        clean.apply(qop::hadamard(), {0});
        clean.apply(qop::cnot(), {0, 1});
        State noisy = clean;
        circuit::applyDepolarizing(noisy, {0, 1}, p, rng);
        if (noisy.fidelityWith(clean) < 0.999)
            ++hits;
    }
    // 12 of the 15 non-identity two-qubit Paulis move the Bell state;
    // the 3 stabilizers (XX, -YY, ZZ) leave it invariant.
    const double expected = p * 12.0 / 15.0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, expected, 0.03);
}

TEST(Noise, RejectsOutOfRangeErrorParameter)
{
    // p outside [0, 1] (or NaN) is not a depolarizing channel; every
    // overload must reject it instead of silently sampling with it.
    linalg::Rng rng(13);
    State s(2);
    linalg::CVector raw = s.amplitudes();
    for (const double p : {-0.25, 1.5,
                           std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_THROW(circuit::applyDepolarizing(s, {0, 1}, p, rng),
                     std::invalid_argument);
        EXPECT_THROW(circuit::applyDepolarizing(raw.data(), 2, {0, 1}, p,
                                                rng),
                     std::invalid_argument);
        EXPECT_THROW(circuit::applyDepolarizing(raw.data(), 2,
                                                std::size_t{0}, p, rng),
                     std::invalid_argument);
        EXPECT_THROW(circuit::applyDepolarizing(raw.data(), 2,
                                                std::size_t{0},
                                                std::size_t{1}, p, rng),
                     std::invalid_argument);
    }
    // The boundaries themselves are valid.
    circuit::applyDepolarizing(s, {0, 1}, 0.0, rng);
    circuit::applyDepolarizing(s, {0, 1}, 1.0, rng);
}

TEST(Noise, RejectsDuplicateQubits)
{
    // A repeated qubit would compose two Paulis on one wire and sample
    // a different (non-depolarizing) channel; reject it up front.
    linalg::Rng rng(17);
    State s(3);
    linalg::CVector raw = s.amplitudes();
    EXPECT_THROW(circuit::applyDepolarizing(s, {1, 1}, 0.5, rng),
                 std::invalid_argument);
    EXPECT_THROW(circuit::applyDepolarizing(raw.data(), 3, {0, 2, 0}, 0.5,
                                            rng),
                 std::invalid_argument);
    EXPECT_THROW(circuit::applyDepolarizing(raw.data(), 3, std::size_t{2},
                                            std::size_t{2}, 0.5, rng),
                 std::invalid_argument);
}

TEST(Noise, RejectsOutOfRangeQubits)
{
    // The Pauli kernels do no bounds check: every overload must reject
    // a qubit outside the register before it is addressed (or drawn
    // for), at any error rate. An empty Pauli string has no
    // non-identity Pauli to draw and is rejected the same way.
    linalg::Rng rng(19);
    State s(3);
    linalg::CVector raw = s.amplitudes();
    const sim::StateView view(raw.data(), 3);
    const std::vector<std::size_t> none;
    for (const double p : {0.0, 1.0}) {
        EXPECT_THROW(circuit::applyDepolarizing(s, none, p, rng),
                     std::invalid_argument);
        EXPECT_THROW(circuit::applyDepolarizing(raw.data(), 3, none, p, rng),
                     std::invalid_argument);
        EXPECT_THROW(circuit::applyDepolarizing(s, {0, 3}, p, rng),
                     std::invalid_argument);
        EXPECT_THROW(circuit::applyDepolarizing(raw.data(), 3, {3}, p, rng),
                     std::invalid_argument);
        EXPECT_THROW(circuit::applyDepolarizing(view, 0, 3, p, rng),
                     std::invalid_argument);
        EXPECT_THROW(circuit::applyDepolarizing(view, 0, 7, 1, p, rng),
                     std::invalid_argument);
        EXPECT_THROW(circuit::applyDepolarizing(view, 0, 1, 3, p, rng),
                     std::invalid_argument);
    }
    // A rejected call draws nothing: the generator is untouched.
    linalg::Rng fresh(19);
    EXPECT_EQ(rng.uniform(), fresh.uniform());
    EXPECT_EQ(raw, s.amplitudes());
}

TEST(Noise, PauliIndexing)
{
    EXPECT_TRUE(linalg::approxEqual(circuit::pauliByIndex(0), qop::pauliI()));
    EXPECT_TRUE(linalg::approxEqual(circuit::pauliByIndex(3), qop::pauliZ()));
    EXPECT_THROW(circuit::pauliByIndex(4), std::invalid_argument);
}

} // namespace
