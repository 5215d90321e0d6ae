#include "native_set.hh"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "calib/model.hh"
#include "qop/gates.hh"
#include "synth/two_qubit.hh"

namespace crisc {
namespace device {

using circuit::Circuit;
using circuit::Gate;
using linalg::Matrix;
using weyl::WeylPoint;

const char *
nativeKindName(NativeKind k)
{
    switch (k) {
      case NativeKind::CZ:
        return "CZ";
      case NativeKind::SQiSW:
        return "SQiSW";
      case NativeKind::AshN:
        return "AshN";
    }
    return "?";
}

// ----------------------------------------------------------------- AshN

AshNGateSet::AshNGateSet(double h, double r) : h_(h), r_(r)
{
    // An unusable h or cutoff fails at Device construction, not
    // mid-transpile.
    ashn::checkControls("AshNGateSet", h, r);
}

GateCost
AshNGateSet::cost(const WeylPoint &p) const
{
    return {1, ashn::gateTime(p, h_, r_)};
}

Lowered2q
AshNGateSet::lower(const Matrix &u) const
{
    const WeylPoint p = weyl::weylCoordinates(u);
    const WeylCache::Entry e = cache_.lookup(p, h_, r_);
    const synth::AshnCompiled ac = synth::compileToAshn(u, e.params, e.pulse);
    Lowered2q out;
    out.ops.add(ac.r1, {0}, "pre");
    out.ops.add(ac.r2, {1}, "pre");
    out.ops.add(std::polar(1.0, ac.phase) * e.pulse, {0, 1}, "pulse");
    out.ops.add(ac.l1, {0}, "post");
    out.ops.add(ac.l2, {1}, "post");
    out.pulse = e.params;
    out.cost = {1, e.params.tau};
    return out;
}

// ------------------------------------------------------------------- CZ

GateCost
CzGateSet::cost(const WeylPoint &) const
{
    return {3, 3.0 * kCzTime};
}

Lowered2q
CzGateSet::lower(const Matrix &u) const
{
    // Minimal-CNOT synthesis, then CNOT = (I x H) CZ (I x H) on the
    // target wire (CZ is symmetric, so both orientations rewrite the
    // same way).
    const Circuit dec = synth::decomposeCNOT(u, 0, 1, 2);
    Lowered2q out;
    int natives = 0;
    for (const Gate &g : dec.gates()) {
        if (g.qubits.size() != 2) {
            out.ops.add(g.op, g.qubits, g.label.empty() ? "local" : g.label);
            continue;
        }
        if (g.label != "CNOT" && g.label != "CNOT21")
            throw std::logic_error(
                "CzGateSet::lower: unexpected two-qubit gate '" + g.label +
                "' in the CNOT decomposition");
        const std::size_t target =
            g.label == "CNOT21" ? g.qubits[0] : g.qubits[1];
        out.ops.add(qop::hadamard(), {target}, "local");
        out.ops.add(qop::cz(), {g.qubits[0], g.qubits[1]}, "cz");
        out.ops.add(qop::hadamard(), {target}, "local");
        ++natives;
    }
    out.cost = {natives, natives * kCzTime};
    return out;
}

// ---------------------------------------------------------------- SQiSW

namespace {

/** The 3-parameter interleaver of the 2-SQiSW family (Huang et al.). */
Matrix
sqiswInterleave(double a, double b, double g)
{
    return linalg::kron(qop::rz(g) * qop::rx(a) * qop::rz(g), qop::rx(b));
}

Matrix
sqiswCore2(const std::vector<double> &x)
{
    return qop::sqisw() * sqiswInterleave(x[0], x[1], x[2]) * qop::sqisw();
}

bool
inTwoSqiswRegion(const WeylPoint &p)
{
    return p.x >= p.y + std::abs(p.z) - 1e-9;
}

/**
 * Solves SQiSW (Rz Rx Rz x Rx) SQiSW == CAN(target) for the three
 * interleaver angles by deterministic multi-start Nelder-Mead on the
 * chamber-coordinate error. The family covers exactly the region
 * x >= y + |z| (boundary included), so the solve reaches ~1e-12 for
 * every in-region target.
 */
double
solveSqiswCore2(const WeylPoint &target, std::vector<double> &out)
{
    auto objective = [&](const std::vector<double> &x) {
        return weyl::pointDistance(weyl::weylCoordinates(sqiswCore2(x)),
                                   target);
    };
    double best = 1e300;
    linalg::Rng rng(42);
    for (int attempt = 0; attempt < 20; ++attempt) {
        const std::vector<double> start =
            attempt == 0 ? std::vector<double>{0.5, 0.5, 0.5}
                         : std::vector<double>{rng.uniform(-M_PI, M_PI),
                                               rng.uniform(-M_PI, M_PI),
                                               rng.uniform(-M_PI, M_PI)};
        const std::vector<double> x =
            calib::nelderMead(objective, start, 0.4, 4000, 1e-16);
        const double v = objective(x);
        if (v < best) {
            best = v;
            out = x;
        }
        if (best < 1e-11)
            break;
    }
    return best;
}

} // namespace

std::size_t
SqiswGateSet::AngleKeyHash::operator()(const AngleKey &k) const
{
    std::size_t seed = std::hash<double>{}(k.x);
    for (const double v : {k.y, k.z})
        seed = detail::hashCombine(seed, v);
    return seed;
}

std::array<double, 3>
SqiswGateSet::interleaverFor(const WeylPoint &p) const
{
    const AngleKey key{detail::normZero(p.x), detail::normZero(p.y),
                       detail::normZero(p.z)};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = angles_.find(key);
        if (it != angles_.end())
            return it->second;
    }
    // Solve outside the lock; a raced duplicate computes the same
    // deterministic angles and emplace keeps whichever landed first.
    std::vector<double> x;
    if (solveSqiswCore2(p, x) > 1e-10)
        throw std::runtime_error(
            "SqiswGateSet::lower: interleaver solve did not converge");
    const std::array<double, 3> angles{x[0], x[1], x[2]};
    std::lock_guard<std::mutex> lock(mutex_);
    return angles_.emplace(key, angles).first->second;
}

/*
 * Appends the exact 2-SQiSW realization of @p u (whose chamber point
 * must lie in the 2-application region) to @p ops: the (memoized)
 * interleaver angles fix the interaction coefficients;
 * weyl::localCorrections supplies the exact outer single-qubit gates.
 */
void
SqiswGateSet::lowerTwoSqisw(const Matrix &u, circuit::Circuit &ops) const
{
    const WeylPoint p = weyl::weylCoordinates(u);
    const std::array<double, 3> x = interleaverFor(p);
    const Matrix core =
        qop::sqisw() * sqiswInterleave(x[0], x[1], x[2]) * qop::sqisw();
    const weyl::LocalCorrection lc = weyl::localCorrections(u, core);
    ops.add(lc.r1, {0}, "local");
    ops.add(lc.r2, {1}, "local");
    ops.add(qop::sqisw(), {0, 1}, "sqisw");
    ops.add(qop::rz(x[2]), {0}, "local");
    ops.add(qop::rx(x[0]), {0}, "local");
    ops.add(qop::rz(x[2]), {0}, "local");
    ops.add(qop::rx(x[1]), {1}, "local");
    ops.add(qop::sqisw(), {0, 1}, "sqisw");
    ops.add(std::polar(1.0, lc.phase) * lc.l1, {0}, "local");
    ops.add(lc.l2, {1}, "local");
}

GateCost
SqiswGateSet::cost(const WeylPoint &p) const
{
    // Huang et al. (ref. [30]): two applications cover the region
    // x >= y + |z|; three are needed otherwise.
    const int k = inTwoSqiswRegion(p) ? 2 : 3;
    return {k, k * kSqiswTime};
}

const SqiswGateSet::PeelEntry &
SqiswGateSet::peelFor(const WeylPoint &p) const
{
    const AngleKey key{detail::normZero(p.x), detail::normZero(p.y),
                       detail::normZero(p.z)};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = peels_.find(key);
        if (it != peels_.end())
            return it->second;
    }
    // Peel one SQiSW plus a local layer so the remainder of the
    // CANONICAL gate lands in the 2-application region — left locals
    // never move a chamber point, so the same layer works for every
    // unitary of the class (grafted through its KAK right locals in
    // lower()). The layer is found by minimizing the region violation
    // y + |z| - x of the remainder's chamber point; SWAP-class targets
    // are tight (the minimum is exactly 0, on the region boundary),
    // which the 2-SQiSW solve still covers.
    const Matrix can = qop::canonicalGate(p.x, p.y, p.z);
    auto euler = [](double a, double b, double g) {
        return qop::rz(a) * qop::ry(b) * qop::rz(g);
    };
    // can = rest * SQiSW * (c x d), i.e. rest = can (c x d)^-1 SQiSW^-1;
    // the local layer sits between can and the peeled SQiSW, which is
    // exactly the freedom that moves the remainder's chamber point.
    auto peel = [&](const std::vector<double> &x) {
        return can *
               linalg::kron(euler(x[0], x[1], x[2]),
                            euler(x[3], x[4], x[5]))
                   .dagger() *
               qop::sqisw().dagger();
    };
    auto violation = [&](const std::vector<double> &x) {
        const WeylPoint q = weyl::weylCoordinates(peel(x));
        // Clamp: any comfortably interior point is equally good.
        return std::max(q.y + std::abs(q.z) - q.x, -1e-3);
    };
    linalg::Rng rng(0x5C155BULL);
    for (int attempt = 0; attempt < 16; ++attempt) {
        std::vector<double> start(6, 0.0);
        if (attempt > 0)
            for (double &s : start)
                s = rng.uniform(-M_PI, M_PI);
        const std::vector<double> x =
            calib::nelderMead(violation, start, 0.5, 3000, 1e-15);
        if (violation(x) > 1e-9)
            continue;
        // Reject layers whose remainder the interleaver solve cannot
        // reach (region boundary pathologies); failures here retry.
        try {
            interleaverFor(weyl::weylCoordinates(peel(x)));
        } catch (const std::runtime_error &) {
            continue;
        }
        PeelEntry e{euler(x[0], x[1], x[2]), euler(x[3], x[4], x[5])};
        std::lock_guard<std::mutex> lock(mutex_);
        return peels_.emplace(key, std::move(e)).first->second;
    }
    throw std::runtime_error(
        "SqiswGateSet::lower: no SQiSW peel reached the "
        "2-application region");
}

Lowered2q
SqiswGateSet::lower(const Matrix &u) const
{
    const WeylPoint p = weyl::weylCoordinates(u);
    const int k = cost(p).nativeGates;
    Lowered2q out;
    if (k == 2) {
        lowerTwoSqisw(u, out.ops);
    } else {
        // u = phase (a1 x a2) CAN(p) (b1 x b2); the cached peel layer
        // (c, d) for CAN(p) grafts through the right locals as
        // (c b1, d b2): rest = u (c b1 x d b2)^-1 SQiSW^-1 has the
        // same chamber point as CAN(p) (c x d)^-1 SQiSW^-1 — inside
        // the 2-application region by construction.
        const weyl::KAKDecomposition kd = weyl::kak(u);
        const PeelEntry &pe = peelFor(kd.point);
        const Matrix l0 = pe.c * kd.b1;
        const Matrix l1 = pe.d * kd.b2;
        const Matrix rest =
            u * linalg::kron(l0, l1).dagger() * qop::sqisw().dagger();
        circuit::Circuit inner(2);
        lowerTwoSqisw(rest, inner);
        // u = rest * SQiSW * (l0 x l1): first apply the peeled locals,
        // then SQiSW, then the 2-SQiSW remainder.
        out.ops.add(l0, {0}, "local");
        out.ops.add(l1, {1}, "local");
        out.ops.add(qop::sqisw(), {0, 1}, "sqisw");
        out.ops.append(inner);
    }
    out.cost = {k, k * kSqiswTime};
    return out;
}

// -------------------------------------------------------------- factory

std::shared_ptr<const NativeGateSet>
makeNativeGateSet(NativeKind kind, double h, double r)
{
    // Every kind receives (h, r), so every kind rejects unusable
    // controls; CZ and SQiSW do not otherwise read them.
    const std::string caller =
        std::string("makeNativeGateSet(") + nativeKindName(kind) + ")";
    ashn::checkControls(caller.c_str(), h, r);
    switch (kind) {
      case NativeKind::CZ:
        return std::make_shared<CzGateSet>();
      case NativeKind::SQiSW:
        return std::make_shared<SqiswGateSet>();
      case NativeKind::AshN:
        return std::make_shared<AshNGateSet>(h, r);
    }
    throw std::invalid_argument("makeNativeGateSet: unknown native kind");
}

} // namespace device
} // namespace crisc
