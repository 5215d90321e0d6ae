#include "scheme.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/obs.hh"
#include "weyl/optimal_time.hh"

namespace crisc {
namespace ashn {

using linalg::Complex;
using weyl::canonicalizePoint;
using weyl::pointDistance;
using weyl::weylCoordinates;

namespace {

constexpr double kPi = M_PI;
constexpr double kTiny = 1e-12;

/** Inverse of sinc on [0, pi]: the unique w with sin(w)/w = v. */
double
invSinc(double v)
{
    v = std::clamp(v, 0.0, 1.0);
    if (v >= 1.0)
        return 0.0;
    double lo = 0.0, hi = kPi;
    for (int i = 0; i < 80; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double s = mid == 0.0 ? 1.0 : std::sin(mid) / mid;
        if (s > v)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

/** Whether the realized gate lands on the canonical target point. */
bool
verified(const GateParams &p, const WeylPoint &target, double tol = 1e-5)
{
    OBS_SPAN("ashn.verify");
    const WeylPoint want = canonicalizePoint(target);
    const WeylPoint got = weylCoordinates(realize(p));
    return pointDistance(want, got) <= tol;
}

[[noreturn]] void
failSynthesis(const char *scheme, const WeylPoint &p, double h)
{
    std::ostringstream msg;
    msg << scheme << ": no valid parameters for (" << p.x << ", " << p.y
        << ", " << p.z << "), h=" << h;
    throw std::runtime_error(msg.str());
}

/**
 * Solves the ND sinc equation  t * sinc(w) = v  for w in [t, pi] and
 * returns the drive Omega = sqrt((w/tau)^2 - (t/tau)^2) / 2, or nullopt
 * when v exceeds the reachable range sin(t).
 */
std::optional<double>
solveNDDrive(double v, double t, double tau)
{
    if (t <= kTiny)
        return v <= 1e-9 ? std::optional<double>(0.0) : std::nullopt;
    const double ratio = v / t;
    if (ratio > 1.0 + 1e-9)
        return std::nullopt;
    const double w = invSinc(std::min(ratio, 1.0));
    if (w < t - 1e-7)
        return std::nullopt; // would need imaginary drive
    const double s = std::max(w, t) / tau;
    const double s0 = t / tau;
    const double om2 = s * s - s0 * s0;
    return std::sqrt(std::max(om2, 0.0)) / 2.0;
}

/**
 * Solves the symmetric-slot equal-amplitude problem for the spectrum
 * representative (a, b, c) (App. A.5): find (omega, delta) such that
 * U = U(tau; h; omega, 0, delta) with tau = 2(a+b+c)/(2+h) has the
 * spectrum
 *   { -e^{i(a+b+c)}, e^{i(a-b-c)}, -e^{i(-a+b-c)}, e^{i(-a-b+c)} }
 * when multiplied by YY. The realized gate canonicalizes to (a, b, -c)
 * in this library's coordinate convention.
 *
 * With Omega2 = 0 the Hamiltonian commutes with SWAP, so the singlet is
 * an exact eigenvector: its energy -(2+h)/2 and this tau make the first
 * element automatic. The other three live in the real symmetric 3x3
 * triplet block (see symmetricSlotTrace), and matching their trace
 *   symmetricSlotTrace(tau, h, omega, delta)
 *     = e^{i(a-b-c)} - e^{i(-a+b-c)} + e^{i(-a-b+c)}
 * pins down the rest. Every residual evaluation is one 3x3 real Jacobi
 * solve on the stack.
 *
 * @return candidate {tau, omega, delta} triples, weakest drives first.
 * Near spectral degeneracies the coordinate error grows like the square
 * root of the trace residual, so callers must verify each candidate
 * against the target instead of trusting the first root.
 */
std::vector<std::array<double, 3>>
solveEASymmetricSlot(double a, double b, double c, double h)
{
    const double tau = 2.0 * (a + b + c) / (2.0 + h);
    if (tau <= kTiny)
        return {std::array<double, 3>{0.0, 0.0, 0.0}};

    const Complex tTarget = std::polar(1.0, a - b - c) -
                            std::polar(1.0, -a + b - c) +
                            std::polar(1.0, -a - b + c);
    auto residual = [&](double om, double d) {
        return symmetricSlotTrace(tau, h, std::abs(om), std::abs(d)) -
               tTarget;
    };

    // Seed Newton from every local minimum of |residual| on a coarse
    // grid (the landscape has several basins; the global grid minimum
    // alone can sit in a rootless one).
    const double bound = 2.0 * (kPi / tau + 1.0);
    constexpr int grid = 32;
    std::array<std::array<double, grid + 1>, grid + 1> err{};
    {
        OBS_SPAN("ashn.grid");
        for (int i = 0; i <= grid; ++i)
            for (int j = 0; j <= grid; ++j)
                err[i][j] =
                    std::abs(residual(bound * i / grid, bound * j / grid));
    }
    struct Seed
    {
        double om, d, e;
    };
    std::vector<Seed> seeds;
    for (int i = 0; i <= grid; ++i) {
        for (int j = 0; j <= grid; ++j) {
            bool isMin = true;
            for (int di = -1; di <= 1 && isMin; ++di)
                for (int dj = -1; dj <= 1; ++dj) {
                    const int ni = i + di, nj = j + dj;
                    if (ni < 0 || nj < 0 || ni > grid || nj > grid)
                        continue;
                    if (err[ni][nj] < err[i][j]) {
                        isMin = false;
                        break;
                    }
                }
            if (isMin)
                seeds.push_back(
                    {bound * i / grid, bound * j / grid, err[i][j]});
        }
    }
    std::sort(seeds.begin(), seeds.end(),
              [](const Seed &x, const Seed &y) { return x.e < y.e; });
    if (seeds.size() > 24)
        seeds.resize(24);

    struct Root
    {
        double e, om, d;
    };
    std::vector<Root> found;
    OBS_SPAN("ashn.newton");
    for (const Seed &seed : seeds) {
        double om = seed.om, d = seed.d;
        Complex f = residual(om, d);
        for (int iter = 0; iter < 80 && std::abs(f) > 1e-12; ++iter) {
            const double eps = 1e-7;
            const Complex fo = (residual(om + eps, d) - f) / eps;
            const Complex fd = (residual(om, d + eps) - f) / eps;
            const double det =
                fo.real() * fd.imag() - fd.real() * fo.imag();
            if (std::abs(det) < 1e-14)
                break;
            const double step_om =
                (-f.real() * fd.imag() + f.imag() * fd.real()) / det;
            const double step_d =
                (-fo.real() * f.imag() + fo.imag() * f.real()) / det;
            double t = 1.0;
            while (t > 1e-6) {
                const double no = std::abs(om + t * step_om);
                const double nd = std::abs(d + t * step_d);
                if (std::abs(residual(no, nd)) < std::abs(f)) {
                    om = no;
                    d = nd;
                    break;
                }
                t *= 0.5;
            }
            if (t <= 1e-6)
                break;
            f = residual(om, d);
        }
        if (std::abs(f) > 1e-9 && std::abs(f) < 1e-2) {
            // Newton stalls where the Jacobian degenerates (e.g. the
            // triply degenerate SWAP spectrum); finish with a compass
            // pattern search on |residual|.
            double step = 0.05;
            double e = std::abs(f);
            while (step > 1e-12 && e > 1e-10) {
                bool improved = false;
                const double moves[4][2] = {
                    {step, 0.0}, {-step, 0.0}, {0.0, step}, {0.0, -step}};
                for (const auto &mv : moves) {
                    const double no = std::abs(om + mv[0]);
                    const double nd = std::abs(d + mv[1]);
                    const double ne = std::abs(residual(no, nd));
                    if (ne < e) {
                        om = no;
                        d = nd;
                        e = ne;
                        improved = true;
                        break;
                    }
                }
                if (!improved)
                    step *= 0.5;
            }
            f = residual(om, d);
        }
        if (std::abs(f) <= 1e-7)
            found.push_back({std::abs(f), om, d});
    }
    // Several distinct roots can realize the same chamber point; prefer
    // the weakest drives (the bounds of Eq. 4.4 and Table 1 refer to the
    // minimal solution).
    std::sort(found.begin(), found.end(), [](const Root &x, const Root &y) {
        return std::max(x.om, x.d) < std::max(y.om, y.d);
    });
    std::vector<std::array<double, 3>> out;
    out.reserve(found.size());
    for (const Root &r : found)
        out.push_back({tau, r.om, r.d});
    return out;
}

/** The three sub-scheme times of one dispatch branch (Algorithm 1). */
struct BranchTimes
{
    double nd, eaPlus, eaMinus;

    double max() const { return std::max({nd, eaPlus, eaMinus}); }
};

BranchTimes
branchTimes(const WeylPoint &p, double h)
{
    return {2.0 * p.x, 2.0 * (p.x + p.y - p.z) / (2.0 + h),
            2.0 * (p.x + p.y + p.z) / (2.0 - h)};
}

} // namespace

std::string
subSchemeName(SubScheme s)
{
    switch (s) {
      case SubScheme::Identity:
        return "Identity";
      case SubScheme::ND:
        return "AshN-ND";
      case SubScheme::NDExt:
        return "AshN-ND-EXT";
      case SubScheme::EAPlus:
        return "AshN-EA+";
      case SubScheme::EAMinus:
        return "AshN-EA-";
    }
    return "?";
}

double
GateParams::maxDrive() const
{
    return std::max({std::abs(a1()) / 2.0, std::abs(a2()) / 2.0,
                     std::abs(delta)});
}

Matrix
realize(const GateParams &p)
{
    return evolve(p.tau, p.h, p.omega1, p.omega2, p.delta);
}

WeylPoint
mirrorPoint(const WeylPoint &p)
{
    return {kPi / 2.0 - p.x, p.y, -p.z};
}

GateParams
synthesizeND(const WeylPoint &target, double h)
{
    const double tau = 2.0 * target.x;
    if (tau <= kTiny)
        return GateParams{SubScheme::Identity, 0, 0, 0, 0, h};
    const double tMinus = (1.0 - h) * tau / 2.0;
    const double tPlus = (1.0 + h) * tau / 2.0;
    const double sinSum = std::sin(target.y + target.z);
    const double sinDiff = std::sin(target.y - target.z);

    // In this library's z convention Omega1 pairs with sin(y+z) (budget
    // (1-h)x) and Omega2 with sin(y-z) (budget (1+h)x); the opposite
    // assignment realizes the z-mirrored point, so it is kept as a
    // fallback for boundary cases.
    const std::pair<double, double> assignments[] = {{sinSum, sinDiff},
                                                     {sinDiff, sinSum}};
    for (const auto &[v1, v2] : assignments) {
        const auto om1 = solveNDDrive(v1, tMinus, tau);
        const auto om2 = solveNDDrive(v2, tPlus, tau);
        if (!om1 || !om2)
            continue;
        const GateParams p{SubScheme::ND, tau, *om1, *om2, 0.0, h};
        if (verified(p, target))
            return p;
    }
    failSynthesis("AshN-ND", target, h);
}

GateParams
synthesizeNDExt(const WeylPoint &target, double h)
{
    GateParams p = synthesizeND(mirrorPoint(target), h);
    p.scheme = SubScheme::NDExt;
    if (!verified(p, target))
        failSynthesis("AshN-ND-EXT", target, h);
    return p;
}

GateParams
synthesizeEAPlus(const WeylPoint &target, double h)
{
    // The symmetric slot realizes the z-negated spectrum representative,
    // so solve for (x, y, -z); tau = 2(x+y-z)/(2+h).
    for (const auto &sol :
         solveEASymmetricSlot(target.x, target.y, -target.z, h)) {
        if (sol[0] <= kTiny)
            return GateParams{SubScheme::Identity, 0, 0, 0, 0, h};
        const GateParams p{SubScheme::EAPlus, sol[0], sol[1], 0.0, sol[2],
                           h};
        if (verified(p, target))
            return p;
    }
    failSynthesis("AshN-EA+", target, h);
}

GateParams
synthesizeEAMinus(const WeylPoint &target, double h)
{
    // Corollary 9 duality: conjugating by (Z x I) and reversing time
    // maps the antisymmetric slot under h to the symmetric slot under
    // -h with the z-negation undone; tau = 2(x+y+z)/(2-h).
    for (const auto &sol :
         solveEASymmetricSlot(target.x, target.y, target.z, -h)) {
        if (sol[0] <= kTiny)
            return GateParams{SubScheme::Identity, 0, 0, 0, 0, h};
        for (const double dsign : {-1.0, 1.0}) {
            const GateParams p{SubScheme::EAMinus, sol[0], 0.0, sol[1],
                               dsign * sol[2], h};
            if (verified(p, target))
                return p;
        }
    }
    failSynthesis("AshN-EA-", target, h);
}

void
checkControls(const char *caller, double h, double r,
              const WeylPoint *target)
{
    const double rMax = (1.0 - std::abs(h)) * kPi / 2.0;
    const bool hOk = std::isfinite(h) && std::abs(h) <= 1.0;
    const bool rOk = std::isfinite(r) && r >= 0.0 && r <= rMax + 1e-12;
    const bool targetOk = !target || (std::isfinite(target->x) &&
                                      std::isfinite(target->y) &&
                                      std::isfinite(target->z));
    if (hOk && rOk && targetOk)
        return;
    std::ostringstream msg;
    msg << caller << ": ";
    if (!hOk)
        msg << "ZZ coupling ratio h = " << h
            << " must be finite with |h| <= 1";
    else if (!rOk)
        msg << "drive cutoff r = " << r << " must lie in [0, (1-|h|)*pi/2]"
            << " = [0, " << rMax << "]";
    else
        msg << "non-finite target (" << target->x << ", " << target->y
            << ", " << target->z << ")";
    throw std::invalid_argument(msg.str());
}

double
gateTime(const WeylPoint &target, double h, double r)
{
    checkControls("gateTime", h, r, &target);
    const WeylPoint p = canonicalizePoint(target);
    const double topt = weyl::optimalTime(p, h);
    if (topt <= r)
        return kPi - 2.0 * p.x;
    return topt;
}

GateParams
synthesize(const WeylPoint &target, double h, double r)
{
    checkControls("synthesize", h, r, &target);

    const WeylPoint p = canonicalizePoint(target);
    if (p.x < kTiny && p.y < kTiny && std::abs(p.z) < kTiny)
        return GateParams{SubScheme::Identity, 0, 0, 0, 0, h};

    const BranchTimes b1 = branchTimes(p, h);
    const WeylPoint m = mirrorPoint(p);
    const BranchTimes b2 = branchTimes(m, h);
    const double tau1 = b1.max(), tau2 = b2.max();

    if (std::min(tau1, tau2) <= r)
        return synthesizeNDExt(p, h);

    const WeylPoint work = tau2 < tau1 ? m : p;
    const BranchTimes bt = tau2 < tau1 ? b2 : b1;

    // Preferred sub-scheme per Algorithm 1, with the others as fallback
    // (ties on sector boundaries are realizable by several schemes).
    std::vector<SubScheme> order;
    if (bt.nd >= std::max(bt.eaPlus, bt.eaMinus) - 1e-12)
        order = {SubScheme::ND, SubScheme::EAPlus, SubScheme::EAMinus};
    else if (bt.eaPlus >= bt.eaMinus)
        order = {SubScheme::EAPlus, SubScheme::EAMinus, SubScheme::ND};
    else
        order = {SubScheme::EAMinus, SubScheme::EAPlus, SubScheme::ND};

    std::string errors;
    for (SubScheme s : order) {
        try {
            switch (s) {
              case SubScheme::ND:
                return synthesizeND(work, h);
              case SubScheme::EAPlus:
                return synthesizeEAPlus(work, h);
              case SubScheme::EAMinus:
                return synthesizeEAMinus(work, h);
              default:
                break;
            }
        } catch (const std::runtime_error &e) {
            errors += std::string(e.what()) + "; ";
        }
    }
    throw std::runtime_error("synthesize: all sub-schemes failed: " + errors);
}

} // namespace ashn
} // namespace crisc
