/**
 * @file
 * The AshN gate scheme (paper Sec. 4.2, Algorithms 1-5): maps any Weyl
 * chamber point, under any ZZ coupling ratio |h| <= 1, to square-pulse
 * control parameters (tau, Omega1, Omega2, delta) whose Hamiltonian
 * evolution realizes the point up to single-qubit gates — in optimal
 * time when the cutoff r is 0, and with bounded drive strength when
 * r > 0 (AshN-ND-EXT takes over near the identity).
 */

#ifndef CRISC_ASHN_SCHEME_HH
#define CRISC_ASHN_SCHEME_HH

#include <string>

#include "hamiltonian.hh"
#include "weyl/weyl.hh"

namespace crisc {
namespace ashn {

using weyl::WeylPoint;

/** Which of the four sub-schemes produced a parameter set. */
enum class SubScheme
{
    Identity, ///< tau = 0; nothing to do.
    ND,       ///< no detuning (Algorithm 2).
    NDExt,    ///< no detuning, extended time (Algorithm 3).
    EAPlus,   ///< equal amplitude (Algorithm 4).
    EAMinus,  ///< equal amplitude, mirrored (Algorithm 5).
};

/** Human-readable sub-scheme name. */
std::string subSchemeName(SubScheme s);

/** Control parameters for one AshN gate, normalized to g = 1. */
struct GateParams
{
    SubScheme scheme = SubScheme::Identity;
    double tau = 0.0;    ///< gate time, units of 1/g.
    double omega1 = 0.0; ///< symmetric drive, units of g.
    double omega2 = 0.0; ///< antisymmetric drive, units of g.
    double delta = 0.0;  ///< half detuning, units of g.
    double h = 0.0;      ///< ZZ ratio the parameters were derived for.

    /** Drive amplitude A1 (Eq. 4.2), units of g. */
    double a1() const { return driveA1(omega1, omega2); }
    /** Drive amplitude A2 (Eq. 4.2), units of g. */
    double a2() const { return driveA2(omega1, omega2); }
    /** max{|A1|/2, |A2|/2, |delta|}, the quantity bounded by Eq. 4.4. */
    double maxDrive() const;
};

/** The two-qubit unitary realized by evolving with @p p for p.tau. */
Matrix realize(const GateParams &p);

/**
 * Full AshN scheme (Algorithm 1): pick the sub-scheme and parameters for
 * a target chamber point.
 *
 * @param target interaction coefficients (canonicalized internally).
 * @param h ZZ coupling ratio, |h| <= 1.
 * @param r time/amplitude trade-off cutoff in [0, (1-|h|) pi/2]; r = 0
 *        means always optimal time (unbounded drives near the identity).
 * @post weylCoordinates(realize(result)) equals the canonical target.
 */
GateParams synthesize(const WeylPoint &target, double h = 0.0,
                      double r = 0.0);

/**
 * AshN-ND (Algorithm 2): zero detuning, gate time 2x. Accepts raw
 * (non-canonical) targets with x = tau/2 in (0, pi/2].
 */
GateParams synthesizeND(const WeylPoint &target, double h);

/** AshN-ND-EXT (Algorithm 3): ND applied to the mirrored point. */
GateParams synthesizeNDExt(const WeylPoint &target, double h);

/** AshN-EA+ (Algorithm 4): equal amplitudes, tau = 2(x+y+z)/(2+h). */
GateParams synthesizeEAPlus(const WeylPoint &target, double h);

/** AshN-EA- (Algorithm 5): dual of EA+, tau = 2(x+y-z)/(2-h). */
GateParams synthesizeEAMinus(const WeylPoint &target, double h);

/**
 * The gate time the scheme assigns to a canonical target under cutoff
 * r, without solving for drive parameters: tau_opt when the optimal-time
 * branch applies, pi - 2x when AshN-ND-EXT takes over. Used by the
 * quantum-volume cost model. Rejects the arguments synthesize rejects.
 */
double gateTime(const WeylPoint &target, double h, double r);

/**
 * The one argument check of the AshN controls: throws
 * std::invalid_argument, naming @p caller and the offending value,
 * unless h is finite with |h| <= 1, r is finite in [0, (1-|h|) pi/2]
 * (the cutoffs synthesize can realize), and — when @p target is given —
 * every coordinate of the target is finite. synthesize, gateTime,
 * cnotClassParams, device::AshNGateSet and device::makeNativeGateSet
 * (for every native kind) all call it.
 */
void checkControls(const char *caller, double h, double r,
                   const WeylPoint *target = nullptr);

/** The mirrored representative (pi/2 - x, y, -z) of a chamber point. */
WeylPoint mirrorPoint(const WeylPoint &p);

} // namespace ashn
} // namespace crisc

#endif // CRISC_ASHN_SCHEME_HH
