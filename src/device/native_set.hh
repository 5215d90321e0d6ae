/**
 * @file
 * Pluggable native two-qubit instruction sets. A NativeGateSet answers
 * the two questions a compiler asks of a target device:
 *
 *   cost(p)  — the paper's Figure-7 cost model: how many native gates,
 *              and how much two-qubit interaction time (units of 1/g),
 *              a gate class with canonical Weyl point p consumes;
 *   lower(u) — an exact decomposition of the 4x4 unitary u into native
 *              two-qubit gates plus single-qubit corrections, on the
 *              local qubit pair (0, 1).
 *
 * Three sets ship with the library, mirroring the paper's Sec. 6.3
 * comparison: flux-tuned CZ (3 per SU(4)), SQiSW = sqrt(iSWAP) (2 or 3
 * per SU(4), Huang et al.), and the AshN pulse scheme (1 per SU(4)).
 * New sets subclass NativeGateSet; see README "Adding a native gate
 * set".
 */

#ifndef CRISC_DEVICE_NATIVE_SET_HH
#define CRISC_DEVICE_NATIVE_SET_HH

#include <array>
#include <memory>
#include <mutex>
#include <numbers>
#include <optional>
#include <unordered_map>

#include "ashn/scheme.hh"
#include "circuit/circuit.hh"
#include "device/weyl_cache.hh"
#include "weyl/weyl.hh"

namespace crisc {
namespace device {

/** The built-in native instruction sets. */
enum class NativeKind
{
    CZ,     ///< flux-tuned CZ: 3 per SU(4), gate time pi/sqrt(2).
    SQiSW,  ///< flux-tuned sqrt(iSWAP): 2 or 3 per SU(4), time pi/4 each.
    AshN,   ///< AshN pulse: 1 per SU(4), time from the scheme.
};

/** Human-readable instruction-set name. */
const char *nativeKindName(NativeKind k);

/** Gate time of one CZ (units of 1/g); the noise-model reference. */
inline constexpr double kCzTime = std::numbers::pi / std::numbers::sqrt2;
/** Gate time of one SQiSW (units of 1/g). */
inline constexpr double kSqiswTime = std::numbers::pi / 4.0;

/**
 * Native gate count and total two-qubit interaction time (units of 1/g)
 * to compile one gate class.
 */
struct GateCost
{
    int nativeGates = 0;
    double totalTime = 0.0;
};

/**
 * One two-qubit gate lowered to native form: a replacement circuit on
 * the local pair (qubit 0 = gate msq, qubit 1 = lsq) whose unitary
 * equals the source gate up to global phase, plus bookkeeping.
 */
struct Lowered2q
{
    circuit::Circuit ops{2};  ///< native 2q gates + 1q corrections.
    /** Pulse parameters, for pulse-based sets (AshN) only. */
    std::optional<ashn::GateParams> pulse;
    /** Natives actually emitted and their summed gate time. */
    GateCost cost;
};

/** A native two-qubit instruction set of a device. */
class NativeGateSet
{
  public:
    virtual ~NativeGateSet() = default;

    virtual const char *name() const = 0;
    virtual NativeKind kind() const = 0;

    /**
     * The paper's cost model for the quantum-volume noise budget: the
     * native-gate count and total interaction time charged to a gate
     * class with canonical chamber point @p p. May differ from what
     * lower() emits for special classes (e.g. the CZ model charges a
     * uniform 3 per SU(4) while lower() uses the minimal count).
     */
    virtual GateCost cost(const weyl::WeylPoint &p) const = 0;

    /**
     * Exactly decomposes a two-qubit unitary into native gates plus
     * single-qubit corrections on the local pair (0, 1).
     *
     * @post result.ops.toUnitary() equals @p u up to global phase.
     */
    virtual Lowered2q lower(const linalg::Matrix &u) const = 0;
};

/**
 * The AshN pulse set: every SU(4) is one pulse (plus single-qubit
 * corrections), with gate time given by the scheme under ZZ ratio h and
 * drive cutoff r. Weyl synthesis results are memoized in a thread-safe
 * cache shared by everyone holding this instance.
 */
class AshNGateSet final : public NativeGateSet
{
  public:
    explicit AshNGateSet(double h = 0.0, double r = 0.0);

    const char *name() const override { return "AshN"; }
    NativeKind kind() const override { return NativeKind::AshN; }
    GateCost cost(const weyl::WeylPoint &p) const override;
    Lowered2q lower(const linalg::Matrix &u) const override;

    double h() const { return h_; }
    double r() const { return r_; }
    const WeylCache &cache() const { return cache_; }

  private:
    double h_;
    double r_;
    mutable WeylCache cache_;
};

/**
 * The CZ set: the cost model charges 3 CZ per SU(4) (each of time
 * pi/sqrt(2)); lower() emits the minimal CZ count for the gate class
 * (0/1/2/3) via the CNOT decomposition with CNOT = (I x H) CZ (I x H).
 */
class CzGateSet final : public NativeGateSet
{
  public:
    const char *name() const override { return "CZ"; }
    NativeKind kind() const override { return NativeKind::CZ; }
    GateCost cost(const weyl::WeylPoint &p) const override;
    Lowered2q lower(const linalg::Matrix &u) const override;
};

/**
 * The SQiSW set: 2 applications cover the chamber region x >= y + |z|
 * (Huang et al., ref. [30]), 3 are needed otherwise, each of time pi/4.
 * lower() realizes the interaction with the Huang-style interleaver
 * family SQiSW (Rz Rx Rz x Rx) SQiSW — angles solved by deterministic
 * multi-start Nelder-Mead on the chamber coordinates, outer locals by
 * weyl::localCorrections — peeling one extra SQiSW first for
 * out-of-region targets. Exact to ~1e-12 and fully deterministic.
 * Both solves (the interleaver angles and the out-of-region peel
 * layer) depend only on the chamber point and are memoized per exact
 * coordinate bits (same guarantee as WeylCache: only bit-identical
 * points share an entry), so repeated gate classes pay for the
 * Nelder-Mead searches once; per-unitary work is linear algebra.
 */
class SqiswGateSet final : public NativeGateSet
{
  public:
    const char *name() const override { return "SQiSW"; }
    NativeKind kind() const override { return NativeKind::SQiSW; }
    GateCost cost(const weyl::WeylPoint &p) const override;
    Lowered2q lower(const linalg::Matrix &u) const override;

  private:
    /** Appends the exact 2-SQiSW realization of an in-region @p u. */
    void lowerTwoSqisw(const linalg::Matrix &u,
                       circuit::Circuit &ops) const;
    /**
     * Interleaver angles realizing chamber point @p p, memoized.
     * @throws std::runtime_error when the solve does not converge
     *         (out-of-region target); failures are not cached.
     */
    std::array<double, 3> interleaverFor(const weyl::WeylPoint &p) const;

    /**
     * Local layer (c, d) peeling one SQiSW off the canonical gate of
     * out-of-region chamber point @p p, memoized: the remainder
     * canonicalGate(p) (c x d)^-1 SQiSW^-1 lies in the 2-application
     * region. @throws std::runtime_error when no peel is found.
     */
    struct PeelEntry
    {
        linalg::Matrix c, d;
    };
    const PeelEntry &peelFor(const weyl::WeylPoint &p) const;

    struct AngleKey
    {
        double x, y, z;
        bool operator==(const AngleKey &) const = default;
    };
    struct AngleKeyHash
    {
        std::size_t operator()(const AngleKey &k) const;
    };

    mutable std::mutex mutex_;
    mutable std::unordered_map<AngleKey, std::array<double, 3>,
                               AngleKeyHash>
        angles_;
    mutable std::unordered_map<AngleKey, PeelEntry, AngleKeyHash> peels_;
};

/**
 * Factory for the built-in sets. @p h and @p r parameterize the AshN
 * scheme; CZ / SQiSW do not use them but still require values the AshN
 * scheme would accept.
 * @throws std::invalid_argument, naming the kind, unless h is finite
 *         with |h| <= 1 and r is finite in [0, (1-|h|) pi/2]
 *         (ashn::checkControls).
 */
std::shared_ptr<const NativeGateSet>
makeNativeGateSet(NativeKind kind, double h = 0.0, double r = 0.0);

} // namespace device
} // namespace crisc

#endif // CRISC_DEVICE_NATIVE_SET_HH
