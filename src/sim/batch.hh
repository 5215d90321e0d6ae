/**
 * @file
 * Parallel trajectory batching. The heavy workloads (quantum volume,
 * noise studies) are embarrassingly parallel across noise trajectories
 * and random circuits; this module fans that axis out over a pool of
 * std::thread workers while keeping results bit-for-bit deterministic:
 *
 *   - every trajectory draws from its own RNG stream, derived from the
 *     experiment seed and the trajectory index by a splitmix64 hash, so
 *     the random numbers a trajectory sees never depend on scheduling;
 *   - per-trajectory results land in an indexed slot and are reduced
 *     sequentially afterwards, so floating-point summation order is
 *     fixed regardless of thread count (including 1).
 *
 * Trajectories are one of three orthogonal parallel axes. The second —
 * state-parallel kernel sweeps, where one statevector's amplitude
 * groups are partitioned over a pool (engine.hh) — is configured by
 * ExecOptions. The third packs several trajectories into one SoA batch
 * (batch_state.hh) so SIMD lanes run across trajectories; planBatch
 * combines all three: small registers go trajectory-parallel with
 * SoA-batched lanes per slot, very wide registers state-parallel, and
 * the band in between hybrid (a few concurrent trajectories, each
 * sweeping with its own slice of the thread budget). Every combination
 * is bit-for-bit identical to the serial run.
 */

#ifndef CRISC_SIM_BATCH_HH
#define CRISC_SIM_BATCH_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "linalg/random.hh"

namespace crisc {
namespace sim {

/**
 * Derives an independent RNG stream seed from a base seed and a stream
 * index (splitmix64 of the combined word). Distinct (base, stream)
 * pairs give statistically independent mt19937_64 seeds.
 */
std::uint64_t streamSeed(std::uint64_t base, std::uint64_t stream);

/** Resolves a requested thread count: 0 means hardware concurrency
 *  (at least 1), anything else is returned unchanged. */
std::size_t resolveThreads(std::size_t requested);

/**
 * A pool of persistent worker threads executing indexed task batches.
 * The calling thread participates in the batch, so a pool of size 1
 * runs everything inline with no synchronization surprises.
 */
class ThreadPool
{
  public:
    /** @param num_threads worker count; 0 means hardware concurrency. */
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads that execute a batch (workers + caller). */
    std::size_t size() const { return nThreads_; }

    /**
     * Runs fn(0) .. fn(count - 1), distributing indices over the pool.
     * Blocks until every index has completed. If fn throws, the first
     * exception is captured, indices not yet started are skipped, the
     * batch drains (no worker is left inside fn), and the exception is
     * rethrown here on the calling thread; the pool stays serviceable
     * for subsequent batches.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

  private:
    void workerLoop();
    void runIndex(const std::function<void(std::size_t)> &fn,
                  std::size_t index);

    std::size_t nThreads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::uint64_t generation_ = 0;
    bool stopping_ = false;
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::size_t jobCount_ = 0;
    std::atomic<std::size_t> next_{0};
    std::size_t remaining_ = 0;
    std::size_t activeWorkers_ = 0;
    std::atomic<bool> errored_{false};
    std::exception_ptr error_; ///< first task exception; under mutex_.
};

/**
 * Options for state-parallel kernel sweep execution (engine.hh): how
 * one statevector's amplitude-group axis is partitioned over threads.
 * Defaults mean serial sweeps.
 *
 * The SIMD backend the sweeps run on is deliberately NOT an option
 * here: it is process-global, resolved once from the
 * CRISC_SIMD_DISPATCH environment variable or the CPU probe
 * (sim/dispatch.hh), never per plan or per call — a per-plan backend
 * would break the bit-identity story for batched Pauli noise, whose
 * negation flavour must match the serial kernels of the same backend.
 */
struct ExecOptions
{
    /**
     * Sweep worker threads; 1 = serial, 0 = hardware concurrency. Used
     * by Plan execution to size a transient pool when no pool is given;
     * ignored when pool is set (the pool's size wins).
     */
    std::size_t threads = 1;
    /**
     * Pool to run sweeps on (not owned). Sweeps are parallel only when
     * this is set with size() > 1 — except in Plan-level execute(),
     * which creates a transient pool from `threads` when unset.
     */
    ThreadPool *pool = nullptr;
};

/**
 * How a thread budget is split across the three parallel axes:
 * trajWorkers concurrent trajectory slots, each sweeping its state
 * with stateThreads workers and packing soaLanes trajectories into one
 * SoA batch (batch_state.hh) so SIMD lanes run across trajectories.
 */
struct BatchPlan
{
    std::size_t trajWorkers = 1;
    std::size_t stateThreads = 1;
    std::size_t soaLanes = 1;
    /**
     * Cache-blocked execution choice for Plan-level sweeps (engine.hh):
     * 0 = off (the register fits cache levels where per-op sweeps are
     * cheap), else the block exponent execute() blocks at. On when
     * width >= kAutoBlockFromWidth.
     */
    std::size_t blockQubits = 0;
};

/**
 * Width heuristic choosing trajectory-parallel vs. state-parallel vs.
 * hybrid execution for @p count trajectories of a @p width qubit
 * register, given @p total_threads workers. Narrow registers
 * (< 18 qubits) go trajectory-parallel (sweeps are too short to
 * amortize the fork/join) with soaLanes set to the SIMD lane count —
 * per-state vectors starve at short strides there, so the lanes run
 * across trajectories instead; very wide ones (>= 26 qubits, ~GiB
 * statevectors) go fully state-parallel, and the band in between
 * hybrid: concurrent statevectors are capped by a per-width memory
 * budget of 2^(26 - width), and the split maximizes used threads, so
 * spare budget moves to the sweep axis when trajectories are scarce.
 * Registers of at least kAutoBlockFromWidth (~24) qubits additionally
 * get cache-blocked plan execution (BatchPlan::blockQubits set to the
 * autoBlockQubits exponent, 0 below — see sim/cache.hh), since their
 * statevectors fall out of the LLC and per-op sweeps go
 * bandwidth-bound. The choice never affects results, only scheduling.
 * @throws std::invalid_argument when width == 0 or total_threads == 0
 *         (resolve a hardware default with resolveThreads() first).
 */
BatchPlan planBatch(std::size_t total_threads, std::size_t width,
                    std::size_t count);

/**
 * Trajectory batch driver owning the trajectory and sweep axes: a
 * trajectory pool of trajWorkers slots and, when stateThreads > 1, one
 * sweep pool per slot, leased to the running tile through the
 * ExecOptions its body receives. Trajectories run in tiles of up to
 * `lanes` — the SoA width a body packs into one BatchState; a tile of
 * one is a single trajectory. Results are index-ordered and bit-for-bit
 * identical for every (trajWorkers, stateThreads, lanes) combination
 * whose body executes each trajectory faithfully.
 */
class TrajectoryRunner
{
  public:
    /**
     * Runs trajectories [first, first + lanes), with rngs[l] the stream
     * RNG of trajectory first + l (seeded streamSeed(base_seed,
     * first + l)), and writes each trajectory's result to out[l].
     */
    using Body =
        std::function<void(std::size_t first, std::size_t lanes,
                           linalg::Rng *rngs, const ExecOptions &,
                           double *out)>;

    /**
     * @param traj_workers concurrent tiles (0 = hardware).
     * @param state_threads sweep workers per tile (0 or 1 = serial
     *        sweeps).
     */
    explicit TrajectoryRunner(std::size_t traj_workers,
                              std::size_t state_threads = 1);

    std::size_t trajWorkers() const { return trajPool_.size(); }
    std::size_t stateThreads() const { return stateThreads_; }

    /**
     * Runs @p count trajectories in tiles of up to @p lanes (the final
     * tile carries count % lanes when count is not a multiple) and
     * returns the per-trajectory results in index order. Deterministic
     * for fixed (count, base_seed) regardless of thread counts and
     * lanes. count == 0 returns an empty vector and never invokes
     * @p body.
     * @throws std::invalid_argument when lanes == 0.
     */
    std::vector<double> run(std::size_t count, std::uint64_t base_seed,
                            std::size_t lanes, const Body &body);

    /** run followed by a fixed-order sum. */
    double sum(std::size_t count, std::uint64_t base_seed,
               std::size_t lanes, const Body &body);

  private:
    ThreadPool *acquireStatePool();
    void releaseStatePool(ThreadPool *pool);

    ThreadPool trajPool_;
    std::size_t stateThreads_;
    std::vector<std::unique_ptr<ThreadPool>> statePools_;
    std::mutex poolMutex_;
    std::condition_variable poolAvailable_;
    std::vector<ThreadPool *> freePools_;
};

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_BATCH_HH
