/**
 * @file
 * Thread pools and the parallel-axis planner. The heavy workloads
 * (quantum volume, noise studies) are embarrassingly parallel across
 * random circuits and noise trajectories; callers fan independent work
 * items out over a ThreadPool while keeping results bit-for-bit
 * deterministic:
 *
 *   - every work item draws from its own RNG stream, derived from the
 *     experiment seed and the item index by a splitmix64 hash
 *     (streamSeed), so the random numbers it sees never depend on
 *     scheduling;
 *   - per-item results land in an indexed slot and are reduced
 *     sequentially afterwards, so floating-point summation order is
 *     fixed regardless of thread count (including 1).
 *
 * Independent work items are one of three orthogonal parallel axes.
 * The second — state-parallel kernel sweeps, where one statevector's
 * amplitude groups are partitioned over a pool (engine.hh) — is
 * configured by ExecOptions. The third packs several trajectories into
 * one SoA batch (batch_state.hh) so SIMD lanes run across trajectories.
 * planBatch splits a thread budget across all three: small registers
 * go item-parallel with SoA-batched lanes, very wide registers
 * state-parallel, and the band in between hybrid (a few concurrent
 * items, each sweeping with its own slice of the thread budget). Every
 * combination is bit-for-bit identical to the serial run.
 */

#ifndef CRISC_SIM_BATCH_HH
#define CRISC_SIM_BATCH_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
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
 * (sim/dispatch.hh), never per plan or per call. Every backend gives
 * the same bits, so a per-plan choice could change only speed.
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
 * trajWorkers concurrent work items (circuits or trajectories), each
 * sweeping its state with stateThreads workers and packing soaLanes
 * trajectories into one SoA batch (batch_state.hh) so SIMD lanes run
 * across trajectories.
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
 * Width heuristic choosing item-parallel vs. state-parallel vs.
 * hybrid execution for @p count independent work items (circuits or
 * trajectories), each simulating a @p width qubit register, given
 * @p total_threads workers. Narrow registers (< 18 qubits) go
 * item-parallel (sweeps are too short to amortize the fork/join) with
 * soaLanes set to the SIMD lane count — per-state vectors starve at
 * short strides there, so the lanes run across trajectories instead;
 * very wide ones (>= 26 qubits, ~GiB statevectors) go fully
 * state-parallel, and the band in between hybrid: concurrent
 * statevectors are capped by a per-width memory budget of
 * 2^(26 - width), and the split maximizes used threads, so spare
 * budget moves to the sweep axis when items are scarce.
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

} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_BATCH_HH
