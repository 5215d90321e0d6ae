#include "batch.hh"

#include <stdexcept>

#include "obs/obs.hh"
#include "sim/cache.hh"
#include "sim/kernels.hh"

namespace crisc {
namespace sim {

std::uint64_t
streamSeed(std::uint64_t base, std::uint64_t stream)
{
    // splitmix64 finalizer over the combined word; the golden-ratio
    // multiplier separates (base, stream) pairs that differ in either
    // component.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    nThreads_ = num_threads;
    workers_.reserve(nThreads_ - 1);
    for (std::size_t i = 0; i + 1 < nThreads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::runIndex(const std::function<void(std::size_t)> &fn,
                     std::size_t index)
{
    // After a task throws, remaining indices are skipped (not run) so
    // the batch drains quickly; the first exception wins.
    if (errored_.load(std::memory_order_relaxed))
        return;
    try {
        OBS_SPAN("pool.task");
        fn(index);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_)
            error_ = std::current_exception();
        errored_.store(true, std::memory_order_relaxed);
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    OBS_SPAN("pool.parallelFor");
    OBS_COUNT("pool.tasks", count);
    OBS_GAUGE("pool.queue_depth", count);
    if (workers_.empty() || count == 1) {
        // Inline path: the first exception propagates directly and the
        // remaining indices are skipped, matching the pooled contract.
        for (std::size_t i = 0; i < count; ++i) {
            OBS_SPAN("pool.task");
            fn(i);
        }
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        jobCount_ = count;
        next_.store(0, std::memory_order_relaxed);
        remaining_ = count;
        errored_.store(false, std::memory_order_relaxed);
        error_ = nullptr;
        ++generation_;
    }
    wake_.notify_all();

    // The caller works the same queue as the pool threads.
    for (;;) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count)
            break;
        runIndex(fn, i);
        std::lock_guard<std::mutex> lock(mutex_);
        if (--remaining_ == 0) {
            done_.notify_all();
            break;
        }
    }

    // Wait for all items AND for every worker to leave the job's inner
    // loop; a worker still inside it holds a pointer to fn, which dies
    // when this function returns.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock,
               [this] { return remaining_ == 0 && activeWorkers_ == 0; });
    job_ = nullptr;
    if (error_) {
        std::exception_ptr first = error_;
        error_ = nullptr;
        errored_.store(false, std::memory_order_relaxed);
        lock.unlock();
        std::rethrow_exception(first);
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::size_t)> *job = nullptr;
        std::size_t count = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this, seen] {
                return stopping_ || generation_ != seen;
            });
            if (stopping_)
                return;
            seen = generation_;
            job = job_;
            count = jobCount_;
            if (job)
                ++activeWorkers_;
        }
        if (!job)
            continue;
        for (;;) {
            const std::size_t i =
                next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                break;
            runIndex(*job, i);
            std::lock_guard<std::mutex> lock(mutex_);
            if (--remaining_ == 0)
                done_.notify_all();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--activeWorkers_ == 0 && remaining_ == 0)
                done_.notify_all();
        }
    }
}

std::size_t
resolveThreads(std::size_t requested)
{
    if (requested != 0)
        return requested;
    const std::size_t hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

BatchPlan
planBatch(std::size_t total_threads, std::size_t width, std::size_t count)
{
    // Width bands (see batch.hh): below 18 qubits a sweep is too short
    // to amortize fork/join, so the item axis takes everything and
    // SIMD lanes run across trajectories (per-state vectors starve
    // at the short strides these widths produce); from 26 qubits a
    // statevector is ~GiB-scale and only one fits comfortably, so the
    // sweep axis takes everything; in between, the number of concurrent
    // statevectors is capped by a per-width memory budget and spare
    // threads move to the sweep axis.
    constexpr std::size_t kTrajOnlyBelowWidth = 18;
    constexpr std::size_t kStateOnlyFromWidth = 26;

    if (width == 0)
        throw std::invalid_argument("planBatch: width must be at least 1");
    if (total_threads == 0)
        throw std::invalid_argument(
            "planBatch: total_threads must be at least 1 (use "
            "resolveThreads for a hardware default)");

    const std::size_t total = total_threads;
    const std::size_t soa =
        width < kTrajOnlyBelowWidth ? simdLanes() : 1;
    // Statevectors past the LLC execute cache-blocked (engine.hh); the
    // auto policy execute() resolves for every plan.
    const std::size_t block = resolveBlockQubits(0, width);
    if (count == 0)
        return {1, 1, 1, block};
    if (total == 1)
        return {1, 1, soa, block};
    if (width < kTrajOnlyBelowWidth)
        return {total, 1, soa, block};
    if (width >= kStateOnlyFromWidth)
        return {1, total, 1, block};
    const std::size_t memCap = std::size_t{1}
                               << (kStateOnlyFromWidth - width);
    std::size_t limit = total;
    if (limit > count)
        limit = count;
    if (limit > memCap)
        limit = memCap;
    if (limit == 0)
        limit = 1;
    // Among admissible item counts, prefer the one wasting the fewest
    // threads to the truncating division (traj = 1 always uses the
    // whole budget), and the most concurrent items on a tie — that
    // axis scales perfectly.
    std::size_t traj = 1;
    std::size_t used = total;
    for (std::size_t t = 2; t <= limit; ++t) {
        const std::size_t u = t * (total / t);
        if (u >= used) {
            used = u;
            traj = t;
        }
    }
    return {traj, total / traj, 1, block};
}

} // namespace sim
} // namespace crisc
