/**
 * @file
 * Unified tracing & metrics ("obs"): scoped spans and named
 * counters/gauges recorded into lock-free per-thread buffers, collected
 * by a TraceSession into Chrome trace-event JSON (loadable in
 * chrome://tracing or https://ui.perfetto.dev) plus per-span-name
 * aggregates (count, total/mean/p95 ns). `bench_fig7_qv --trace PATH`
 * writes both for the Figure-7 run; perfbench/ reads the same sessions
 * for its span coverage and tracing-overhead metrics.
 *
 * Hot-path contract:
 *   - `OBS_SPAN("name")`, `OBS_COUNT("name", n)` and
 *     `OBS_GAUGE("name", v)` cost one relaxed atomic load and a branch
 *     while tracing is off; configured with -DCRISC_OBS=OFF they
 *     compile to nothing. perfbench/ reports the traced-vs-untraced
 *     cost on every workload as `obs.overhead_pct`.
 *   - Span names must have static storage duration: string literals,
 *     `Pass::name()`-style stable pointers, or `obs::internName()`
 *     results. The recorded event stores the pointer, not a copy.
 *   - A recording thread appends to its own fixed-capacity buffer with
 *     no locks; a full buffer counts drops (Trace::dropped) instead of
 *     blocking or reallocating.
 *
 * Collection contract: TraceSession::collect() must run while no
 * instrumented code executes concurrently — in practice, after the
 * pools/threads doing traced work have finished their batches (a
 * returned ThreadPool::parallelFor is enough; its join publishes every
 * worker's events). Counters are cumulative within a session and reset
 * by start(). Tracing never changes simulation results: instrumented
 * code paths perform the same floating-point operations in the same
 * order whether the flag is on or off.
 */

#ifndef CRISC_OBS_OBS_HH
#define CRISC_OBS_OBS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace crisc {
namespace obs {

// ------------------------------------------------------------ hot path

namespace detail {
extern std::atomic<bool> gEnabled; ///< the runtime tracing flag.
} // namespace detail

/** Whether the OBS_* macros were compiled in (-DCRISC_OBS, default ON). */
constexpr bool
compiledIn()
{
#ifdef CRISC_OBS_DISABLED
    return false;
#else
    return true;
#endif
}

/** Recording backend name for reports: "ring", or "off" when compiled
 *  out. */
const char *backendName();

/** Is tracing currently recording? One relaxed load. */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/** Flips the runtime recording flag (TraceSession::start also resets
 *  buffers and counters; use that to begin a fresh session). */
void setEnabled(bool on);

/** Monotonic timestamp in nanoseconds (steady_clock). */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Appends one completed span to the calling thread's buffer.
 * @p name must have static storage duration.
 */
void recordSpan(const char *name, std::uint64_t t0_ns, std::uint64_t t1_ns);

/**
 * Interns a dynamic span name, returning a stable pointer that lives
 * until process exit. Intended for low-frequency call sites that build
 * names at runtime (e.g. "pass." + pass->name()); hot sites should use
 * literals.
 */
const char *internName(const std::string &name);

/** A named monotonic counter (add) or last-value gauge (set). */
class Counter
{
  public:
    void add(std::uint64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    void set(std::uint64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * The process-wide counter registered under @p name (created on first
 * use). The reference stays valid until process exit, so call sites
 * can cache it in a static local — which is what OBS_COUNT does.
 */
Counter &counter(const char *name);

/**
 * RAII span for the OBS_SPAN macro: samples the clock only when
 * tracing was enabled at construction, and records the completed span
 * at scope exit.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : name_(enabled() ? name : nullptr), t0_(name_ ? nowNs() : 0)
    {
    }
    ~ScopedSpan()
    {
        if (name_ != nullptr)
            recordSpan(name_, t0_, nowNs());
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    std::uint64_t t0_;
};

/**
 * A span that always measures wall time and only *records* when
 * tracing is on (and compiled in). For call sites that need the
 * duration regardless — PassManager derives PassMetrics::wallSeconds
 * from it, so the report field and the trace event come from the same
 * two clock samples (bit-identical to the pre-obs hand-rolled timing).
 * A null @p name measures without ever recording.
 */
class TimedSpan
{
  public:
    explicit TimedSpan(const char *name)
        : name_(name), t0_(std::chrono::steady_clock::now())
    {
    }

    /** Ends the span; returns the elapsed wall time in seconds. */
    double finishSeconds()
    {
        const auto t1 = std::chrono::steady_clock::now();
        if (compiledIn() && name_ != nullptr && enabled())
            recordSpan(name_, toNs(t0_), toNs(t1));
        return std::chrono::duration<double>(t1 - t0_).count();
    }

  private:
    static std::uint64_t toNs(std::chrono::steady_clock::time_point tp)
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                tp.time_since_epoch())
                .count());
    }

    const char *name_;
    std::chrono::steady_clock::time_point t0_;
};

// ----------------------------------------------------------- the macros

#define CRISC_OBS_CAT2(a, b) a##b
#define CRISC_OBS_CAT(a, b) CRISC_OBS_CAT2(a, b)

#ifndef CRISC_OBS_DISABLED

/** Scoped span covering the rest of the enclosing block. */
#define OBS_SPAN(name)                                                      \
    ::crisc::obs::ScopedSpan CRISC_OBS_CAT(criscObsSpan, __LINE__)(name)

/** Adds @p delta to the named counter when tracing is on. */
#define OBS_COUNT(name, delta)                                              \
    do {                                                                    \
        if (::crisc::obs::enabled()) {                                      \
            static ::crisc::obs::Counter &criscObsCounter =                 \
                ::crisc::obs::counter(name);                                \
            criscObsCounter.add(static_cast<std::uint64_t>(delta));         \
        }                                                                   \
    } while (0)

/** Sets the named gauge to @p value when tracing is on. */
#define OBS_GAUGE(name, value)                                              \
    do {                                                                    \
        if (::crisc::obs::enabled()) {                                      \
            static ::crisc::obs::Counter &criscObsGauge =                   \
                ::crisc::obs::counter(name);                                \
            criscObsGauge.set(static_cast<std::uint64_t>(value));           \
        }                                                                   \
    } while (0)

#else // CRISC_OBS_DISABLED

#define OBS_SPAN(name) static_cast<void>(0)
#define OBS_COUNT(name, delta) static_cast<void>(0)
#define OBS_GAUGE(name, value) static_cast<void>(0)

#endif // CRISC_OBS_DISABLED

// ------------------------------------------------- collection & export

/** One completed span, as recorded (timestamps are steady_clock ns). */
struct SpanEvent
{
    const char *name = nullptr;
    std::uint32_t tid = 0;   ///< stable per-thread id (registration order).
    std::uint64_t t0Ns = 0;  ///< start, steady_clock nanoseconds.
    std::uint64_t durNs = 0; ///< duration in nanoseconds.
};

/** A counter/gauge value at collection time. */
struct CounterSample
{
    std::string name;
    std::uint64_t value = 0;
};

/** Everything one collection produced. */
struct Trace
{
    std::vector<SpanEvent> events;       ///< sorted by (tid, t0Ns).
    std::vector<CounterSample> counters; ///< sorted by name.
    std::uint64_t dropped = 0;           ///< events lost to full buffers.
};

/** Aggregate of all spans sharing a name. */
struct SpanSummary
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    double meanNs = 0.0;
    std::uint64_t p95Ns = 0; ///< nearest-rank 95th percentile duration.
};

/**
 * One tracing session over the process-wide buffers. start() resets
 * every per-thread buffer and counter (buffers reset lazily, on the
 * owning thread's next append) and enables recording; stop() disables
 * it; collect() merges the per-thread buffers. See the file comment
 * for the quiescence requirement on stop()/collect().
 */
class TraceSession
{
  public:
    void start();
    void stop();
    bool active() const { return enabled(); }
    Trace collect() const;
};

/** Per-span-name aggregates of @p trace, sorted by name. */
std::vector<SpanSummary> summarize(const Trace &trace);

/**
 * Serializes @p trace as Chrome trace-event JSON ("X" complete events
 * with pid/tid/ts/dur in microseconds, thread-name metadata, and one
 * trailing "C" counter event per counter), loadable in chrome://tracing
 * and Perfetto.
 */
std::string chromeTraceJson(const Trace &trace);

/**
 * Writes chromeTraceJson(trace) to @p path.
 * @throws std::runtime_error if the file cannot be written.
 */
void writeChromeTrace(const Trace &trace, const std::string &path);

} // namespace obs
} // namespace crisc

#endif // CRISC_OBS_OBS_HH
