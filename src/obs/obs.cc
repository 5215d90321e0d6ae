#include "obs.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>

namespace crisc {
namespace obs {

namespace detail {
std::atomic<bool> gEnabled{false};
} // namespace detail

namespace {

/**
 * One thread's span buffer. Appends are owner-thread-only and
 * lock-free: the slot is written first, then the count is published
 * with a release store, so a collector's acquire load always sees a
 * consistent prefix. A stale epoch (from a previous session) makes the
 * owner reset its own buffer on the next append — no foreign thread
 * ever writes here, which is what keeps the fast path race-free.
 */
struct ThreadBuffer
{
    /** 64 Ki events (2 MiB) per recording thread; beyond that, drop. */
    static constexpr std::size_t kCapacity = std::size_t{1} << 16;

    explicit ThreadBuffer(std::uint32_t tid_) : tid(tid_) {}

    std::uint32_t tid;
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
    std::vector<SpanEvent> slots; ///< sized lazily on first append.
};

struct Registry
{
    std::mutex mutex; ///< guards `buffers` growth (not appends).
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    /** Session epoch; bumped by TraceSession::start to invalidate old
     *  buffer contents without touching them cross-thread. */
    std::atomic<std::uint64_t> epoch{1};

    std::mutex counterMutex;
    /** Ordered so collected samples come out sorted by name; node-based
     *  so Counter references stay valid forever. */
    std::map<std::string, std::unique_ptr<Counter>> counters;

    std::mutex nameMutex;
    /** Node-based: element addresses (and c_str()) are stable. */
    std::unordered_set<std::string> names;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer *buf = nullptr;
    if (buf == nullptr) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        r.buffers.push_back(std::make_unique<ThreadBuffer>(
            static_cast<std::uint32_t>(r.buffers.size())));
        buf = r.buffers.back().get();
    }
    return *buf;
}

} // namespace

const char *
backendName()
{
    return compiledIn() ? "ring" : "off";
}

void
setEnabled(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

void
recordSpan(const char *name, std::uint64_t t0_ns, std::uint64_t t1_ns)
{
    ThreadBuffer &buf = threadBuffer();
    const std::uint64_t epoch =
        registry().epoch.load(std::memory_order_relaxed);
    if (buf.epoch.load(std::memory_order_relaxed) != epoch) {
        // New session since this thread last recorded: owner-side reset.
        buf.count.store(0, std::memory_order_relaxed);
        buf.dropped.store(0, std::memory_order_relaxed);
        buf.epoch.store(epoch, std::memory_order_release);
    }
    if (buf.slots.empty()) {
        try {
            buf.slots.resize(ThreadBuffer::kCapacity);
        } catch (...) {
            // Recording is best-effort (and runs in destructors): treat
            // an allocation failure as a dropped event, never throw.
            buf.dropped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    const std::uint32_t n = buf.count.load(std::memory_order_relaxed);
    if (n >= ThreadBuffer::kCapacity) {
        buf.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buf.slots[n] =
        SpanEvent{name, buf.tid, t0_ns, t1_ns >= t0_ns ? t1_ns - t0_ns : 0};
    buf.count.store(n + 1, std::memory_order_release);
}

const char *
internName(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.nameMutex);
    return r.names.insert(name).first->c_str();
}

Counter &
counter(const char *name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.counterMutex);
    std::unique_ptr<Counter> &slot = r.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

void
TraceSession::start()
{
    Registry &r = registry();
    {
        std::lock_guard<std::mutex> lock(r.counterMutex);
        for (auto &entry : r.counters)
            entry.second->reset();
    }
    // Invalidate every thread's previous-session events; each owner
    // resets its buffer on its next append (see ThreadBuffer).
    r.epoch.fetch_add(1, std::memory_order_relaxed);
    setEnabled(true);
}

void
TraceSession::stop()
{
    setEnabled(false);
}

Trace
TraceSession::collect() const
{
    Registry &r = registry();
    Trace trace;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        const std::uint64_t epoch = r.epoch.load(std::memory_order_relaxed);
        for (const auto &buf : r.buffers) {
            if (buf->epoch.load(std::memory_order_acquire) != epoch)
                continue; // never recorded in this session.
            const std::uint32_t n =
                buf->count.load(std::memory_order_acquire);
            for (std::uint32_t i = 0; i < n; ++i)
                trace.events.push_back(buf->slots[i]);
            trace.dropped += buf->dropped.load(std::memory_order_relaxed);
        }
    }
    std::sort(trace.events.begin(), trace.events.end(),
              [](const SpanEvent &a, const SpanEvent &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.t0Ns != b.t0Ns)
                      return a.t0Ns < b.t0Ns;
                  return a.durNs > b.durNs; // parents before children.
              });
    {
        std::lock_guard<std::mutex> lock(r.counterMutex);
        for (const auto &entry : r.counters)
            trace.counters.push_back(
                {entry.first, entry.second->value()});
    }
    return trace;
}

} // namespace obs
} // namespace crisc
