/**
 * @file
 * Tracing & metrics subsystem (src/obs/): span recording across
 * threads, Chrome trace-event export, counter determinism, and the
 * instrumentation-never-changes-results contract. Every test that
 * needs the OBS_* macros compiled in skips itself under
 * -DCRISC_OBS=OFF; the determinism tests run in both configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ashn/scheme.hh"
#include "ashn/special.hh"
#include "circuit/circuit.hh"
#include "device/weyl_cache.hh"
#include "linalg/random.hh"
#include "obs/obs.hh"
#include "qv/qv.hh"
#include "sim/batch.hh"
#include "sim/engine.hh"
#include "sim_test_util.hh"

using namespace crisc;
using linalg::CVector;
using testutil::randomState;

namespace {

// --------------------------------------------------------- mini JSON
// A dependency-free recursive-descent JSON reader, just enough to
// validate the exported Chrome trace: objects, arrays, strings,
// numbers, booleans, null. Throws std::runtime_error on malformed
// input, so a parse failure fails the test loudly.

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &at(const std::string &key) const
    {
        const auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }
    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    JsonValue parse()
    {
        const JsonValue v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        throw std::runtime_error("json error at " + std::to_string(pos_) +
                                 ": " + what);
    }
    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }
    char peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }
    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }
    JsonValue value()
    {
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            literal("null");
            return JsonValue{};
        }
        return number();
    }
    void literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= s_.size() || s_[pos_] != *p)
                fail(std::string("expected ") + word);
            ++pos_;
        }
    }
    JsonValue boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (peek() == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }
    JsonValue number()
    {
        skipWs();
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::stod(s_.substr(start, pos_ - start));
        return v;
    }
    JsonValue string()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    fail("bad escape");
                switch (s_[pos_]) {
                  case '"': v.string += '"'; break;
                  case '\\': v.string += '\\'; break;
                  case '/': v.string += '/'; break;
                  case 'n': v.string += '\n'; break;
                  case 't': v.string += '\t'; break;
                  case 'u':
                    // Names are ASCII; keep the raw sequence.
                    v.string += "\\u";
                    break;
                  default: fail("bad escape");
                }
                ++pos_;
            } else {
                v.string += s_[pos_++];
            }
        }
        expect('"');
        return v;
    }
    JsonValue array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            const char c = peek();
            if (c == ']') {
                ++pos_;
                return v;
            }
            expect(',');
        }
    }
    JsonValue object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            const JsonValue key = string();
            expect(':');
            v.object[key.string] = value();
            const char c = peek();
            if (c == '}') {
                ++pos_;
                return v;
            }
            expect(',');
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** Events of @p trace with the given span name. */
std::vector<obs::SpanEvent>
eventsNamed(const obs::Trace &t, const std::string &name)
{
    std::vector<obs::SpanEvent> out;
    for (const obs::SpanEvent &e : t.events)
        if (name == e.name)
            out.push_back(e);
    return out;
}

/** Value of the named counter, or 0 if absent. */
std::uint64_t
counterValue(const obs::Trace &t, const std::string &name)
{
    for (const obs::CounterSample &c : t.counters)
        if (c.name == name)
            return c.value;
    return 0;
}

} // namespace

TEST(Obs, DisabledByDefaultAndTogglable)
{
    EXPECT_FALSE(obs::enabled());
    obs::setEnabled(true);
    EXPECT_TRUE(obs::enabled());
    obs::setEnabled(false);
    EXPECT_FALSE(obs::enabled());
    EXPECT_STREQ(obs::backendName(), obs::compiledIn() ? "ring" : "off");
}

TEST(Obs, NothingRecordedWhileDisabled)
{
    if (!obs::compiledIn())
        GTEST_SKIP() << "built with -DCRISC_OBS=OFF";
    // No session: the macros must not record or register counters.
    {
        OBS_SPAN("off.span");
        OBS_COUNT("off.count", 3);
    }
    obs::TraceSession session;
    session.start();
    session.stop();
    const obs::Trace t = session.collect();
    EXPECT_TRUE(eventsNamed(t, "off.span").empty());
    EXPECT_EQ(counterValue(t, "off.count"), 0u);
}

TEST(Obs, SpansNestAcrossThreads)
{
    if (!obs::compiledIn())
        GTEST_SKIP() << "built with -DCRISC_OBS=OFF";
    obs::TraceSession session;
    session.start();

    constexpr int kThreads = 3;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([] {
            OBS_SPAN("nest.outer");
            {
                OBS_SPAN("nest.inner");
                volatile int sink = 0;
                for (int k = 0; k < 1000; ++k)
                    sink = sink + k;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    session.stop();
    const obs::Trace trace = session.collect();

    const auto outer = eventsNamed(trace, "nest.outer");
    const auto inner = eventsNamed(trace, "nest.inner");
    ASSERT_EQ(outer.size(), static_cast<std::size_t>(kThreads));
    ASSERT_EQ(inner.size(), static_cast<std::size_t>(kThreads));

    // Each thread gets its own tid, and on every thread the inner span
    // is contained within the outer one.
    std::set<std::uint32_t> tids;
    for (const obs::SpanEvent &o : outer) {
        tids.insert(o.tid);
        const auto it = std::find_if(
            inner.begin(), inner.end(),
            [&](const obs::SpanEvent &e) { return e.tid == o.tid; });
        ASSERT_NE(it, inner.end());
        EXPECT_LE(o.t0Ns, it->t0Ns);
        EXPECT_GE(o.t0Ns + o.durNs, it->t0Ns + it->durNs);
    }
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Obs, ParallelForRecordsSpansAndCounters)
{
    if (!obs::compiledIn())
        GTEST_SKIP() << "built with -DCRISC_OBS=OFF";
    obs::TraceSession session;
    session.start();
    sim::ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](std::size_t) { ran.fetch_add(1); });
    session.stop();
    EXPECT_EQ(ran.load(), 8);

    const obs::Trace t = session.collect();
    EXPECT_EQ(eventsNamed(t, "pool.parallelFor").size(), 1u);
    EXPECT_EQ(eventsNamed(t, "pool.task").size(), 8u);
    EXPECT_EQ(counterValue(t, "pool.tasks"), 8u);
    EXPECT_EQ(counterValue(t, "pool.queue_depth"), 8u);

    // Every task span is contained in the parallelFor span.
    const obs::SpanEvent outer = eventsNamed(t, "pool.parallelFor")[0];
    for (const obs::SpanEvent &task : eventsNamed(t, "pool.task")) {
        EXPECT_GE(task.t0Ns, outer.t0Ns);
        EXPECT_LE(task.t0Ns + task.durNs, outer.t0Ns + outer.durNs);
    }
}

TEST(Obs, CountersSumDeterministicallyAcrossThreadCounts)
{
    if (!obs::compiledIn())
        GTEST_SKIP() << "built with -DCRISC_OBS=OFF";
    // 5 circuits x 7 trajectories in SoA tiles of 3: 3 tiles a circuit.
    constexpr std::size_t kCircuits = 5;
    constexpr std::size_t kTrajectories = 7;
    const device::Device dev =
        device::Device::grid2d(device::NativeKind::AshN, 3);
    qv::QvConfig cfg;
    cfg.width = 3;
    cfg.device = &dev;
    cfg.circuits = kCircuits;
    cfg.trajectories = kTrajectories;
    cfg.soaLanes = 3;
    for (const int threads : {1, 2, 4}) {
        cfg.threads = threads;
        obs::TraceSession session;
        session.start();
        qv::heavyOutputExperiment(cfg);
        session.stop();
        const obs::Trace t = session.collect();
        EXPECT_EQ(counterValue(t, "qv.trajectories"),
                  kCircuits * kTrajectories)
            << "threads=" << threads;
        EXPECT_EQ(eventsNamed(t, "qv.circuit").size(), kCircuits)
            << "threads=" << threads;
        EXPECT_EQ(eventsNamed(t, "qv.trajectory").size(), kCircuits * 3)
            << "threads=" << threads;
    }
}

TEST(Obs, WeylCacheHitMissCounters)
{
    if (!obs::compiledIn())
        GTEST_SKIP() << "built with -DCRISC_OBS=OFF";
    obs::TraceSession session;
    session.start();
    device::WeylCache cache;
    cache.lookup({0.3, 0.1, 0.05}, 0.0, 0.0);
    cache.lookup({0.3, 0.1, 0.05}, 0.0, 0.0);
    session.stop();
    const obs::Trace t = session.collect();
    EXPECT_EQ(counterValue(t, "weyl_cache.miss"), 1u);
    EXPECT_EQ(counterValue(t, "weyl_cache.hit"), 1u);
    EXPECT_EQ(eventsNamed(t, "weyl.synthesize").size(), 1u);
}

TEST(Obs, AshnSynthesisStageSpans)
{
    if (!obs::compiledIn())
        GTEST_SKIP() << "built with -DCRISC_OBS=OFF";
    // SWAP takes the EA- branch, so one synthesis runs the seed grid,
    // Newton and at least one candidate verification.
    obs::TraceSession session;
    session.start();
    ashn::synthesize(ashn::swapPoint(), 0.0, 0.0);
    session.stop();
    const obs::Trace direct = session.collect();
    EXPECT_EQ(eventsNamed(direct, "ashn.grid").size(), 1u);
    EXPECT_EQ(eventsNamed(direct, "ashn.newton").size(), 1u);
    EXPECT_GE(eventsNamed(direct, "ashn.verify").size(), 1u);

    // Through the Weyl cache, every stage span nests inside the one
    // weyl.synthesize span, so perfbench's ledger counts it once.
    session.start();
    device::WeylCache cache;
    cache.lookup(ashn::swapPoint(), 0.0, 0.0);
    session.stop();
    const obs::Trace viaCache = session.collect();
    const auto outer = eventsNamed(viaCache, "weyl.synthesize");
    ASSERT_EQ(outer.size(), 1u);
    for (const char *stage : {"ashn.grid", "ashn.newton", "ashn.verify"}) {
        const auto events = eventsNamed(viaCache, stage);
        EXPECT_FALSE(events.empty()) << stage;
        for (const obs::SpanEvent &e : events) {
            EXPECT_EQ(e.tid, outer[0].tid) << stage;
            EXPECT_LE(outer[0].t0Ns, e.t0Ns) << stage;
            EXPECT_GE(outer[0].t0Ns + outer[0].durNs, e.t0Ns + e.durNs)
                << stage;
        }
    }
}

TEST(Obs, TimedSpanMatchesRecordedDuration)
{
    if (!obs::compiledIn())
        GTEST_SKIP() << "built with -DCRISC_OBS=OFF";
    obs::TraceSession session;
    session.start();
    obs::TimedSpan span("test.timed");
    volatile double sink = 0.0;
    for (int i = 0; i < 50000; ++i)
        sink = sink + 1e-9;
    const double secs = span.finishSeconds();
    session.stop();
    EXPECT_GT(secs, 0.0);
    const obs::Trace t = session.collect();
    const auto events = eventsNamed(t, "test.timed");
    ASSERT_EQ(events.size(), 1u);
    // The report field and the trace event come from the same two
    // clock samples.
    EXPECT_NEAR(secs, static_cast<double>(events[0].durNs) * 1e-9,
                1e-12);
}

TEST(Obs, InternedNamesAreStableAndDeduplicated)
{
    const char *a = obs::internName("pass.Example");
    const char *b = obs::internName(std::string("pass.") + "Example");
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "pass.Example");
}

TEST(Obs, SummarizeAggregatesByName)
{
    obs::Trace t;
    t.events = {{"a", 0, 0, 10},  {"a", 0, 20, 30}, {"a", 1, 5, 20},
                {"b", 0, 50, 40}, {"a", 1, 90, 40}};
    const std::vector<obs::SpanSummary> sums = obs::summarize(t);
    ASSERT_EQ(sums.size(), 2u);
    EXPECT_EQ(sums[0].name, "a");
    EXPECT_EQ(sums[0].count, 4u);
    EXPECT_EQ(sums[0].totalNs, 100u);
    EXPECT_DOUBLE_EQ(sums[0].meanNs, 25.0);
    // Nearest-rank p95 of {10, 20, 30, 40} is the 4th value.
    EXPECT_EQ(sums[0].p95Ns, 40u);
    EXPECT_EQ(sums[1].name, "b");
    EXPECT_EQ(sums[1].count, 1u);
    EXPECT_EQ(sums[1].p95Ns, 40u);
}

TEST(Obs, ChromeTraceJsonParsesAndRoundTrips)
{
    // Hand-built trace: valid in every build configuration.
    obs::Trace trace;
    trace.events = {{"alpha", 0, 1000, 500},
                    {"beta", 0, 1200, 100},
                    {"alpha", 1, 900, 2000}};
    trace.counters = {{"hits", 3}};
    const std::string json = obs::chromeTraceJson(trace);

    const JsonValue root = JsonParser(json).parse();
    ASSERT_EQ(root.kind, JsonValue::Kind::Object);
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::Array);

    std::size_t xCount = 0;
    std::map<double, double> lastTsPerTid;
    std::set<double> metaTids;
    std::size_t counterEvents = 0;
    for (const JsonValue &e : events.array) {
        const std::string ph = e.at("ph").string;
        EXPECT_EQ(e.at("pid").number, 1.0);
        if (ph == "X") {
            ++xCount;
            const double tid = e.at("tid").number;
            const double ts = e.at("ts").number;
            EXPECT_GE(ts, 0.0);
            EXPECT_GE(e.at("dur").number, 0.0);
            // Events are sorted by (tid, t0): per-tid timestamps are
            // monotone non-decreasing.
            if (lastTsPerTid.count(tid)) {
                EXPECT_GE(ts, lastTsPerTid[tid]);
            }
            lastTsPerTid[tid] = ts;
            EXPECT_FALSE(e.at("name").string.empty());
        } else if (ph == "M") {
            if (e.at("name").string == "thread_name")
                metaTids.insert(e.at("tid").number);
        } else if (ph == "C") {
            ++counterEvents;
            EXPECT_TRUE(e.at("args").has("value"));
        }
    }
    EXPECT_EQ(xCount, trace.events.size());
    EXPECT_EQ(metaTids.size(), 2u); // tids 0 and 1
    EXPECT_EQ(counterEvents, trace.counters.size());

    // Timestamps are rebased to the earliest event.
    double minTs = 1e300;
    for (const JsonValue &e : events.array)
        if (e.at("ph").string == "X")
            minTs = std::min(minTs, e.at("ts").number);
    EXPECT_EQ(minTs, 0.0);

    const JsonValue &other = root.at("otherData");
    EXPECT_EQ(other.at("backend").string, obs::backendName());
    EXPECT_EQ(other.at("dropped_events").number, 0.0);
}

TEST(Obs, ChromeTraceOfLiveSessionIsValid)
{
    if (!obs::compiledIn())
        GTEST_SKIP() << "built with -DCRISC_OBS=OFF";
    obs::TraceSession session;
    session.start();
    sim::ThreadPool pool(2);
    pool.parallelFor(4, [](std::size_t) {
        OBS_SPAN("live.work");
    });
    session.stop();
    const obs::Trace trace = session.collect();
    ASSERT_FALSE(trace.events.empty());

    const JsonValue root = JsonParser(obs::chromeTraceJson(trace)).parse();
    std::size_t xCount = 0;
    for (const JsonValue &e : root.at("traceEvents").array)
        if (e.at("ph").string == "X")
            ++xCount;
    EXPECT_EQ(xCount, trace.events.size());
}

TEST(Obs, EnabledVsDisabledSimulationBitIdentical)
{
    // Build a statevector run and compare amplitudes with tracing off
    // and on: instrumentation must not change a single bit. Runs in
    // both build configurations (trivially under -DCRISC_OBS=OFF).
    linalg::Rng rng(5);
    const std::size_t n = 6;
    circuit::Circuit c(n);
    for (int g = 0; g < 24; ++g) {
        const std::size_t a = rng.index(n);
        std::size_t b = rng.index(n - 1);
        if (b >= a)
            ++b;
        c.add(linalg::haarUnitary(rng, 4), {a, b});
    }
    const sim::Plan plan = sim::compile(c);

    sim::ExecOptions exec;
    exec.threads = 2;
    const CVector off = sim::run(plan, exec);

    obs::TraceSession session;
    session.start();
    const CVector on = sim::run(plan, exec);
    session.stop();

    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        EXPECT_EQ(off[i].real(), on[i].real()) << "amp " << i;
        EXPECT_EQ(off[i].imag(), on[i].imag()) << "amp " << i;
    }
}

TEST(Obs, EnabledVsDisabledQvBitIdentical)
{
    const device::Device dev =
        device::Device::grid2d(device::NativeKind::AshN, 3);
    qv::QvConfig cfg;
    cfg.width = 3;
    cfg.device = &dev;
    cfg.circuits = 2;
    cfg.trajectories = 3;
    cfg.seed = 77;
    cfg.threads = 2;
    const qv::QvResult off = qv::heavyOutputExperiment(cfg);

    obs::TraceSession session;
    session.start();
    const qv::QvResult on = qv::heavyOutputExperiment(cfg);
    session.stop();

    EXPECT_EQ(off.heavyOutputProportion, on.heavyOutputProportion);
    EXPECT_EQ(off.avgNativeGatesPerCircuit, on.avgNativeGatesPerCircuit);
}
