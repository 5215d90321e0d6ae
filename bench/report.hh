/**
 * @file
 * Machine-readable benchmark reports. The unified runner
 * (bench_runner.cc) fills one Report per benchmark family and writes it
 * as BENCH_<name>.json, the schema-versioned perf-trajectory format CI
 * uploads as an artifact:
 *
 *   {
 *     "schema_version": 3,
 *     "name": "micro",
 *     "git_sha": "abc1234",           // configure-time snapshot
 *     "git_dirty": false,             // working tree dirty at configure
 *     "simd_backend": "avx2",         // runtime-resolved: sim::backendName()
 *     "simd_compiled": ["scalar", "avx2"],
 *                                     // every backend in the binary
 *     "simd_lanes": 4,
 *     "threads": 8,                   // hardware concurrency
 *     "smoke": false,
 *     "obs": {                        // tracing subsystem (src/obs/)
 *       "backend": "ring",            // obs::backendName(); "off" when
 *                                     // compiled with -DCRISC_OBS=OFF
 *       "enabled": true,              // a TraceSession covered this run
 *       "spans": [                    // per-span-name aggregates, only
 *                                     // when enabled
 *         { "name": "sim.sweep", "count": 1184,
 *           "total_ns": 812345678, "mean_ns": 686102.1,
 *           "p95_ns": 912345 }
 *       ]
 *     },
 *     "scenarios": [
 *       { "name": "apply1q/n=20",
 *         "params": { "qubits": 20 },
 *         "metrics": [
 *           { "name": "scalar_ns_per_op", "value": 1.1e6, "unit": "ns" },
 *           { "name": "simd_ns_per_op",   "value": 3.2e5, "unit": "ns" },
 *           { "name": "speedup_vs_scalar","value": 3.4,   "unit": "x" }
 *         ] }
 *     ]
 *   }
 *
 * Schema history: v2 added git_dirty (a bare sha from a dirty tree
 * misattributes perf results) and the "obs" block. v3 made
 * simd_backend the runtime-resolved dispatch choice (it was the
 * compile-time backend through v2) and added simd_compiled, the list
 * of kernel backends carried by the binary — one artifact now covers
 * every ISA, and the `dispatch` family forces each in turn.
 *
 * Only a tiny, dependency-free subset of JSON is produced: objects,
 * arrays, strings (ASCII, escaped), booleans, unsigned integers, and
 * finite doubles printed with 17 significant digits (NaN/inf serialize
 * as null). Scenario and metric names are free-form; the metric names
 * contract consumers rely on for regression tracking are
 * "speedup_vs_scalar" (micro family, SIMD kernels; dispatch family,
 * per forced backend), "speedup_vs_unblocked" (blocked family,
 * BENCH_blocked_sweep.json: cache-blocked plan execution at n >= 26,
 * expected >= 1.3x once the statevector exceeds the LLC), and
 * "dispatch_overhead_pct" (dispatch family: the per-sweep table fetch
 * vs a hoisted table pointer, contract < 1%).
 */

#ifndef CRISC_BENCH_REPORT_HH
#define CRISC_BENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace crisc {
namespace bench {

/** One measured value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit; ///< "ns", "x", "ops/s", "s", ... free-form.
};

/** A named parameter of a scenario (serialized as a number). */
struct Param
{
    std::string name;
    double value = 0.0;
};

/** One benchmark case within a report. */
struct Scenario
{
    std::string name;
    std::vector<Param> params;
    std::vector<Metric> metrics;
};

/** One per-span-name trace aggregate (mirrors obs::SpanSummary;
 *  duplicated here so the report schema has no obs dependency). */
struct ObsSpanRow
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    double meanNs = 0.0;
    std::uint64_t p95Ns = 0;
};

/** A whole BENCH_<name>.json document. */
struct Report
{
    int schemaVersion = 3;
    std::string name;        ///< report family: "micro", "fig7", ...
    std::string gitSha;      ///< from reportGitSha().
    bool gitDirty = false;   ///< from reportGitDirty().
    std::string simdBackend; ///< runtime-resolved: sim::backendName().
    std::vector<std::string> simdCompiled; ///< sim::compiledBackends().
    std::size_t simdLanes = 1;
    unsigned threads = 1;    ///< hardware concurrency at run time.
    bool smoke = false;      ///< reduced CI sizes.
    std::string obsBackend = "off"; ///< obs::backendName().
    bool obsEnabled = false; ///< a TraceSession covered this run.
    std::vector<ObsSpanRow> obsSpans; ///< per-span aggregates (traced).
    std::vector<Scenario> scenarios;
};

/** The git revision compiled into the runner ("unknown" if absent). */
std::string reportGitSha();

/** Whether the working tree was dirty when the build was configured —
 *  a bare sha from a dirty tree misattributes perf results. */
bool reportGitDirty();

/** Serializes a report to a JSON string (trailing newline included). */
std::string toJson(const Report &report);

/**
 * Writes the report to <dir>/BENCH_<name>.json.
 * @return the path written.
 * @throws std::runtime_error if the file cannot be opened.
 */
std::string writeReport(const Report &report, const std::string &dir);

} // namespace bench
} // namespace crisc

#endif // CRISC_BENCH_REPORT_HH
