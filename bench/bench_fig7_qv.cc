/**
 * @file
 * Reproduces Figure 7: heavy output proportion versus circuit size d
 * for CZ, SQiSW, AshN(r=0) and AshN(r=1.1) instruction sets under
 * depolarizing noise with per-native-gate rate proportional to gate
 * time, on a 2D grid with SWAP routing. Each variant constructs its
 * device::Device once per width and hands it to the harness — the
 * coupling map, native gate set, and noise model all come from the
 * device. Sample counts are comparable to the paper's 1350 circuit
 * samples: 120 circuits x 24 noise trajectories per point.
 *
 * usage: bench_fig7_qv [--trace PATH]
 *
 * --trace PATH records the whole run under an obs::TraceSession, writes
 * a Chrome trace-event JSON to PATH (open in chrome://tracing or
 * https://ui.perfetto.dev) and prints the per-span aggregates after the
 * tables. The path is probed before the run, after creating its missing
 * parent directories, so an unwritable destination fails at once (exit
 * 2). Tracing never changes the printed proportions.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "device/device.hh"
#include "obs/obs.hh"
#include "qv/qv.hh"
#include "sim/dispatch.hh"

using namespace crisc;

namespace {

struct Variant
{
    const char *name;
    device::NativeKind native;
    double cutoff;
};

constexpr Variant kVariants[] = {
    {"AshN r=0", device::NativeKind::AshN, 0.0},
    {"AshN r=1.1", device::NativeKind::AshN, 1.1},
    {"SQiSW", device::NativeKind::SQiSW, 0.0},
    {"CZ", device::NativeKind::CZ, 0.0},
};

void
runFigure()
{
    const std::vector<std::size_t> widths{2, 3, 4, 5, 6, 7, 8};
    const int circuits = 120;
    const int trajectories = 24;

    for (double eCz : {0.007, 0.012, 0.017}) {
        std::printf("=== Figure 7: heavy output proportion, e_CZ = %.3f "
                    "(1q error 0.1%%) ===\n",
                    eCz);
        std::printf("  %-14s", "scheme \\ d");
        for (std::size_t d : widths)
            std::printf(" %8zu", d);
        std::printf("\n");

        for (const Variant &v : kVariants) {
            std::printf("  %-14s", v.name);
            for (std::size_t d : widths) {
                const device::Device dev = device::Device::grid2d(
                    v.native, d,
                    {.twoQubitError = eCz, .singleQubitError = 0.001,
                     .h = 0.0, .r = v.cutoff});
                qv::QvConfig cfg;
                cfg.width = d;
                cfg.device = &dev;
                cfg.circuits = circuits;
                cfg.trajectories = trajectories;
                cfg.seed = 1000 + d; // same circuits across schemes
                const qv::QvResult r = qv::heavyOutputExperiment(cfg);
                std::printf(" %8.3f", r.heavyOutputProportion);
            }
            std::printf("\n");
        }
        std::printf("  (pass threshold 2/3; paper: AshN > SQiSW > CZ, with "
                    "r=1.1 nearly matching r=0)\n\n");
    }

    // Cost-model summary at one size.
    std::printf("=== Compilation cost per circuit (d = 5, e_CZ = 0.012) "
                "===\n");
    std::printf("  %-14s %-14s %-18s %-10s\n", "scheme", "native gates",
                "2q time (1/g)", "swaps");
    for (const Variant &v : kVariants) {
        const device::Device dev = device::Device::grid2d(
            v.native, 5,
            {.twoQubitError = 0.012, .singleQubitError = 0.001,
             .h = 0.0, .r = v.cutoff});
        qv::QvConfig cfg;
        cfg.width = 5;
        cfg.device = &dev;
        cfg.circuits = 10;
        cfg.trajectories = 1;
        cfg.seed = 77;
        const qv::QvResult r = qv::heavyOutputExperiment(cfg);
        std::printf("  %-14s %-14.1f %-18.2f %-10.1f\n", v.name,
                    r.avgNativeGatesPerCircuit, r.avgTwoQubitTimePerCircuit,
                    r.avgSwapsPerCircuit);
    }
}

/** Creates @p path's missing parent directories, then checks that the
 *  file can be opened for writing. */
bool
probeTracePath(const std::string &path)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    std::error_code ec;
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);
    std::FILE *probe = std::fopen(path.c_str(), "a");
    if (probe == nullptr) {
        std::fprintf(stderr,
                     "bench_fig7_qv: cannot open trace output '%s': %s\n",
                     path.c_str(), std::strerror(errno));
        return false;
    }
    std::fclose(probe);
    return true;
}

void
printSpanSummary(const obs::Trace &trace, const std::string &path)
{
    std::printf("=== Trace: %s (%zu span events, %llu dropped) ===\n",
                path.c_str(), trace.events.size(),
                static_cast<unsigned long long>(trace.dropped));
    std::printf("  %-28s %10s %12s %12s %12s\n", "span", "count",
                "total ms", "mean us", "p95 us");
    for (const obs::SpanSummary &s : obs::summarize(trace))
        std::printf("  %-28s %10llu %12.3f %12.3f %12.3f\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.count),
                    1e-6 * static_cast<double>(s.totalNs), 1e-3 * s.meanNs,
                    1e-3 * static_cast<double>(s.p95Ns));
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace" && i + 1 < argc) {
            trace = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--trace PATH]\n", argv[0]);
            return 2;
        }
    }

    // A bad path is a bad invocation even when tracing is compiled out.
    if (!trace.empty() && !probeTracePath(trace))
        return 2;
    if (!trace.empty() && !obs::compiledIn())
        std::fprintf(stderr, "bench_fig7_qv: warning: --trace ignored "
                             "(built with -DCRISC_OBS=OFF)\n");
    const bool tracing = !trace.empty() && obs::compiledIn();

    obs::TraceSession session;
    if (tracing) {
        session.start();
        // Gauges set before start() were dropped; stamp the resolved
        // backend into this session.
        sim::recordDispatchGauges();
    }
    runFigure();
    if (tracing) {
        session.stop();
        const obs::Trace t = session.collect();
        obs::writeChromeTrace(t, trace);
        printSpanSummary(t, trace);
    }
    return 0;
}
