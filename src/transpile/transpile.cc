#include "transpile.hh"

#include <exception>
#include <stdexcept>
#include <string>

#include "sim/batch.hh"

namespace crisc {
namespace transpile {

namespace {

PassContext
contextFor(const TranspileOptions &opts)
{
    PassContext ctx;
    ctx.coupling = opts.device ? &opts.device->coupling() : nullptr;
    return ctx;
}

} // namespace

PassManager
makePipeline(const TranspileOptions &opts)
{
    PassManager pm;
    pm.emplace<WideGateDecompose>()
        .emplace<SingleQubitFuse>()
        .emplace<PeepholeCancel>();
    if (opts.device)
        pm.emplace<Route>();
    pm.emplace<NativeLower>(opts.device ? opts.device->gateSetPtr()
                                        : nullptr);
    return pm;
}

TranspileResult
transpile(const circuit::Circuit &logical, const TranspileOptions &opts)
{
    return makePipeline(opts).run(logical, contextFor(opts));
}

std::vector<TranspileResult>
transpileBatch(const std::vector<circuit::Circuit> &circuits,
               const TranspileOptions &opts, int threads)
{
    if (threads < 0)
        throw std::invalid_argument(
            "transpileBatch: threads must be non-negative "
            "(0 = hardware concurrency), got " +
            std::to_string(threads));
    const PassManager pipeline = makePipeline(opts);
    std::vector<TranspileResult> results(circuits.size());
    std::vector<std::exception_ptr> errors(circuits.size());

    sim::ThreadPool pool(static_cast<std::size_t>(threads));
    pool.parallelFor(circuits.size(), [&](std::size_t i) {
        try {
            results[i] = pipeline.run(circuits[i], contextFor(opts));
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return results;
}

} // namespace transpile
} // namespace crisc
