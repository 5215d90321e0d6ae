#include "env.hh"

#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>

namespace crisc {
namespace sim {
namespace env {

namespace {

std::mutex g_mutex;
std::optional<std::size_t> g_blockBytes;
std::optional<std::string> g_simdDispatch;

/** Strict decimal parse of @p text; throws naming @p var on anything
 *  that is not a plain non-negative decimal integer. */
unsigned long long
parseDecimal(const char *var, const char *text)
{
    if (*text < '0' || *text > '9') // rejects "-4", " 8", "+2"...
        throw std::invalid_argument(std::string(var) + ": expected a "
                                    "decimal integer, got \"" + text + "\"");
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        throw std::invalid_argument(std::string(var) + ": expected a "
                                    "decimal integer, got \"" + text + "\"");
    return parsed;
}

std::size_t
parseBlockBytes()
{
    const char *raw = std::getenv("CRISC_BLOCK_BYTES");
    if (raw == nullptr || *raw == '\0')
        return 0;
    return static_cast<std::size_t>(parseDecimal("CRISC_BLOCK_BYTES", raw));
}

} // namespace

std::size_t
blockBytes()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_blockBytes)
        g_blockBytes = parseBlockBytes();
    return *g_blockBytes;
}

const std::string &
simdDispatch()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_simdDispatch) {
        const char *raw = std::getenv("CRISC_SIMD_DISPATCH");
        g_simdDispatch = raw == nullptr ? std::string() : std::string(raw);
    }
    return *g_simdDispatch;
}

void
resetForTesting()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_blockBytes.reset();
    g_simdDispatch.reset();
}

} // namespace env
} // namespace sim
} // namespace crisc
