#include "support/options.h"

#include <cstdint>
#include <cstdlib>

namespace guoq {
namespace support {

double
envDouble(const std::string &name, double fallback)
{
    const char *v = std::getenv(name.c_str());
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const double x = std::strtod(v, &end);
    return end && *end == '\0' ? x : fallback;
}

int
envInt(const std::string &name, int fallback)
{
    const char *v = std::getenv(name.c_str());
    if (!v || !*v)
        return fallback;
    char *end = nullptr;
    const long x = std::strtol(v, &end, 10);
    return end && *end == '\0' ? static_cast<int>(x) : fallback;
}

double
benchScale()
{
    // Clamp: GUOQ_BENCH_SCALE=0 (or negative, or garbage parsed as 0)
    // must not zero out every search budget downstream — a zero-second
    // deadline makes each optimizer return its input and every harness
    // silently reports 0% reduction. 1e-3 keeps "as tiny as possible"
    // runs meaningful (milliseconds-scale budgets) while staying
    // usable for smoke tests.
    constexpr double kMinScale = 1e-3;
    constexpr double kMaxScale = 1e6;
    const double scale = envDouble("GUOQ_BENCH_SCALE", 1.0);
    // !(>=) instead of (<) so NaN also falls into the clamp; the upper
    // bound keeps "inf" from producing deadlines that overflow the
    // steady-clock duration conversion.
    if (!(scale >= kMinScale))
        return kMinScale;
    return scale > kMaxScale ? kMaxScale : scale;
}

int
benchTrials()
{
    // Same guard as benchScale(): zero trials would make every
    // experiment cell silently empty.
    const int trials = envInt("GUOQ_BENCH_TRIALS", 1);
    return trials < 1 ? 1 : trials;
}

std::uint64_t
benchSeed()
{
    return static_cast<std::uint64_t>(envInt("GUOQ_BENCH_SEED", 12345));
}

int
benchThreads()
{
    const int threads = envInt("GUOQ_BENCH_THREADS", 1);
    if (threads < 1)
        return 1;
    return threads > 1024 ? 1024 : threads;
}

} // namespace support
} // namespace guoq
