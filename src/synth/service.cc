/** @file SynthService: cache + pool front end for resynthesize(). */

#include "synth/service.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "linalg/unitary.h"
#include "sim/unitary_sim.h"

namespace guoq {
namespace synth {

namespace {

// Mirrors resynthesize()'s own acceptance threshold for ε <= 0.
double
effectiveEpsilon(const ResynthOptions &opts)
{
    return opts.epsilon > 0 ? opts.epsilon : 1e-7;
}

bool
cacheable(const ir::Circuit &sub, const ResynthOptions &opts)
{
    return sub.numQubits() >= 1 && sub.numQubits() <= opts.maxQubits &&
           sub.numQubits() <= sim::kMaxUnitaryQubits;
}

} // namespace

void
SynthService::configurePool(int workers, std::size_t queue_capacity)
{
    support::MutexLock lock(poolMutex_);
    pool_ = std::make_unique<Pool>(workers, queue_capacity);
}

long
SynthService::poolQueuePeak() const
{
    support::MutexLock lock(poolMutex_);
    return pool_ ? static_cast<long>(pool_->queuePeak()) : 0;
}

SynthOutcome
SynthService::resynthesize(const ir::Circuit &sub,
                           const ResynthOptions &opts, support::Rng &rng)
{
    SynthOutcome out;
    if (!cacheEnabled_.load()) {
        // Pass-through: the caller's stream advances exactly as it
        // did before the service existed (bit-for-bit legacy).
        out.result = synth::resynthesize(sub, opts, rng);
        return out;
    }
    // Exactly one parent draw per request, hit or miss, so cold and
    // warm runs see identical parent streams.
    support::Rng child = rng.fork();
    if (!cacheable(sub, opts)) {
        out.result = synth::resynthesize(sub, opts, child);
        return out;
    }
    const linalg::ComplexMatrix u = sim::circuitUnitary(sub);
    const CacheKey key = makeCacheKey(u, sub.numQubits(), opts);
    CacheEntry entry;
    if (cache_.lookup(key, &entry)) {
        if (!entry.success) {
            // Replayed failure: warm runs retrace cold-run dead ends.
            out.cacheHit = true;
            return out;
        }
        const double eps = effectiveEpsilon(opts);
        // A hit must never loosen the bound: re-validate the stored
        // circuit against THIS request's unitary and ε. Rejection
        // (hash collision, looser tier-mate) degrades to a miss.
        if (entry.distance <= eps &&
            linalg::hsDistance(u, sim::circuitUnitary(entry.circuit)) <=
                eps) {
            out.cacheHit = true;
            out.result.success = true;
            out.result.circuit = entry.circuit;
            // Charge the distance the cold run charged, exactly.
            out.result.distance = entry.distance;
            return out;
        }
    }
    out.cacheMiss = true;
    out.result = synth::resynthesize(sub, opts, child);
    CacheEntry stored;
    stored.success = out.result.success;
    if (out.result.success) {
        stored.circuit = out.result.circuit;
        stored.distance = out.result.distance;
    }
    out.cacheStore = cache_.store(key, std::move(stored));
    return out;
}

std::optional<std::future<SynthOutcome>>
SynthService::submit(ir::Circuit sub, ResynthOptions opts,
                     support::Rng rng)
{
    auto task = std::make_shared<std::packaged_task<SynthOutcome()>>(
        [this, sub = std::move(sub), opts, rng]() mutable {
            return resynthesize(sub, opts, rng);
        });
    std::future<SynthOutcome> fut = task->get_future();
    support::MutexLock lock(poolMutex_);
    if (!pool_)
        pool_ = std::make_unique<Pool>(Pool::defaultWorkers());
    if (!pool_->trySubmit([task] { (*task)(); }))
        return std::nullopt;
    return fut;
}

std::string
SynthService::cacheFilePath(const std::string &dir)
{
    return dir + "/synth-cache.txt";
}

bool
SynthService::loadCacheDir(const std::string &dir, std::string *err)
{
    enableCache(true);
    return cache_.load(cacheFilePath(dir), err);
}

bool
SynthService::saveCacheDir(const std::string &dir, std::string *err) const
{
    // Best-effort mkdir -p; a real failure surfaces in cache_.save().
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return cache_.save(cacheFilePath(dir), err);
}

SynthService &
SynthService::global()
{
    // Leaked on purpose: pool worker threads may still be parked in
    // cv.wait at exit, and destruction order vs. other statics is
    // otherwise fraught.
    static SynthService *instance = new SynthService;
    return *instance;
}

} // namespace synth
} // namespace guoq
