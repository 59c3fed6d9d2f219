/**
 * @file
 * The synthesis service: the single seam every resynthesis request
 * flows through. It composes the content-addressed cache (cache.h)
 * with the shared worker pool (pool.h) in front of the raw
 * resynthesize() front end, and is shared across portfolio workers.
 *
 * Determinism contract:
 *  - cache disabled: the caller's RNG is passed straight through, so
 *    the legacy core::optimize() stream is bit-for-bit unchanged;
 *  - cache enabled: the service consumes exactly one fork() from the
 *    caller's RNG per request — hit or miss — so a warm run replays
 *    the cold run's parent stream exactly;
 *  - a hit re-validates the stored circuit's HS distance against the
 *    request's ε before use, so it can never loosen the error bound.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "ir/circuit.h"
#include "support/mutex.h"
#include "support/rng.h"
#include "synth/cache.h"
#include "synth/pool.h"
#include "synth/resynth.h"

namespace guoq {
namespace synth {

/** Cache + pool front end for resynthesize(). */
class SynthService
{
  public:
    SynthService() = default;

    void enableCache(bool on) { cacheEnabled_.store(on); }
    bool cacheEnabled() const { return cacheEnabled_.load(); }
    SynthCache &cache() { return cache_; }

    /**
     * (Re)size the worker pool (at least one worker). Without this
     * call the pool is created on the first submit() with
     * Pool::defaultWorkers() workers. Not safe to call
     * while optimizer runs are in flight.
     */
    void configurePool(int workers, std::size_t queue_capacity = 64);

    /** The pool's queue high-water mark (0 while no pool exists). */
    long poolQueuePeak() const;

    /** Synchronous cache-aware resynthesis (see contract above). */
    SynthOutcome resynthesize(const ir::Circuit &sub,
                              const ResynthOptions &opts,
                              support::Rng &rng);

    /**
     * Asynchronous resynthesis on the worker pool. @p rng must already
     * be forked from the caller's stream. Returns nullopt when the
     * bounded queue is full — the request is dropped, not queued.
     */
    std::optional<std::future<SynthOutcome>>
    submit(ir::Circuit sub, ResynthOptions opts, support::Rng rng);

    /** Enable the cache and merge `<dir>`'s persistent tier into it. */
    bool loadCacheDir(const std::string &dir, std::string *err = nullptr);

    /** Persist the cache to `<dir>` (atomic rewrite). */
    bool saveCacheDir(const std::string &dir,
                      std::string *err = nullptr) const;

    static std::string cacheFilePath(const std::string &dir);

    /** The process-wide instance consumers default to. */
    static SynthService &global();

  private:
    std::atomic<bool> cacheEnabled_{false};
    SynthCache cache_;
    mutable support::Mutex poolMutex_;
    std::unique_ptr<Pool> pool_ GUARDED_BY(poolMutex_);
};

} // namespace synth
} // namespace guoq
