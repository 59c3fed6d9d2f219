/**
 * @file
 * Tests for the content-addressed synthesis cache, the worker pool,
 * and the SynthService seam: key canonicalization (global phase, gate
 * set, ε tier), persistent-tier robustness, the RNG fork discipline,
 * hit revalidation against the request's ε, warm-run replay, and the
 * bit-for-bit legacy pin of core::optimize() with the cache off.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/guoq.h"
#include "linalg/unitary.h"
#include "sim/unitary_sim.h"
#include "synth/cache.h"
#include "synth/pool.h"
#include "synth/service.h"
#include "tests/test_util.h"

namespace guoq {
namespace {

synth::ResynthOptions
optionsFor(ir::GateSetKind set, double eps = 1e-6)
{
    synth::ResynthOptions o;
    o.targetSet = set;
    o.epsilon = eps;
    o.deadline = support::Deadline::in(30);
    return o;
}

// --- ε tiers ---------------------------------------------------------

TEST(SynthCacheKey, EpsilonTierBucketsQuarterDecades)
{
    // Same quarter-decade shares a tier; a decade apart never does.
    EXPECT_EQ(synth::epsilonTier(1e-5), synth::epsilonTier(1.2e-5));
    EXPECT_NE(synth::epsilonTier(1e-5), synth::epsilonTier(1e-6));
    EXPECT_NE(synth::epsilonTier(1e-5), synth::epsilonTier(1e-4));
    // Non-positive ε (exact synthesis) gets its own sentinel tier.
    EXPECT_EQ(synth::epsilonTier(0), synth::epsilonTier(-1));
    EXPECT_NE(synth::epsilonTier(0), synth::epsilonTier(1e-7));
}

// --- canonical unitary hash ------------------------------------------

TEST(SynthCacheKey, CollidesUpToGlobalPhase)
{
    // z and rz(π) differ exactly by the global phase -i.
    ir::Circuit a(1);
    a.z(0);
    ir::Circuit b(1);
    b.rz(M_PI, 0);
    const linalg::ComplexMatrix ua = sim::circuitUnitary(a);
    const linalg::ComplexMatrix ub = sim::circuitUnitary(b);
    ASSERT_TRUE(linalg::equalUpToGlobalPhase(ua, ub, 1e-9));
    EXPECT_EQ(synth::canonicalUnitaryHash(ua),
              synth::canonicalUnitaryHash(ub));

    const synth::ResynthOptions opts = optionsFor(ir::GateSetKind::Nam);
    EXPECT_EQ(synth::makeCacheKey(ua, 1, opts),
              synth::makeCacheKey(ub, 1, opts));
}

TEST(SynthCacheKey, SeparatesDifferentUnitaries)
{
    ir::Circuit a(1);
    a.x(0);
    ir::Circuit b(1);
    b.z(0);
    EXPECT_NE(synth::canonicalUnitaryHash(sim::circuitUnitary(a)),
              synth::canonicalUnitaryHash(sim::circuitUnitary(b)));
}

TEST(SynthCacheKey, SeparatesGateSetAndEpsilonTier)
{
    ir::Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const linalg::ComplexMatrix u = sim::circuitUnitary(c);

    const synth::CacheKey nam =
        synth::makeCacheKey(u, 2, optionsFor(ir::GateSetKind::Nam));
    const synth::CacheKey ionq =
        synth::makeCacheKey(u, 2, optionsFor(ir::GateSetKind::IonQ));
    EXPECT_NE(nam, ionq);

    const synth::CacheKey loose = synth::makeCacheKey(
        u, 2, optionsFor(ir::GateSetKind::Nam, 1e-4));
    EXPECT_NE(nam, loose);

    synth::ResynthOptions caps = optionsFor(ir::GateSetKind::Nam);
    caps.maxEntanglers = 4;
    EXPECT_NE(nam, synth::makeCacheKey(u, 2, caps));
}

// --- in-memory map ---------------------------------------------------

TEST(SynthCache, StoreIsFirstWriteWins)
{
    synth::SynthCache cache;
    ir::Circuit c(1);
    c.x(0);
    const synth::CacheKey key = synth::makeCacheKey(
        sim::circuitUnitary(c), 1, optionsFor(ir::GateSetKind::Nam));

    synth::CacheEntry first;
    first.success = true;
    first.circuit = c;
    first.distance = 0.25;
    EXPECT_TRUE(cache.store(key, first));
    EXPECT_EQ(cache.size(), 1u);

    synth::CacheEntry second;
    second.success = false;
    EXPECT_FALSE(cache.store(key, second));

    synth::CacheEntry out;
    ASSERT_TRUE(cache.lookup(key, &out));
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.distance, 0.25);
    EXPECT_EQ(out.circuit.gates(), c.gates());

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.lookup(key, &out));
}

// --- persistent tier -------------------------------------------------

std::string
tempCachePath(const char *name)
{
    return testing::TempDir() + name;
}

synth::CacheKey
persistKey(double angle, double eps = 1e-5)
{
    ir::Circuit c(2);
    c.rz(angle, 0);
    c.cx(0, 1);
    return synth::makeCacheKey(sim::circuitUnitary(c), 2,
                               optionsFor(ir::GateSetKind::Nam, eps));
}

TEST(SynthCachePersist, RoundTripsExactly)
{
    synth::SynthCache cache;
    // An irrational angle and distance: %.17g must round-trip the
    // exact doubles or warm runs could diverge bit-for-bit.
    ir::Circuit stored(2);
    stored.rz(0.1234567890123456789, 1);
    stored.cx(1, 0);
    synth::CacheEntry entry;
    entry.success = true;
    entry.circuit = stored;
    entry.distance = 3.141592653589793e-7;
    const synth::CacheKey key = persistKey(0.7);
    cache.store(key, entry);

    synth::CacheEntry failure; // negative entries persist too
    const synth::CacheKey fkey = persistKey(0.9);
    cache.store(fkey, failure);

    const std::string path = tempCachePath("synth_cache_roundtrip.txt");
    std::string err;
    ASSERT_TRUE(cache.save(path, &err)) << err;

    synth::SynthCache loaded;
    ASSERT_TRUE(loaded.load(path, &err)) << err;
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(loaded.size(), 2u);

    synth::CacheEntry out;
    ASSERT_TRUE(loaded.lookup(key, &out));
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.distance, entry.distance); // bitwise, not approx
    ASSERT_EQ(out.circuit.gates().size(), stored.gates().size());
    EXPECT_EQ(out.circuit.gates()[0].params[0],
              stored.gates()[0].params[0]);
    EXPECT_EQ(out.circuit.gates(), stored.gates());

    ASSERT_TRUE(loaded.lookup(fkey, &out));
    EXPECT_FALSE(out.success);
}

TEST(SynthCachePersist, ToleratesTruncation)
{
    synth::SynthCache cache;
    synth::CacheEntry entry;
    entry.success = true;
    ir::Circuit stored(2);
    stored.cx(0, 1);
    stored.h(0);
    entry.circuit = stored;
    entry.distance = 0;
    cache.store(persistKey(0.1), entry);
    cache.store(persistKey(0.2), entry);

    const std::string path = tempCachePath("synth_cache_truncated.txt");
    ASSERT_TRUE(cache.save(path));

    // Chop the file mid-record: the loader must keep the clean prefix
    // and never crash (Circuit::add panics are pre-filtered).
    std::ifstream in(path);
    std::stringstream whole;
    whole << in.rdbuf();
    in.close();
    const std::string text = whole.str();
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() - text.size() / 3);
    out.close();

    synth::SynthCache loaded;
    std::string err;
    EXPECT_TRUE(loaded.load(path, &err));
    EXPECT_LT(loaded.size(), 2u);
}

TEST(SynthCachePersist, ToleratesCorruptedRecords)
{
    const std::string path = tempCachePath("synth_cache_corrupt.txt");
    std::ofstream out(path, std::ios::trunc);
    out << synth::SynthCache::kFileMagic << "\n";
    // Bad gate-set name, bad qubit index, and plain garbage — none
    // may crash the loader.
    out << "entry 1 not-a-set 0 2 3 10 24 1 0 0\n";
    out << "entry 2 nam 0 2 3 10 24 1 0 1\n";
    out << "gate cx 0 7\n"; // qubit out of range for 2 qubits
    out << "entry 3 nam 0 2 3 10 24 1 0 1\n";
    out << "gate cx 1 1\n"; // repeated qubit
    out << "complete garbage line\n";
    out.close();

    synth::SynthCache loaded;
    std::string err;
    EXPECT_TRUE(loaded.load(path, &err));
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_FALSE(err.empty());
}

TEST(SynthCachePersist, IgnoresVersionMismatch)
{
    const std::string path = tempCachePath("synth_cache_version.txt");
    std::ofstream out(path, std::ios::trunc);
    out << "guoq-synth-cache-v999\n";
    out << "entry 1 nam 0 2 3 10 24 0 1 0\n";
    out.close();

    synth::SynthCache loaded;
    std::string err;
    EXPECT_FALSE(loaded.load(path, &err));
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_FALSE(err.empty());
}

TEST(SynthCachePersist, MissingFileLoadsNothing)
{
    synth::SynthCache loaded;
    std::string err;
    EXPECT_TRUE(
        loaded.load(tempCachePath("synth_cache_missing.txt"), &err));
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_TRUE(err.empty());
}

// --- worker pool -----------------------------------------------------

TEST(SynthPool, RunsTasksAndBoundsQueue)
{
    std::atomic<int> ran{0};
    std::atomic<int> started{0};
    std::mutex m;
    std::condition_variable cv;
    bool go = false;
    auto blocker = [&] {
        ++started;
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return go; });
        ++ran;
    };
    auto quick = [&] { ++ran; };
    {
        synth::Pool pool(2, 2);
        EXPECT_EQ(pool.workers(), 2);
        ASSERT_TRUE(pool.trySubmit(blocker));
        ASSERT_TRUE(pool.trySubmit(blocker));
        while (started.load() < 2)
            std::this_thread::yield();
        // Both workers parked: the next two fill the bounded queue,
        // the third must be refused, not queued.
        EXPECT_TRUE(pool.trySubmit(quick));
        EXPECT_TRUE(pool.trySubmit(quick));
        EXPECT_FALSE(pool.trySubmit(quick));
        EXPECT_GE(pool.queuePeak(), 2u);
        {
            std::lock_guard<std::mutex> lock(m);
            go = true;
        }
        cv.notify_all();
    } // destructor drains the queue, then joins
    EXPECT_EQ(ran.load(), 4);
}

// --- service: determinism contract -----------------------------------

TEST(SynthService, CacheDisabledIsBitForBitPassThrough)
{
    ir::Circuit sub(2);
    sub.cx(0, 1);
    sub.cx(0, 1);
    sub.t(0);
    const synth::ResynthOptions opts =
        optionsFor(ir::GateSetKind::Nam, 1e-6);

    support::Rng direct_rng(7);
    const synth::ResynthResult direct =
        synth::resynthesize(sub, opts, direct_rng);

    synth::SynthService service; // cache off by default
    support::Rng service_rng(7);
    const synth::SynthOutcome so =
        service.resynthesize(sub, opts, service_rng);

    EXPECT_FALSE(so.cacheHit);
    EXPECT_FALSE(so.cacheMiss);
    EXPECT_EQ(so.result.success, direct.success);
    EXPECT_EQ(so.result.distance, direct.distance);
    EXPECT_EQ(so.result.circuit.gates(), direct.circuit.gates());
    // The caller's RNG stream advanced identically.
    EXPECT_EQ(direct_rng(), service_rng());

    // The async path, on a service no configurePool call has sized:
    // the first submit creates the pool, and the outcome is the same.
    auto fut = service.submit(sub, opts, support::Rng(7));
    ASSERT_TRUE(fut.has_value());
    const synth::SynthOutcome async = fut->get();
    EXPECT_EQ(async.result.success, direct.success);
    EXPECT_EQ(async.result.distance, direct.distance);
    EXPECT_EQ(async.result.circuit.gates(), direct.circuit.gates());
    EXPECT_GE(service.poolQueuePeak(), 1);
}

TEST(SynthService, ConsumesOneForkPerRequestHitOrMiss)
{
    ir::Circuit sub(2);
    sub.cx(0, 1);
    sub.cx(0, 1);
    const synth::ResynthOptions opts =
        optionsFor(ir::GateSetKind::Nam, 1e-6);

    synth::SynthService cold;
    cold.enableCache(true);
    synth::SynthService warm;
    warm.enableCache(true);
    synth::SynthOutcome stored;
    {
        support::Rng prewarm(99);
        stored = warm.resynthesize(sub, opts, prewarm);
        ASSERT_TRUE(stored.cacheMiss);
    }

    support::Rng cold_rng(21);
    support::Rng warm_rng(21);
    const synth::SynthOutcome miss =
        cold.resynthesize(sub, opts, cold_rng);
    const synth::SynthOutcome hit =
        warm.resynthesize(sub, opts, warm_rng);
    EXPECT_TRUE(miss.cacheMiss);
    EXPECT_TRUE(hit.cacheHit);
    // Hit or miss, the parent stream is charged exactly one fork, so
    // cold and warm trajectories stay aligned.
    EXPECT_EQ(cold_rng(), warm_rng());
    // And the hit serves exactly what the earlier miss stored.
    EXPECT_EQ(hit.result.success, stored.result.success);
    EXPECT_EQ(hit.result.distance, stored.result.distance);
    EXPECT_EQ(hit.result.circuit.gates(),
              stored.result.circuit.gates());
}

TEST(SynthService, HitRevalidatesStoredCircuitAgainstRequest)
{
    // Poison the cache with an entry whose circuit does NOT implement
    // the requested unitary (as a hash collision would): the hit must
    // be rejected and recomputed, never served.
    ir::Circuit sub(2);
    sub.cx(0, 1);
    sub.cx(0, 1); // identity
    const synth::ResynthOptions opts =
        optionsFor(ir::GateSetKind::Nam, 1e-6);
    const synth::CacheKey key =
        synth::makeCacheKey(sim::circuitUnitary(sub), 2, opts);

    synth::SynthService service;
    service.enableCache(true);
    synth::CacheEntry poison;
    poison.success = true;
    poison.distance = 0; // lies: the circuit is far from identity
    poison.circuit = ir::Circuit(2);
    poison.circuit.x(0);
    service.cache().store(key, poison);

    support::Rng rng(5);
    const synth::SynthOutcome so = service.resynthesize(sub, opts, rng);
    EXPECT_TRUE(so.cacheMiss);
    EXPECT_FALSE(so.cacheHit);
    ASSERT_TRUE(so.result.success);
    EXPECT_LE(so.result.distance, 1e-6);
    EXPECT_LE(linalg::hsDistance(
                  sim::circuitUnitary(sub),
                  sim::circuitUnitary(so.result.circuit)),
              1e-6);
}

TEST(SynthService, HitNeverLoosensTheErrorBound)
{
    // A stored distance above the request's ε must degrade to a miss
    // even when the circuit itself is fine.
    ir::Circuit sub(2);
    sub.cx(0, 1);
    sub.cx(0, 1);
    const synth::ResynthOptions opts =
        optionsFor(ir::GateSetKind::Nam, 1e-6);
    const synth::CacheKey key =
        synth::makeCacheKey(sim::circuitUnitary(sub), 2, opts);

    synth::SynthService service;
    service.enableCache(true);
    synth::CacheEntry loose;
    loose.success = true;
    loose.distance = 0.5; // way past any ε in this tier
    loose.circuit = sub;
    service.cache().store(key, loose);

    support::Rng rng(6);
    const synth::SynthOutcome so = service.resynthesize(sub, opts, rng);
    EXPECT_TRUE(so.cacheMiss);
    ASSERT_TRUE(so.result.success);
    EXPECT_LE(so.result.distance, 1e-6);
}

// --- end-to-end determinism through core::optimize() -----------------

core::GuoqConfig
cacheRunConfig(synth::SynthService *service)
{
    core::GuoqConfig cfg;
    cfg.epsilonTotal = 1e-5;
    cfg.timeBudgetSeconds = 1e6; // iteration cap decides, not wall
    cfg.maxIterations = 600;
    cfg.seed = 12345;
    cfg.resynthProbability = 0.05;
    cfg.resynthCallSeconds = 1e6;
    cfg.synthService = service;
    return cfg;
}

ir::Circuit
cacheRunInput()
{
    support::Rng gen(42);
    return testutil::randomNativeCircuit(ir::GateSetKind::CliffordT, 3,
                                         28, gen);
}

TEST(SynthService, WarmRunReplaysColdRunByteForByte)
{
    const ir::Circuit c = cacheRunInput();
    synth::SynthService service;
    service.enableCache(true);

    const core::GuoqResult cold = core::optimize(
        c, ir::GateSetKind::CliffordT, cacheRunConfig(&service));
    const core::GuoqResult warm = core::optimize(
        c, ir::GateSetKind::CliffordT, cacheRunConfig(&service));

    EXPECT_EQ(warm.best.toString(), cold.best.toString());
    EXPECT_EQ(warm.errorBound, cold.errorBound);
    EXPECT_EQ(warm.stats.iterations, cold.stats.iterations);
    EXPECT_EQ(warm.stats.accepted, cold.stats.accepted);
    ASSERT_GT(cold.stats.synthCache.misses, 0);
    EXPECT_GT(warm.stats.synthCache.hits, 0);
    // The acceptance criterion: >= 2x fewer synthesizer searches warm.
    EXPECT_LE(warm.stats.synthCache.misses * 2,
              cold.stats.synthCache.misses);
}

TEST(SynthService, PersistentTierWarmStartsAcrossServices)
{
    const ir::Circuit c = cacheRunInput();
    const std::string dir = testing::TempDir() + "guoq_synth_cache_dir";

    synth::SynthService first;
    first.enableCache(true);
    const core::GuoqResult cold = core::optimize(
        c, ir::GateSetKind::CliffordT, cacheRunConfig(&first));
    std::string err;
    ASSERT_TRUE(first.saveCacheDir(dir, &err)) << err;

    synth::SynthService second;
    ASSERT_TRUE(second.loadCacheDir(dir, &err)) << err;
    EXPECT_TRUE(second.cacheEnabled());
    EXPECT_EQ(second.cache().size(), first.cache().size());
    const core::GuoqResult warm = core::optimize(
        c, ir::GateSetKind::CliffordT, cacheRunConfig(&second));

    // The persisted tier replays the in-memory run exactly: %.17g
    // round-trips every angle and distance bit-for-bit.
    EXPECT_EQ(warm.best.toString(), cold.best.toString());
    EXPECT_EQ(warm.errorBound, cold.errorBound);
    EXPECT_GT(warm.stats.synthCache.hits, 0);
    EXPECT_LE(warm.stats.synthCache.misses * 2,
              cold.stats.synthCache.misses);
}

// --- the legacy pin --------------------------------------------------

// Captured from the pre-cache core::optimize() on this exact input
// and configuration (CliffordT synthesis is iteration-bounded, so the
// trajectory is machine-independent). Any RNG-stream or control-flow
// change in the cache-off path shows up here as a diff.
constexpr const char *kLegacyBest = "circuit(3 qubits, 17 gates)\n"
                                    "  s q0\n"
                                    "  h q0\n"
                                    "  s q0\n"
                                    "  cx q1, q0\n"
                                    "  cx q0, q1\n"
                                    "  cx q1, q0\n"
                                    "  x q1\n"
                                    "  x q0\n"
                                    "  cx q2, q0\n"
                                    "  tdg q2\n"
                                    "  h q0\n"
                                    "  cx q0, q2\n"
                                    "  cx q1, q2\n"
                                    "  tdg q0\n"
                                    "  s q0\n"
                                    "  s q1\n"
                                    "  x q2\n";

TEST(SynthService, CacheOffSingleThreadPinsLegacyTrajectory)
{
    const ir::Circuit c = cacheRunInput();
    synth::SynthService service; // cache off: pure pass-through

    core::GuoqConfig cfg;
    cfg.epsilonTotal = 1e-5;
    cfg.timeBudgetSeconds = 1e6;
    cfg.maxIterations = 400;
    cfg.seed = 12345;
    cfg.resynthCallSeconds = 1e6;
    cfg.synthService = &service;
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::CliffordT, cfg);

    EXPECT_EQ(r.best.toString(), kLegacyBest);
    EXPECT_EQ(r.errorBound, 1.4901161193847656e-08);
    EXPECT_EQ(r.stats.iterations, 400);
    EXPECT_EQ(r.stats.accepted, 53);
    EXPECT_EQ(r.stats.uphillAccepted, 0);
    EXPECT_EQ(r.stats.rejected, 0);
    EXPECT_EQ(r.stats.noops, 347);
    EXPECT_EQ(r.stats.budgetSkips, 0);
    EXPECT_EQ(r.stats.resynthCalls, 8);
    EXPECT_EQ(r.stats.resynthAccepted, 1);
    EXPECT_EQ(r.stats.rewriteApplications, 52);
    EXPECT_EQ(r.stats.synthCache.hits, 0);
    EXPECT_EQ(r.stats.synthCache.misses, 0);
    EXPECT_EQ(r.stats.synthCache.stores, 0);
}

} // namespace
} // namespace guoq
