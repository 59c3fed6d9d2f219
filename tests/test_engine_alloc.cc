/**
 * @file
 * The ε = 0 loop allocates nothing once warm. This binary replaces the
 * global operator new to count calls, so the count covers every
 * allocation the engine makes: rule passes (preparePassRandom,
 * commit, discard) and fusion probes (prepareFusion) on a circuit that
 * does not grow must read 0 after a warm-up.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "support/rng.h"
#include "workloads/suite.h"

namespace {

std::atomic<long> g_allocations{0};

void *
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace guoq;

TEST(RewriteEngineAlloc, WarmPassesAndFusionProbesAllocateNothing)
{
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    const ir::Circuit *input = nullptr;
    const std::vector<workloads::Benchmark> suite = workloads::suiteFor(set);
    for (const workloads::Benchmark &b : suite)
        if (b.name == "barenco_tof_4")
            input = &b.circuit;
    ASSERT_NE(input, nullptr);
    const auto &rules = rewrite::rulesFor(set);
    rewrite::RewriteEngine engine{ir::Circuit(*input)};
    support::Rng rng(7);

    // One round of the ε = 0 loop's engine calls. A pass is committed
    // only when it does not grow the circuit; a fusion that fires is
    // committed only during the warm-up (@p warm), because committing
    // one builds the circuit whole. Returns true when a fusion fired.
    int commits = 0;
    auto round = [&](bool warm) {
        if (rng.chance(0.8)) {
            const rewrite::RewriteRule &rule =
                rules[rng.index(rules.size())];
            if (auto att = engine.preparePassRandom(rule, rng)) {
                if (att->counts.gates <= engine.counts().gates &&
                    rng.chance(0.7)) {
                    engine.commit();
                    ++commits;
                }
                else
                    engine.discard();
            }
            return false;
        }
        if (engine.prepareFusion(set)) {
            if (warm)
                engine.commit();
            else
                engine.discard();
            return true;
        }
        return false;
    };

    // Warm-up: every rule from every anchor once, then random rounds.
    for (const rewrite::RewriteRule &rule : rules)
        for (std::size_t a = 0; a < engine.circuit().size(); ++a)
            if (engine.preparePass(rule, a))
                engine.discard();
    for (int i = 0; i < 4000; ++i)
        round(true);
    engine.checkInvariants();

    const std::size_t gates_before = engine.counts().gates;
    int fired = 0;
    const long before = g_allocations.load();
    commits = 0;
    for (int i = 0; i < 4000; ++i)
        fired += round(false) ? 1 : 0;
    const long allocations = g_allocations.load() - before;

    EXPECT_EQ(allocations, 0);
    EXPECT_LE(engine.counts().gates, gates_before);
    engine.checkInvariants();
    // The measured rounds committed passes and probed fusion without
    // firing it.
    EXPECT_GT(commits, 0);
    EXPECT_EQ(fired, 0);
}

TEST(RewriteEngineAlloc, CounterSeesAllocations)
{
    const long before = g_allocations.load();
    auto *v = new std::vector<int>(16);
    delete v;
    EXPECT_GE(g_allocations.load() - before, 2);
}

} // namespace
