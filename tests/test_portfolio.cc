/** @file Tests for the parallel portfolio optimizer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/portfolio.h"
#include "support/timer.h"
#include "sim/unitary_sim.h"
#include "synth/service.h"
#include "tests/test_util.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"

namespace guoq {
namespace {

core::PortfolioConfig
iterConfig(int threads, long iterations, double eps = 0)
{
    core::PortfolioConfig cfg;
    cfg.threads = threads;
    cfg.base.epsilonTotal = eps;
    cfg.base.timeBudgetSeconds = 60.0;
    cfg.base.maxIterations = iterations;
    cfg.base.seed = 11;
    return cfg;
}

ir::Circuit
testCircuit(std::uint64_t seed = 1, int gates = 30)
{
    support::Rng rng(seed);
    return testutil::randomNativeCircuit(ir::GateSetKind::Nam, 4, gates,
                                         rng);
}

TEST(Portfolio, SingleThreadReproducesOptimizeExactly)
{
    const ir::Circuit c = testCircuit();
    const core::PortfolioConfig cfg = iterConfig(1, 300);
    const core::OptimizeReport p =
        core::optimizePortfolio(c, ir::GateSetKind::Nam, cfg);
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Nam, cfg.base);
    EXPECT_EQ(p.circuit.toString(), r.best.toString());
    EXPECT_EQ(p.errorBound, r.errorBound);
    EXPECT_EQ(p.stats.iterations, r.stats.iterations);
    EXPECT_EQ(p.stats.accepted, r.stats.accepted);
    EXPECT_EQ(p.stats.rejected, r.stats.rejected);
    ASSERT_EQ(p.workers.size(), 1u);
    EXPECT_EQ(p.workers[0].seed, cfg.base.seed);
}

TEST(Portfolio, NeverWorseThanAnySingleSeed)
{
    const ir::Circuit c = testCircuit(2, 40);
    const core::CostFunction cost(core::Objective::TwoQubitCount,
                                  ir::GateSetKind::Nam);
    const int threads = 4;
    const core::PortfolioConfig cfg = iterConfig(threads, 200);
    const core::OptimizeReport p =
        core::optimizePortfolio(c, ir::GateSetKind::Nam, cfg);

    // Each worker's single-seed run, replayed serially.
    double worst = 0;
    for (int w = 0; w < threads; ++w) {
        core::GuoqConfig single = cfg.base;
        single.seed = core::portfolioWorkerSeed(cfg.base.seed, w);
        const core::GuoqResult r =
            core::optimize(c, ir::GateSetKind::Nam, single);
        worst = std::max(worst, cost(r.best));
    }
    EXPECT_LE(p.cost, worst);
    EXPECT_LE(p.cost, cost(c));
    EXPECT_EQ(cost(p.circuit), p.cost);
}

TEST(Portfolio, MergedStatsSumPerWorkerIterations)
{
    const ir::Circuit c = testCircuit(3);
    const int threads = 3;
    const long iterations = 150;
    // Asynchronous resynthesis through a cache-enabled service, so the
    // cache and pool counters are live alongside the search counters.
    synth::SynthService service;
    service.enableCache(true);
    core::PortfolioConfig cfg = iterConfig(threads, iterations, 1e-5);
    cfg.base.resynthProbability = 0.1;
    cfg.base.maxSubcircuitQubits = 2;
    cfg.base.synthWorkers = 1;
    cfg.base.synthService = &service;
    const core::OptimizeReport p =
        core::optimizePortfolio(c, ir::GateSetKind::Nam, cfg);
    ASSERT_EQ(p.workers.size(), static_cast<std::size_t>(threads));

    // Every merged counter is the sum over the workers; the pool's
    // queue peak is their maximum.
    core::GuoqStats sum;
    for (const core::PortfolioWorkerReport &w : p.workers) {
        EXPECT_EQ(w.stats.iterations, iterations);
        sum.iterations += w.stats.iterations;
        sum.accepted += w.stats.accepted;
        sum.uphillAccepted += w.stats.uphillAccepted;
        sum.rejected += w.stats.rejected;
        sum.noops += w.stats.noops;
        sum.budgetSkips += w.stats.budgetSkips;
        sum.resynthCalls += w.stats.resynthCalls;
        sum.resynthAccepted += w.stats.resynthAccepted;
        sum.rewriteApplications += w.stats.rewriteApplications;
        sum.synthCache.hits += w.stats.synthCache.hits;
        sum.synthCache.misses += w.stats.synthCache.misses;
        sum.synthCache.stores += w.stats.synthCache.stores;
        sum.poolQueuePeak =
            std::max(sum.poolQueuePeak, w.stats.poolQueuePeak);
    }
    EXPECT_EQ(p.stats.iterations, sum.iterations);
    EXPECT_EQ(p.stats.iterations, threads * iterations);
    EXPECT_EQ(p.stats.accepted, sum.accepted);
    EXPECT_EQ(p.stats.uphillAccepted, sum.uphillAccepted);
    EXPECT_EQ(p.stats.rejected, sum.rejected);
    EXPECT_EQ(p.stats.noops, sum.noops);
    EXPECT_EQ(p.stats.budgetSkips, sum.budgetSkips);
    EXPECT_EQ(p.stats.resynthCalls, sum.resynthCalls);
    EXPECT_EQ(p.stats.resynthAccepted, sum.resynthAccepted);
    EXPECT_EQ(p.stats.rewriteApplications, sum.rewriteApplications);
    EXPECT_EQ(p.stats.synthCache.hits, sum.synthCache.hits);
    EXPECT_EQ(p.stats.synthCache.misses, sum.synthCache.misses);
    EXPECT_EQ(p.stats.synthCache.stores, sum.synthCache.stores);
    EXPECT_EQ(p.stats.poolQueuePeak, sum.poolQueuePeak);
    // The run exercised what it claims to.
    EXPECT_GT(sum.accepted, 0);
    EXPECT_GT(sum.rewriteApplications, 0);
    EXPECT_GT(sum.resynthCalls, 0);
    EXPECT_GT(sum.synthCache.misses, 0);
    EXPECT_GT(sum.synthCache.stores, 0);
    EXPECT_GE(sum.poolQueuePeak, 1);
}

TEST(Portfolio, ExposesPerWorkerWallTimeAndSingleThreadTrace)
{
    const ir::Circuit c = testCircuit();

    // threads == 1: the single optimize() run's trace passes through,
    // and the one worker reports its wall time.
    core::PortfolioConfig cfg = iterConfig(1, 200);
    cfg.base.recordTrace = true;
    const core::OptimizeReport p =
        core::optimizePortfolio(c, ir::GateSetKind::Nam, cfg);
    EXPECT_FALSE(p.trace.empty());
    ASSERT_EQ(p.workers.size(), 1u);
    EXPECT_GE(p.workers[0].wallSeconds, 0.0);

    // threads > 1: every worker reports a wall time, and the per-
    // worker traces merge into one portfolio-level trajectory (see
    // MultiWorkerTraceIsMergedAndMonotone).
    core::PortfolioConfig multi = iterConfig(3, 100);
    multi.base.recordTrace = true;
    const core::OptimizeReport q =
        core::optimizePortfolio(c, ir::GateSetKind::Nam, multi);
    EXPECT_FALSE(q.trace.empty());
    ASSERT_EQ(q.workers.size(), 3u);
    for (const core::PortfolioWorkerReport &w : q.workers)
        EXPECT_GE(w.wallSeconds, 0.0);
}

TEST(Portfolio, MultiWorkerTraceIsMergedAndMonotone)
{
    const ir::Circuit c = testCircuit(6, 40);
    const core::CostFunction cost(core::Objective::TwoQubitCount,
                                  ir::GateSetKind::Nam);
    core::PortfolioConfig cfg = iterConfig(3, 250);
    cfg.base.recordTrace = true;
    const core::OptimizeReport p =
        core::optimizePortfolio(c, ir::GateSetKind::Nam, cfg);

    // The merged trace starts at the input circuit at t = 0 and every
    // later point is a strict portfolio-wide improvement, time-sorted.
    ASSERT_FALSE(p.trace.empty());
    EXPECT_DOUBLE_EQ(p.trace.front().cost, cost(c));
    EXPECT_DOUBLE_EQ(p.trace.front().seconds, 0.0);
    EXPECT_EQ(p.trace.front().gateCount, c.gateCount());
    for (std::size_t i = 1; i < p.trace.size(); ++i) {
        EXPECT_LT(p.trace[i].cost, p.trace[i - 1].cost);
        EXPECT_GE(p.trace[i].seconds, p.trace[i - 1].seconds);
    }
    // The trajectory ends at the returned best cost.
    EXPECT_DOUBLE_EQ(p.trace.back().cost, p.cost);
}

TEST(Portfolio, HighThreadCountStressKeepsInvariants)
{
    // Satellite of the epoch/atomic fast-path rework: at threads >= 8
    // the sliced time-budget exchange must still uphold every result
    // invariant (monotone global best, per-worker consistency, eps
    // accounting).
    const ir::Circuit c = testCircuit(7, 60);
    const double eps = 1e-5;
    const core::CostFunction cost(core::Objective::TwoQubitCount,
                                  ir::GateSetKind::Nam);
    core::PortfolioConfig cfg;
    cfg.threads = 8;
    cfg.base.epsilonTotal = eps;
    cfg.base.timeBudgetSeconds = 1.0;
    cfg.syncIntervalSeconds = 0.05; // many exchanges, small slices
    cfg.base.seed = 23;
    support::Timer timer;
    const core::OptimizeReport p =
        core::optimizePortfolio(c, ir::GateSetKind::Nam, cfg);
    EXPECT_LT(timer.seconds(), 30.0);

    EXPECT_DOUBLE_EQ(cost(p.circuit), p.cost);
    EXPECT_LE(p.cost, cost(c));
    EXPECT_LE(p.errorBound, eps);
    ASSERT_EQ(p.workers.size(), 8u);
    long total_iterations = 0;
    for (const core::PortfolioWorkerReport &w : p.workers) {
        // The global best is at least as good as what every worker
        // ended with (each worker offers its final circuit).
        EXPECT_GE(w.finalCost, p.cost);
        EXPECT_LE(w.errorBound, eps);
        total_iterations += w.stats.iterations;
    }
    EXPECT_EQ(p.stats.iterations, total_iterations);
    EXPECT_GT(p.stats.iterations, 0);
}

TEST(Portfolio, WorkerSeedsAreDistinctAndStable)
{
    std::set<std::uint64_t> seeds;
    for (int w = 0; w < 16; ++w)
        seeds.insert(core::portfolioWorkerSeed(42, w));
    EXPECT_EQ(seeds.size(), 16u);
    EXPECT_EQ(core::portfolioWorkerSeed(42, 0), 42u);
    EXPECT_EQ(core::portfolioWorkerSeed(42, 5),
              core::portfolioWorkerSeed(42, 5));
}

TEST(Portfolio, RespectsEpsilonBudgetAcrossWorkers)
{
    const ir::Circuit c = testCircuit(4, 35);
    const double eps = 1e-5;
    core::PortfolioConfig cfg = iterConfig(3, 300, eps);
    const core::OptimizeReport p =
        core::optimizePortfolio(c, ir::GateSetKind::Nam, cfg);
    EXPECT_LE(p.errorBound, eps);
    EXPECT_LE(sim::circuitDistance(c, p.circuit), eps + testutil::kExact);
    for (const core::PortfolioWorkerReport &w : p.workers)
        EXPECT_LE(w.errorBound, eps);
}

TEST(Portfolio, TimeBudgetModeFinishesAndImproves)
{
    // Sliced time-budget mode with best-exchange on: finishes inside
    // the wall-clock budget and never returns worse than the input.
    ir::Circuit c(2);
    for (int i = 0; i < 4; ++i)
        c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    c.x(1);
    c.x(1);
    core::PortfolioConfig cfg;
    cfg.threads = 2;
    cfg.base.timeBudgetSeconds = 1.0;
    cfg.syncIntervalSeconds = 0.2;
    cfg.base.seed = 7;
    support::Timer timer;
    const core::OptimizeReport p =
        core::optimizePortfolio(c, ir::GateSetKind::Nam, cfg);
    EXPECT_LT(timer.seconds(), 10.0);
    EXPECT_EQ(p.circuit.size(), 0u);
    EXPECT_EQ(p.errorBound, 0.0);
    EXPECT_GT(p.stats.iterations, 0);
}

} // namespace
} // namespace guoq
