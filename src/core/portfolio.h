/**
 * @file
 * Parallel portfolio search: N independently-seeded GUOQ instances on
 * worker threads sharing one wall-clock budget.
 *
 * GUOQ is an anytime randomized search, so its solution quality scales
 * with independent restarts; the portfolio turns that into a multi-core
 * optimizer. Workers run core::optimize() in short slices, publish
 * improvements to a shared global best between slices, and adopt
 * the global best when another worker has pulled ahead. The behind-
 * the-best check runs lock-free against an atomic best-cost mirror
 * and a publication epoch; the mutex is taken only to copy circuits,
 * so the exchange scales to high thread counts. The returned
 * circuit still satisfies Thm. 5.3 (C ≡_{ε_f} best): every adopted
 * circuit carries its accumulated ε, and each slice only spends what
 * remains of the budget.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/guoq.h"
#include "ir/circuit.h"
#include "ir/derivation.h"
#include "ir/gate_set.h"
#include "verify/checker.h"

namespace guoq {
namespace core {

/** Configuration for a portfolio run. */
struct PortfolioConfig
{
    /**
     * Per-worker GUOQ configuration. `base.seed` seeds worker 0;
     * worker i > 0 derives an independent stream from it. The time and
     * iteration budgets are per worker (all workers run concurrently,
     * so `base.timeBudgetSeconds` is also the portfolio's wall-clock
     * budget). `base.hooks` is portfolio-aware: the cancellation token
     * is polled inside every worker's search loop and at slice
     * boundaries, and onBest fires (serialized, possibly from worker
     * threads) only for portfolio-wide best-cost improvements, stamped
     * with the finding worker and the portfolio clock.
     */
    GuoqConfig base;

    /** Worker thread count. 1 reduces to a plain core::optimize(). */
    int threads = 1;

    /**
     * Seconds between global-best exchanges. Workers slice their time
     * budget into intervals of this length and synchronize at slice
     * boundaries. Ignored in iteration-capped runs (maxIterations >=
     * 0), which run each worker as a single slice so results stay
     * reproducible.
     */
    double syncIntervalSeconds = 0.5;

    /**
     * When true (default), a worker whose current circuit is worse
     * than the global best abandons it and continues from the global
     * best. When false workers stay fully independent (pure restart
     * portfolio) and only the final reduction picks the winner.
     */
    bool exchangeBest = true;
};

/** Final state of one worker, for reporting and tests. */
struct PortfolioWorkerReport
{
    int worker = 0;
    std::uint64_t seed = 0;   //!< seed of the worker's first slice
    double finalCost = 0;     //!< cost of the worker's last circuit
    double errorBound = 0;    //!< accumulated ε of that circuit
    double wallSeconds = 0;   //!< worker wall-clock time, thread start
                              //!< to join (the benchmark emitters
                              //!< report per-worker timing from this)
    GuoqStats stats;          //!< summed over the worker's slices
};

/**
 * The one record of an optimizer run: what core::optimizePortfolio()
 * and every registry optimizer (core/optimizer.h) return, and what
 * every emitter reads.
 */
struct OptimizeReport
{
    std::string algorithm;  //!< registry name of the producer (stamped
                            //!< by the registry optimizer)
    ir::Circuit circuit;    //!< the optimized circuit
    double cost = 0;        //!< objective value of `circuit`
    double errorBound = 0;  //!< accumulated ε of `circuit` (0 for
                            //!< exact runs)
    /** Counters; search optimizers fill what applies, `seconds` is
     *  always set. Portfolio runs merge them over the workers
     *  (GuoqStats::merge), with `seconds` the portfolio's wall time. */
    GuoqStats stats;
    /**
     * Best-cost-over-time trace when the algorithm records one.
     * A one-thread portfolio passes the single optimize() run's trace
     * through unchanged. threads > 1 merges the per-worker slice
     * traces into one portfolio-level trajectory: points are
     * time-sorted on the portfolio clock (seconds since the run
     * started), the first point is the input circuit at t = 0, and
     * every later point is a *strict* portfolio-wide cost improvement
     * (monotone decreasing), regardless of which worker found it.
     */
    std::vector<TracePoint> trace;
    /** Per-worker detail for portfolio-backed runs (empty otherwise). */
    std::vector<PortfolioWorkerReport> workers;
    /**
     * Post-hoc equivalence check of `circuit` against the optimizer's
     * input, when the consumer ran one through verify/checker.h (the
     * CLI's --verify fills it). `verification.method` empty = none
     * was performed.
     */
    verify::VerifyReport verification;
    /**
     * The output's derivation from the input, when the request asked
     * for one and the run is a single core::optimize() (threads == 1):
     * adopting another portfolio worker's circuit is not recorded.
     */
    ir::Derivation derivation;
};

/** The seed worker @p worker uses for its first slice. */
std::uint64_t portfolioWorkerSeed(std::uint64_t base_seed, int worker);

/**
 * Run a parallel portfolio of GUOQ instances on @p c targeting @p set.
 *
 * With cfg.threads == 1 this is exactly core::optimize(cfg.base): same
 * seed, same single search trajectory, same result. With more threads
 * each worker searches independently from its own seed and the best
 * circuit across all workers is returned; the result is never worse
 * (by cfg.base.objective) than any single worker's, and in particular
 * never worse than the input.
 */
OptimizeReport optimizePortfolio(const ir::Circuit &c,
                                 ir::GateSetKind set,
                                 const PortfolioConfig &cfg);

} // namespace core
} // namespace guoq
