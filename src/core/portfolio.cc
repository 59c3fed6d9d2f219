#include "core/portfolio.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <utility>

#include "support/mutex.h"
#include "support/rng.h"
#include "support/timer.h"

namespace guoq {
namespace core {

namespace {

/**
 * Global best shared by all workers.
 *
 * The hot checks ("is this candidate even competitive?" / "did anyone
 * publish since I last looked?") run lock-free against an atomic
 * best-cost mirror and a publication epoch; the mutex is taken only to
 * copy circuits. Both atomics are conservative: `costFast` only ever
 * decreases and a stale read returns an *older, higher-or-equal*
 * value, so a candidate that fails the fast test (cost_c above the
 * stale mirror) is guaranteed above the true best too — skipping the
 * lock never loses an update, and a stale pass merely takes the lock
 * and re-checks under it.
 */
struct SharedBest
{
    support::Mutex mutex;
    ir::Circuit circuit GUARDED_BY(mutex);
    double cost GUARDED_BY(mutex) = 0;
    double error GUARDED_BY(mutex) = 0;

    /** Lock-free mirror of `cost` (updated inside the lock). */
    std::atomic<double> costFast{std::numeric_limits<double>::max()};
    /** Bumped on every publication; lets adopters skip the lock when
     *  nothing changed since their last look. */
    std::atomic<std::uint64_t> epoch{0};

    // Progress events: a separate lock so a slow user callback never
    // stalls the circuit-exchange path, plus its own monotone best so
    // forwarded events stay strictly decreasing portfolio-wide. The
    // two locks are never held together (reportBest never touches the
    // exchange state), so no ordering between them can arise.
    support::Mutex eventMutex;
    double eventBest GUARDED_BY(eventMutex) =
        std::numeric_limits<double>::max();
    std::atomic<double> eventBestFast{
        std::numeric_limits<double>::max()};

    void
    init(const ir::Circuit &c, double cost_c)
    {
        // Runs before any worker thread exists; the locks are
        // uncontended and taken only to satisfy the static analysis's
        // (correct) insistence that guarded fields stay guarded.
        {
            support::MutexLock lock(mutex);
            circuit = c;
            cost = cost_c;
            error = 0;
        }
        costFast.store(cost_c, std::memory_order_release);
        // The input circuit is not an "improvement": only costs
        // strictly below it may be reported.
        {
            support::MutexLock lock(eventMutex);
            eventBest = cost_c;
        }
        eventBestFast.store(cost_c, std::memory_order_release);
    }

    /** Publish a candidate; on cost ties the lower accumulated ε wins
     *  (same rule the workers use locally). */
    void
    offer(const ir::Circuit &c, double cost_c, double error_c)
    {
        // Fast path: strictly worse than the (monotone) mirror can
        // never win; ties still need the lock for the ε rule.
        if (cost_c > costFast.load(std::memory_order_acquire))
            return;
        support::MutexLock lock(mutex);
        if (cost_c < cost || (cost_c == cost && error_c < error)) {
            circuit = c;
            cost = cost_c;
            error = error_c;
            costFast.store(cost_c, std::memory_order_release);
            epoch.fetch_add(1, std::memory_order_acq_rel);
        }
    }

    /**
     * If the global best is strictly better than @p cost_c, copy it
     * into the out-params and return true (the caller adopts it).
     * @p seen_epoch is the caller's last observed publication epoch;
     * the call skips the lock — and returns false — when nothing was
     * published since, or when the mirror shows no improvement. Both
     * fast-outs are conservative (see SharedBest), so a missed
     * adoption can only be one that the next slice boundary retries.
     */
    bool
    adopt(double cost_c, ir::Circuit &c, double &error_c,
          std::uint64_t &seen_epoch)
    {
        const std::uint64_t e = epoch.load(std::memory_order_acquire);
        if (e == seen_epoch ||
            costFast.load(std::memory_order_acquire) >= cost_c)
            return false;
        support::MutexLock lock(mutex);
        seen_epoch = epoch.load(std::memory_order_relaxed);
        if (cost >= cost_c)
            return false;
        c = circuit;
        error_c = error;
        return true;
    }

    /** Forward @p ev to @p user iff it improves on every event
     *  forwarded so far (keeps the portfolio-wide stream monotone). */
    void
    reportBest(const ProgressEvent &ev, const ObserverHooks &user)
    {
        if (!user.onBest)
            return;
        if (ev.cost >= eventBestFast.load(std::memory_order_acquire))
            return;
        support::MutexLock lock(eventMutex);
        if (ev.cost >= eventBest)
            return;
        eventBest = ev.cost;
        eventBestFast.store(ev.cost, std::memory_order_release);
        user.onBest(ev);
    }
};

/**
 * One worker: run optimize() in slices against the shared deadline,
 * exchanging with the global best between slices. Each slice continues
 * from the worker's current circuit with the unspent ε budget, so the
 * accumulated error of whatever the worker holds never exceeds
 * cfg.base.epsilonTotal (Thm. 4.2 additivity).
 */
void
runWorker(int worker, const ir::Circuit &input, ir::GateSetKind set,
          const PortfolioConfig &cfg, const support::Deadline &deadline,
          const support::Timer &portfolio_timer, const CostFunction &cost,
          SharedBest &shared, PortfolioWorkerReport &report,
          std::vector<TracePoint> &trace)
{
    support::Timer worker_timer;
    support::Rng seeder(portfolioWorkerSeed(cfg.base.seed, worker));
    report.worker = worker;
    report.seed = portfolioWorkerSeed(cfg.base.seed, worker);

    ir::Circuit curr = input;
    double error_curr = 0;
    std::uint64_t seen_epoch = 0;

    // Iteration-capped runs execute as one slice so that a fixed
    // (seed, maxIterations) pair walks one reproducible trajectory —
    // provided timeBudgetSeconds is generous enough that the deadline
    // doesn't truncate the run first.
    const bool sliced = cfg.base.maxIterations < 0;
    bool ran_once = false;
    while (!ran_once || (sliced && !deadline.expired() &&
                         !cfg.base.hooks.cancelled())) {
        GuoqConfig slice = cfg.base;
        slice.recordDerivation = false; // adoption splicing is not kept
        // The first slice uses the worker seed itself (so a 1-thread
        // portfolio reproduces core::optimize() exactly); later slices
        // draw a fresh stream, otherwise each slice would replay the
        // same trajectory.
        const bool first_slice = !ran_once;
        slice.seed = first_slice ? report.seed : seeder();
        ran_once = true;
        slice.epsilonTotal = std::max(cfg.base.epsilonTotal - error_curr, 0.0);
        // A resynth-only worker whose ε ran out mid-search has no legal
        // moves left; stop early. The first slice is exempt so that a
        // resynth-only config with no budget at all hits the same
        // fatal() diagnostic optimize() raises for it.
        if (!first_slice && slice.epsilonTotal == 0 &&
            slice.selection == TransformSelection::ResynthOnly)
            break;
        if (sliced) {
            // Clamp the exchange interval: zero/negative would make
            // every slice an already-expired deadline and the loop a
            // busy-spin that burns the whole budget doing nothing.
            const double sync = std::max(cfg.syncIntervalSeconds, 0.01);
            slice.timeBudgetSeconds = std::min(sync, deadline.remaining());
        }
        // In-slice progress is slice-local; route it through the
        // shared filter so the user only sees portfolio-wide
        // improvements, stamped with the portfolio clock and worker.
        // Each slice's optimize() accounts ε from zero, so the ε the
        // worker carried into the slice is added back to keep the
        // event's errorBound the true accumulated bound.
        if (cfg.base.hooks.onBest)
            slice.hooks.onBest = [&shared, &cfg, &portfolio_timer,
                                  worker, error0 = error_curr](
                                     const ProgressEvent &e) {
                ProgressEvent ev = e;
                ev.seconds = portfolio_timer.seconds();
                ev.errorBound += error0;
                ev.worker = worker;
                shared.reportBest(ev, cfg.base.hooks);
            };
        const double slice_t0 = portfolio_timer.seconds();
        GuoqResult r = optimize(curr, set, slice);
        report.stats.merge(r.stats);
        if (cfg.base.recordTrace)
            for (TracePoint p : r.trace) {
                p.seconds += slice_t0;
                trace.push_back(p);
            }
        const double cost_r = cost(r.best);
        const double error_r = error_curr + r.errorBound;
        // Keep the incumbent on cost ties unless the slice spent no ε:
        // an equal-cost circuit that cost approximation budget is a
        // strictly worse position to continue from.
        if (cost_r < cost(curr) || (cost_r == cost(curr) && r.errorBound == 0)) {
            curr = std::move(r.best);
            error_curr = error_r;
        }
        shared.offer(curr, cost(curr), error_curr);
        if (cfg.exchangeBest && sliced && !deadline.expired() &&
            !cfg.base.hooks.cancelled()) {
            double adopted_error = error_curr;
            if (shared.adopt(cost(curr), curr, adopted_error,
                             seen_epoch))
                error_curr = adopted_error;
        }
    }

    report.finalCost = cost(curr);
    report.errorBound = error_curr;
    report.wallSeconds = worker_timer.seconds();
}

/** A trace point describing @p c at time @p seconds. */
TracePoint
tracePointFor(double seconds, double cost_c, const ir::Circuit &c)
{
    TracePoint p;
    p.seconds = seconds;
    p.cost = cost_c;
    p.gateCount = c.gateCount();
    p.twoQubitCount = c.twoQubitGateCount();
    p.tCount = c.tGateCount();
    return p;
}

/**
 * Merge per-worker traces into the portfolio-level best-cost-over-time
 * trace documented in portfolio.h: time-sorted, starting at the input
 * circuit, keeping only strict portfolio-wide improvements.
 */
std::vector<TracePoint>
mergeTraces(std::vector<std::vector<TracePoint>> &worker_traces,
            const ir::Circuit &input, double input_cost)
{
    std::vector<TracePoint> all;
    for (std::vector<TracePoint> &t : worker_traces) {
        all.insert(all.end(), t.begin(), t.end());
        t.clear();
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TracePoint &a, const TracePoint &b) {
                         return a.seconds < b.seconds;
                     });
    std::vector<TracePoint> out;
    out.push_back(tracePointFor(0.0, input_cost, input));
    for (const TracePoint &p : all)
        if (p.cost < out.back().cost)
            out.push_back(p);
    return out;
}

} // namespace

std::uint64_t
portfolioWorkerSeed(std::uint64_t base_seed, int worker)
{
    if (worker == 0)
        return base_seed; // threads=1 must reproduce optimize() exactly
    // Derive well-separated streams from the base seed via the same
    // splitmix-style mixing Rng uses for state expansion.
    std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull *
                                      static_cast<std::uint64_t>(worker);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

OptimizeReport
optimizePortfolio(const ir::Circuit &c, ir::GateSetKind set,
                  const PortfolioConfig &cfg)
{
    const int threads = std::max(cfg.threads, 1);
    const CostFunction cost(cfg.base.objective, set);
    support::Timer timer;

    OptimizeReport result;

    if (threads == 1) {
        // Exactly one core::optimize() call: same seed, same result.
        GuoqResult r = optimize(c, set, cfg.base);
        result.circuit = std::move(r.best);
        result.cost = cost(result.circuit);
        result.errorBound = r.errorBound;
        result.stats = r.stats;
        result.trace = std::move(r.trace);
        result.derivation = std::move(r.derivation);
        PortfolioWorkerReport report;
        report.worker = 0;
        report.seed = cfg.base.seed;
        report.finalCost = result.cost;
        report.errorBound = r.errorBound;
        report.stats = r.stats;
        result.stats.seconds = timer.seconds();
        report.wallSeconds = result.stats.seconds;
        result.workers.push_back(std::move(report));
        return result;
    }

    SharedBest shared;
    shared.init(c, cost(c));

    const support::Deadline deadline =
        support::Deadline::in(cfg.base.timeBudgetSeconds);

    std::vector<PortfolioWorkerReport> reports(
        static_cast<std::size_t>(threads));
    std::vector<std::vector<TracePoint>> traces(
        static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int w = 0; w < threads; ++w)
        pool.emplace_back([&, w]() {
            runWorker(w, c, set, cfg, deadline, timer, cost, shared,
                      reports[static_cast<std::size_t>(w)],
                      traces[static_cast<std::size_t>(w)]);
        });
    for (std::thread &t : pool)
        t.join();

    {
        // All workers have joined; the lock is uncontended and taken
        // only so the guarded-field accesses stay provably guarded.
        support::MutexLock lock(shared.mutex);
        result.circuit = std::move(shared.circuit);
        result.cost = shared.cost;
        result.errorBound = shared.error;
    }
    for (const PortfolioWorkerReport &r : reports)
        result.stats.merge(r.stats);
    result.workers = std::move(reports);
    if (cfg.base.recordTrace)
        result.trace = mergeTraces(traces, c, cost(c));
    result.stats.seconds = timer.seconds();
    return result;
}

} // namespace core
} // namespace guoq
