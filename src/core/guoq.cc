#include "core/guoq.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "dag/subcircuit.h"
#include "rewrite/engine.h"
#include "support/logging.h"
#include "support/timer.h"
#include "synth/service.h"

namespace guoq {
namespace core {

void
GuoqStats::merge(const GuoqStats &other)
{
    iterations += other.iterations;
    accepted += other.accepted;
    uphillAccepted += other.uphillAccepted;
    rejected += other.rejected;
    noops += other.noops;
    budgetSkips += other.budgetSkips;
    resynthCalls += other.resynthCalls;
    resynthAccepted += other.resynthAccepted;
    rewriteApplications += other.rewriteApplications;
    synthCache.add(other.synthCache);
    poolQueuePeak = std::max(poolQueuePeak, other.poolQueuePeak);
    seconds += other.seconds;
}

namespace {

/** One in-flight asynchronous resynthesis call. */
struct PendingResynth
{
    std::future<synth::SynthOutcome> future;
    ir::Circuit snapshot;            //!< circuit at launch time
    dag::SubcircuitSelection selection;
    std::size_t step = 0;            //!< derivation step of the snapshot
};

} // namespace

GuoqResult
optimize(const ir::Circuit &c, ir::GateSetKind set, const GuoqConfig &cfg)
{
    support::Timer timer;
    const support::Deadline deadline =
        support::Deadline::in(cfg.timeBudgetSeconds);
    support::Rng rng(cfg.seed);
    const CostFunction cost(cfg.objective, set);

    // ε_f = 0 disables approximate transformations entirely: the exact
    // transformations alone keep the run at ε = 0 (Thm. 5.3).
    TransformSelection selection = cfg.selection;
    const bool allow_resynth = cfg.epsilonTotal > 0;
    if (!allow_resynth && selection == TransformSelection::Combined)
        selection = TransformSelection::RewriteOnly;
    if (!allow_resynth && selection == TransformSelection::ResynthOnly)
        support::fatal("guoq: resynth-only selection requires ε_f > 0");

    synth::SynthService *svc = cfg.synthService != nullptr
                                   ? cfg.synthService
                                   : &synth::SynthService::global();
    GuoqResult result;
    const TransformationSet transforms(
        set, selection,
        perCallEpsilon(cfg.epsilonTotal, cfg.resynthCallEpsilon),
        cfg.resynthProbability, cfg.resynthCallSeconds,
        cfg.maxSubcircuitQubits, svc, &result.stats.synthCache);

    // The engine owns the current circuit; rule passes run through its
    // persistent index, and its cached counters replace the per-accept
    // full-circuit scans.
    rewrite::RewriteEngine engine(c);
    if (cfg.objective == Objective::Fidelity) {
        const fidelity::ErrorModel &model = fidelity::errorModelFor(set);
        engine.setGateLogCost([&model](const ir::Gate &g) {
            return -std::log1p(-model.gateError(g));
        });
    }
    const bool count_cost = cost.countBased();
    double cost_best = cost(c);
    double cost_curr = cost_best;
    double error_curr = 0;
    double error_best = 0;
    // result.best is copied lazily: while the current circuit *is* the
    // best, only its counts are kept; a snapshot is taken the moment an
    // accepted move leaves the best (or at loop exit, as a move).
    bool best_is_curr = true;
    ir::CircuitCounts best_counts = engine.counts();

    // Derivation: step 0 is the input; step_curr / step_best are the
    // steps that produced the current and the best circuit.
    const bool derive = cfg.recordDerivation;
    std::vector<ir::DerivationStep> &steps = result.derivation.steps;
    if (derive)
        steps.emplace_back();
    std::size_t step_curr = 0;
    std::size_t step_best = 0;
    auto push_step = [&](ir::DerivationStep &&st, std::size_t parent) {
        st.parent = parent;
        steps.push_back(std::move(st));
        step_curr = steps.size() - 1;
    };

    auto record = [&](bool force = false) {
        if (!cfg.recordTrace)
            return;
        if (!force && !result.trace.empty() &&
            result.trace.back().cost <= cost_best)
            return;
        TracePoint p;
        p.seconds = timer.seconds();
        p.cost = cost_best;
        p.gateCount = best_counts.gates;
        p.twoQubitCount = best_counts.twoQubit;
        p.tCount = best_counts.tGates;
        result.trace.push_back(p);
    };
    record(true);

    std::vector<PendingResynth> pending;

    // Accept/reject per Alg. 1 lines 10-18, split in two: the shared
    // Metropolis decision, and per-path commit plumbing.
    auto decide = [&](double cost_cand) {
        if (cost_cand <= cost_curr) {
            ++result.stats.accepted;
            return true;
        }
        const double p = std::exp(-cfg.temperature * cost_cand /
                                  std::max(cost_curr, 1e-12));
        if (rng.chance(p)) {
            ++result.stats.uphillAccepted;
            return true;
        }
        ++result.stats.rejected;
        return false;
    };

    // Freeze result.best before the engine moves off it: accepted
    // moves that are not strict improvements leave the best behind.
    auto snapshot_if_leaving_best = [&](double cost_cand) {
        if (best_is_curr && !(cost_cand < cost_best)) {
            result.best = engine.circuit();
            best_is_curr = false;
        }
    };

    // Post-accept bookkeeping; the engine already holds the move.
    auto on_accepted = [&](double cost_cand, double eps_spent,
                           bool from_resynth) {
        cost_curr = cost_cand;
        error_curr += eps_spent;
        if (from_resynth)
            ++result.stats.resynthAccepted;
        if (cost_curr < cost_best) {
            cost_best = cost_curr;
            error_best = error_curr;
            step_best = step_curr;
            best_is_curr = true;
            best_counts = engine.counts();
            record();
            if (cfg.hooks.onBest) {
                ProgressEvent ev;
                ev.seconds = timer.seconds();
                ev.cost = cost_best;
                ev.errorBound = error_best;
                ev.gateCount = best_counts.gates;
                ev.twoQubitCount = best_counts.twoQubit;
                cfg.hooks.onBest(ev);
            }
        }
    };

    // A resynthesis splice: a whole-circuit candidate, which replaced
    // @p sel of a @p pre_gates-gate circuit (derivation step @p parent)
    // with @p block.
    auto consider_resynth = [&](ir::Circuit &&candidate, double eps_spent,
                                std::size_t pre_gates,
                                const dag::SubcircuitSelection &sel,
                                const ir::Circuit &block,
                                std::size_t parent) {
        const double cost_cand = cost(candidate);
        if (!decide(cost_cand))
            return;
        snapshot_if_leaving_best(cost_cand);
        if (derive)
            push_step(dag::spliceStep(pre_gates, sel, block), parent);
        engine.assign(std::move(candidate));
        on_accepted(cost_cand, eps_spent, /*from_resynth=*/true);
    };

    // A prepared engine move (rule pass or fusion): count-based
    // objectives price it from the delta counters alone;
    // Fidelity/Depth materialize the candidate and use the legacy scan
    // so accept decisions stay bit-identical.
    auto consider_prepared = [&](const rewrite::RewriteEngine::Attempt
                                     &att) {
        const double cost_cand = count_cost
                                     ? cost.fromCounts(att.counts)
                                     : cost(engine.candidate());
        if (!decide(cost_cand)) {
            engine.discard();
            return;
        }
        snapshot_if_leaving_best(cost_cand);
        if (derive) {
            ir::DerivationStep st;
            engine.describePending(st);
            push_step(std::move(st), step_curr);
        }
        engine.commit();
        on_accepted(cost_cand, /*eps_spent=*/0.0, /*from_resynth=*/false);
    };

    // Harvest finished asynchronous resynthesis calls, in launch
    // order, compacting still-running entries in place (stable, O(n)).
    auto harvestAsync = [&](bool wait) {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < pending.size(); ++i) {
            PendingResynth &p = pending[i];
            if (!wait &&
                p.future.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                if (keep != i)
                    pending[keep] = std::move(p);
                ++keep;
                continue;
            }
            const synth::SynthOutcome so = p.future.get();
            result.stats.synthCache.add(so);
            const synth::ResynthResult &r = so.result;
            if (!r.success)
                continue;
            if (error_curr + r.distance > cfg.epsilonTotal)
                continue; // budget moved on while the call was in flight
            // Accepted resynthesis discards interim rewrites (§5.3):
            // the candidate is the launch-time snapshot with the new
            // block.
            consider_resynth(dag::splice(p.snapshot, p.selection,
                                         r.circuit),
                             r.distance, p.snapshot.size(), p.selection,
                             r.circuit, p.step);
        }
        pending.resize(keep);
    };

    while (!deadline.expired() && !cfg.hooks.cancelled() &&
           (cfg.maxIterations < 0 ||
            result.stats.iterations < cfg.maxIterations)) {
        ++result.stats.iterations;
        harvestAsync(/*wait=*/false);

        const std::size_t idx = transforms.sample(rng);
        const Transformation &tau = transforms.all()[idx];

        // Alg. 1 line 6: abstain when the nominal ε would overshoot.
        if (error_curr + tau.epsilon() > cfg.epsilonTotal &&
            tau.epsilon() > 0) {
            ++result.stats.budgetSkips;
            continue;
        }

        if (tau.kind() == TransformKind::Resynthesis) {
            ++result.stats.resynthCalls;
            if (cfg.synthWorkers > 0) {
                if (pending.size() >=
                    static_cast<std::size_t>(cfg.synthWorkers))
                    continue; // all async slots busy
                std::optional<ResynthStep> step =
                    tau.drawResynthStep(engine.circuit(), rng, deadline);
                if (!step)
                    continue;
                support::Rng child = rng.fork();
                auto fut = svc->submit(std::move(step->subcircuit),
                                       step->options, child);
                if (!fut)
                    continue; // shared pool queue full: drop the call
                pending.push_back({std::move(*fut), engine.circuit(),
                                   std::move(step->selection),
                                   step_curr});
                continue;
            }
        }

        if (tau.kind() != TransformKind::Resynthesis) {
            // The exact moves run on the engine: a rule pass probes
            // only the matching kind bucket, fusion refits only the
            // wires a commit touched; both are priced from delta
            // counters and touch the circuit itself only on accept.
            auto att = tau.kind() == TransformKind::RewriteRule
                           ? engine.preparePassRandom(*tau.rule(), rng)
                           : engine.prepareFusion(set);
            if (!att) {
                ++result.stats.noops;
                continue;
            }
            ++result.stats.rewriteApplications;
            consider_prepared(*att);
            continue;
        }

        auto outcome = tau.apply(engine.circuit(), rng);
        if (!outcome) {
            ++result.stats.noops;
            continue;
        }
        if (error_curr + outcome->epsilonSpent > cfg.epsilonTotal &&
            outcome->epsilonSpent > 0) {
            ++result.stats.budgetSkips;
            continue;
        }
        consider_resynth(std::move(outcome->circuit),
                         outcome->epsilonSpent, engine.circuit().size(),
                         outcome->selection, outcome->block, step_curr);
    }

    harvestAsync(/*wait=*/true);

    if (best_is_curr)
        result.best = engine.release(); // the lazy-copy exit: a move
    result.errorBound = error_best;
    result.derivation.best = step_best;
    result.stats.poolQueuePeak = svc->poolQueuePeak();
    result.stats.seconds = timer.seconds();
    record(true);
    return result;
}

} // namespace core
} // namespace guoq
