/**
 * @file
 * Registry adapters for the baseline optimizers of Table 3 / Q1-Q4:
 * each wraps its legacy free function (which stays the implementation
 * and keeps its direct callers compiling) behind core::Optimizer, so
 * the CLI, batch driver, and bench harness can dispatch any of them by
 * name next to GUOQ.
 *
 * Shared adapter semantics:
 *  - a request whose cancellation token is already set returns the
 *    input unchanged (the one-shot passes have no inner loop to poll);
 *  - reports never carry a circuit worse than the input under
 *    req.objective — a pass that trades the requested objective away
 *    (e.g. a 2q-focused pass asked to minimize T count) reports the
 *    input instead;
 *  - hooks.onBest fires once with the final result when it improved.
 */

#include <algorithm>
#include <memory>
#include <utility>

#include "baselines/beam_search.h"
#include "baselines/fixed_sequence.h"
#include "baselines/partition_resynth.h"
#include "baselines/phase_poly.h"
#include "baselines/rl_like.h"
#include "core/optimizer.h"
#include "support/timer.h"

namespace guoq {
namespace core {

namespace {

/**
 * Shared shell: cost bookkeeping, the no-worse guard, the single
 * final progress event, and wall-clock stats. Subclasses implement
 * produce() returning (circuit, errorBound) and fill extra stats.
 */
class BaselineOptimizer : public Optimizer
{
  public:
    const OptimizerInfo &info() const override { return info_; }

    OptimizeReport
    run(const ir::Circuit &c, const OptimizeRequest &req) const override
    {
        support::Timer timer;
        const CostFunction cost(req.objective, req.set);
        OptimizeReport report;
        report.algorithm = info_.name;
        const double cost_in = cost(c);

        bool produced = false;
        if (!req.hooks.cancelled()) {
            double error = 0;
            ir::Circuit out = produce(c, req, report.stats, error);
            const double cost_out = cost(out);
            if (cost_out <= cost_in) {
                report.circuit = std::move(out);
                report.cost = cost_out;
                report.errorBound = error;
                produced = true;
            }
        }
        if (!produced) {
            // cancelled, or the pass traded the objective away
            report.circuit = c;
            report.cost = cost_in;
            report.errorBound = 0;
        }
        report.stats.seconds = timer.seconds();

        if (req.hooks.onBest && report.cost < cost_in) {
            ProgressEvent ev;
            ev.seconds = report.stats.seconds;
            ev.cost = report.cost;
            ev.errorBound = report.errorBound;
            ev.gateCount = report.circuit.gateCount();
            ev.twoQubitCount = report.circuit.twoQubitGateCount();
            req.hooks.onBest(ev);
        }
        return report;
    }

  protected:
    virtual ir::Circuit produce(const ir::Circuit &c,
                                const OptimizeRequest &req,
                                GuoqStats &stats,
                                double &error) const = 0;

    OptimizerInfo info_;
};

/** QUESO-style MaxBeam over the transformation framework (Q3). */
class BeamOptimizer : public BaselineOptimizer
{
  public:
    BeamOptimizer()
    {
        info_.name = "beam";
        info_.summary =
            "QUESO-style MaxBeam search over the transformation set "
            "(GUOQ-BEAM, Fig. 11)";
        info_.params = {{"beam-width", ParamSpec::Kind::Int,
                         "bounded priority-queue capacity", "64"}};
    }

    std::string
    checkRequest(const OptimizeRequest &req) const override
    {
        std::string err = Optimizer::checkRequest(req);
        if (err.empty() && paramLong(req.params, "beam-width", 64) < 1)
            err = "parameter 'beam-width' of 'beam' must be >= 1";
        return err;
    }

  protected:
    ir::Circuit
    produce(const ir::Circuit &c, const OptimizeRequest &req,
            GuoqStats &stats, double &error) const override
    {
        baselines::BeamOptions o;
        o.objective = req.objective;
        o.epsilonTotal = req.epsilonTotal;
        o.timeBudgetSeconds = req.timeBudgetSeconds;
        o.beamWidth = static_cast<std::size_t>(
            std::max(paramLong(req.params, "beam-width", 64), 1L));
        o.seed = req.seed;
        o.maxIterations = req.maxIterations;
        baselines::BeamResult r =
            baselines::beamSearchOptimize(c, req.set, o);
        stats.iterations = r.iterations;
        error = r.errorBound;
        return std::move(r.best);
    }
};

/** The three fixed-pass-sequence tools of Table 3 (exact, to
 *  completion — budgets and seeds are ignored). */
class FixedSequenceOptimizer : public BaselineOptimizer
{
  public:
    using Fn = ir::Circuit (*)(const ir::Circuit &, ir::GateSetKind);

    FixedSequenceOptimizer(std::string name, std::string summary, Fn fn)
        : fn_(fn)
    {
        info_.name = std::move(name);
        info_.summary = std::move(summary);
    }

  protected:
    ir::Circuit
    produce(const ir::Circuit &c, const OptimizeRequest &req,
            GuoqStats &, double &) const override
    {
        return fn_(c, req.set);
    }

  private:
    Fn fn_;
};

/** BQSKit/QUEST-style one-pass partition + resynthesize (Q4). */
class PartitionResynthOptimizer : public BaselineOptimizer
{
  public:
    PartitionResynthOptimizer()
    {
        info_.name = "partition-resynth";
        info_.summary =
            "BQSKit-style partition-and-resynthesize superoptimizer "
            "(one pass over disjoint <=3q blocks)";
    }

  protected:
    ir::Circuit
    produce(const ir::Circuit &c, const OptimizeRequest &req,
            GuoqStats &stats, double &error) const override
    {
        baselines::PartitionResynthResult r = baselines::partitionResynth(
            c, req.set, req.objective, req.epsilonTotal,
            req.timeBudgetSeconds, req.seed);
        stats.resynthCalls = r.blocks;
        stats.resynthAccepted = r.blocksImproved;
        stats.synthCache = r.synthCache;
        error = r.errorSpent;
        return std::move(r.circuit);
    }
};

/** PyZX stand-in: phase-polynomial rotation merging (Q4). */
class PhasePolyOptimizer : public BaselineOptimizer
{
  public:
    PhasePolyOptimizer()
    {
        info_.name = "phase-poly";
        info_.summary =
            "phase-polynomial rotation merging (PyZX stand-in: strong "
            "T reduction, CX skeleton untouched)";
    }

  protected:
    ir::Circuit
    produce(const ir::Circuit &c, const OptimizeRequest &req,
            GuoqStats &stats, double &) const override
    {
        baselines::PhasePolyStats s;
        ir::Circuit out = baselines::phasePolyOptimize(c, req.set, &s);
        stats.rewriteApplications = s.rotationsMerged;
        return out;
    }
};

/** Quarl surrogate: greedy rewrite scheduling with exploration. */
class RlLikeOptimizer : public BaselineOptimizer
{
  public:
    RlLikeOptimizer()
    {
        info_.name = "rl-like";
        info_.summary =
            "Quarl-style RL-policy surrogate: one-step-lookahead "
            "greedy rewrites with eps-greedy exploration";
        info_.params = {{"exploration-rate", ParamSpec::Kind::Double,
                         "eps of eps-greedy exploration", "0.15"}};
    }

  protected:
    ir::Circuit
    produce(const ir::Circuit &c, const OptimizeRequest &req,
            GuoqStats &, double &) const override
    {
        baselines::RlLikeOptions o;
        o.objective = req.objective;
        o.timeBudgetSeconds = req.timeBudgetSeconds;
        o.explorationRate =
            paramDouble(req.params, "exploration-rate", 0.15);
        o.seed = req.seed;
        o.maxSteps = req.maxIterations;
        return baselines::rlLikeOptimize(c, req.set, o);
    }
};

} // namespace

void
registerBaselineOptimizers(OptimizerRegistry &r)
{
    r.add(std::make_unique<BeamOptimizer>());
    r.add(std::make_unique<FixedSequenceOptimizer>(
        "qiskit-like",
        "Qiskit-O3 analogue: 1q fusion + cancellation/merge fixpoint, "
        "twice (fast, exact, deterministic)",
        &baselines::qiskitLikeOptimize));
    r.add(std::make_unique<FixedSequenceOptimizer>(
        "tket-like",
        "tket analogue: commutation sweeps interleaved with reductions "
        "and fusion, two rounds",
        &baselines::tketLikeOptimize));
    r.add(std::make_unique<FixedSequenceOptimizer>(
        "voqc-like",
        "VOQC analogue: rotation-merging-centric commute+reduce rounds "
        "(no fusion)",
        &baselines::voqcLikeOptimize));
    r.add(std::make_unique<PartitionResynthOptimizer>());
    r.add(std::make_unique<PhasePolyOptimizer>());
    r.add(std::make_unique<RlLikeOptimizer>());
}

} // namespace core
} // namespace guoq
