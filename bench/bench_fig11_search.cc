/**
 * @file
 * Fig. 11 (Q3): how to combine rewriting and resynthesis — GUOQ's
 * tight random interleaving vs (1) rewrite-half-then-resynth-half,
 * (2) resynth-half-then-rewrite-half, and (3) GUOQ-BEAM (MaxBeam over
 * the same transformation set). ibmq20, 2q reduction.
 */

#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/optimizer.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

/** Half the budget in one mode, then the rest in the other. */
ir::Circuit
sequential(CaseContext &ctx, const ir::Circuit &c, ir::GateSetKind set,
           std::uint64_t seed, core::TransformSelection first,
           core::TransformSelection second)
{
    GuoqSpec spec;
    spec.set = set;
    spec.baseBudgetSeconds = 4.0 / 2;
    spec.cfg.objective = core::Objective::TwoQubitCount;
    spec.cfg.selection = first;
    spec.cfg.epsilonTotal =
        first == core::TransformSelection::RewriteOnly ? 0.0 : 1e-5 / 2;
    const ir::Circuit mid = runGuoq(ctx, spec, c, seed);
    spec.cfg.selection = second;
    spec.cfg.epsilonTotal =
        second == core::TransformSelection::RewriteOnly ? 0.0
                                                        : 1e-5 / 2;
    return runGuoq(ctx, spec, mid, seed + 1);
}

void
runFig11(CaseContext &ctx)
{
    const ir::GateSetKind set = ir::GateSetKind::Ibmq20;
    const double budget = ctx.budget(4.0);
    const auto suite = benchSuiteFor(set, suiteCap(ctx.opts(), 10));

    if (ctx.pretty())
        std::printf("=== Fig. 11 (Q3): search algorithm comparison "
                    "(ibmq20, 2q reduction) ===\n\n");

    // The beam and GUOQ itself dispatch through the optimizer
    // registry — the same entry points guoq_cli --algorithm drives.
    // The two coarse sequential orders are phased composites with no
    // registry identity of their own; their rows carry the "+"-joined
    // names of the phases.
    core::OptimizeRequest beam_req;
    beam_req.set = set;
    beam_req.objective = core::Objective::TwoQubitCount;
    beam_req.epsilonTotal = 1e-5;
    beam_req.timeBudgetSeconds = budget;
    beam_req.params["beam-width"] = "64";

    std::vector<Tool> tools;
    tools.push_back(
        {"seq-rw-rs",
         [&ctx, set](const ir::Circuit &c, std::uint64_t seed) {
             return sequential(ctx, c, set, seed,
                               core::TransformSelection::RewriteOnly,
                               core::TransformSelection::ResynthOnly);
         },
         "guoq-rewrite+guoq-resynth"});
    tools.push_back(
        {"seq-rs-rw",
         [&ctx, set](const ir::Circuit &c, std::uint64_t seed) {
             return sequential(ctx, c, set, seed,
                               core::TransformSelection::ResynthOnly,
                               core::TransformSelection::RewriteOnly);
         },
         "guoq-resynth+guoq-rewrite"});
    tools.push_back(registryTool(ctx, "guoq-beam", "beam", beam_req));

    core::OptimizeRequest guoq_req;
    guoq_req.set = set;
    guoq_req.objective = core::Objective::TwoQubitCount;
    guoq_req.epsilonTotal = 1e-5;
    guoq_req.timeBudgetSeconds = budget;
    const Tool guoq = registryTool(ctx, "guoq", "guoq", guoq_req);

    Comparison cmp;
    cmp.metricName = "2q gate reduction";
    cmp.metricKey = "2q_reduction";
    cmp.metric = [](const ir::Circuit &before, const ir::Circuit &after) {
        return reduction(before.twoQubitGateCount(),
                         after.twoQubitGateCount());
    };
    runComparison(ctx, suite, guoq, tools, cmp);

    if (ctx.pretty())
        std::printf("shape check: tight interleaving (guoq) beats both "
                    "coarse sequential orders and the beam.\n");
}

const CaseRegistrar kFig11(
    "fig11", "interleaving vs sequential vs beam (ibmq20)", 110,
    runFig11);

} // namespace
