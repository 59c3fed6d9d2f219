/**
 * @file
 * Fig. 13 (Q4 ablation): on Clifford+T the contribution flips — exact
 * rewrites matter more than finite-set resynthesis because unitary
 * synthesis over a finite gate set is much harder than continuous
 * instantiation. GUOQ vs GUOQ-REWRITE vs GUOQ-RESYNTH, T reduction.
 */

#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runFig13(CaseContext &ctx)
{
    const ir::GateSetKind set = ir::GateSetKind::CliffordT;
    const core::Objective obj = core::Objective::TCount;
    const auto suite = benchSuiteFor(set, suiteCap(ctx.opts(), 12));

    if (ctx.pretty())
        std::printf("=== Fig. 13 (Q4 ablation): clifford+t, T "
                    "reduction ===\n\n");

    auto variant = [&ctx, set, obj](core::TransformSelection selection) {
        GuoqSpec spec;
        spec.set = set;
        spec.baseBudgetSeconds = 4.0;
        spec.cfg.epsilonTotal = 1e-5;
        spec.cfg.objective = obj;
        spec.cfg.selection = selection;
        return [&ctx, spec](const ir::Circuit &c, std::uint64_t seed) {
            return runGuoq(ctx, spec, c, seed);
        };
    };

    const std::vector<Tool> tools{
        {"guoq-rewrite",
         variant(core::TransformSelection::RewriteOnly)},
        {"guoq-resynth",
         variant(core::TransformSelection::ResynthOnly)},
    };
    const Tool guoq{"guoq", variant(core::TransformSelection::Combined)};

    Comparison cmp;
    cmp.metricName = "T gate reduction";
    cmp.metricKey = "t_reduction";
    cmp.metric = [](const ir::Circuit &before, const ir::Circuit &after) {
        return reduction(before.tGateCount(), after.tGateCount());
    };
    runComparison(ctx, suite, guoq, tools, cmp);

    if (ctx.pretty())
        std::printf("shape check: rewrite-only tracks guoq closely "
                    "here (rules contribute more than finite "
                    "resynthesis), the reverse of Fig. 10.\n");
}

const CaseRegistrar kFig13(
    "fig13", "clifford+t ablation: rewrite vs resynth contribution",
    130, runFig13);

} // namespace
