/**
 * @file
 * Fig. 10 (Q2): the effect of unifying rewriting and resynthesis —
 * GUOQ with both transformation classes vs GUOQ-REWRITE (rules only)
 * vs GUOQ-RESYNTH (resynthesis only), ibmq20, 2q reduction.
 */

#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runFig10(CaseContext &ctx)
{
    const ir::GateSetKind set = ir::GateSetKind::Ibmq20;
    const core::Objective obj = core::Objective::TwoQubitCount;
    const auto suite = benchSuiteFor(set, suiteCap(ctx.opts(), 12));

    if (ctx.pretty())
        std::printf("=== Fig. 10 (Q2): combined vs rewrite-only vs "
                    "resynth-only (ibmq20, 2q reduction) ===\n\n");

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
    cmp.metricName = "2q gate reduction";
    cmp.metricKey = "2q_reduction";
    cmp.metric = [](const ir::Circuit &before, const ir::Circuit &after) {
        return reduction(before.twoQubitGateCount(),
                         after.twoQubitGateCount());
    };
    runComparison(ctx, suite, guoq, tools, cmp);

    if (ctx.pretty())
        std::printf("shape check: combined >= max(rewrite-only, "
                    "resynth-only) on most benchmarks.\n");
}

const CaseRegistrar kFig10(
    "fig10", "combined vs rewrite-only vs resynth-only (ibmq20)", 100,
    runFig10);

} // namespace
