/**
 * @file
 * Fig. 9: GUOQ vs Qiskit / BQSKit / QUESO stand-ins on the ionq gate
 * set, as two cases: "fig9/2q" (Rxx reduction) and "fig9/fidelity".
 * The paper highlights that QUESO's 3-gate rewrite rules struggle on
 * this gate set while resynthesis compensates — the same asymmetry
 * appears here because the ionq rule library has no Rxx-count-reducing
 * rule beyond merges.
 */

#include <cstdio>

#include "baselines/beam_search.h"
#include "baselines/fixed_sequence.h"
#include "baselines/partition_resynth.h"
#include "bench/harness.h"
#include "bench/registry.h"
#include "fidelity/error_model.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runFig9(CaseContext &ctx, const Comparison &cmp, const char *header)
{
    const ir::GateSetKind set = ir::GateSetKind::IonQ;
    const double budget = ctx.budget(3.0);
    const core::Objective obj = core::Objective::TwoQubitCount;
    const auto suite = benchSuiteFor(set, suiteCap(ctx.opts(), 10));

    if (ctx.pretty())
        std::printf("=== %s ===\n\n", header);

    const std::vector<Tool> tools{
        {"qiskit", [set](const ir::Circuit &c, std::uint64_t) {
             return baselines::qiskitLikeOptimize(c, set);
         }},
        {"bqskit", [set, obj, budget](const ir::Circuit &c,
                                      std::uint64_t seed) {
             return baselines::partitionResynth(c, set, obj, 1e-5,
                                                budget, seed)
                 .circuit;
         }},
        {"queso", [set, obj, budget](const ir::Circuit &c,
                                     std::uint64_t seed) {
             baselines::BeamOptions o;
             o.objective = obj;
             o.epsilonTotal = 0;
             o.timeBudgetSeconds = budget;
             o.beamWidth = 32;
             o.seed = seed;
             return baselines::beamSearchOptimize(c, set, o).best;
         }},
    };

    GuoqSpec spec;
    spec.set = set;
    spec.baseBudgetSeconds = 3.0;
    spec.cfg.epsilonTotal = 1e-5;
    spec.cfg.objective = obj;
    const Tool guoq{"guoq",
                    [&ctx, spec](const ir::Circuit &c, std::uint64_t seed) {
                        return runGuoq(ctx, spec, c, seed);
                    }};

    runComparison(ctx, suite, guoq, tools, cmp);
}

void
runFig9TwoQubit(CaseContext &ctx)
{
    Comparison cmp;
    cmp.metricName = "2q gate reduction";
    cmp.metricKey = "2q_reduction";
    cmp.metric = [](const ir::Circuit &before, const ir::Circuit &after) {
        return reduction(before.twoQubitGateCount(),
                         after.twoQubitGateCount());
    };
    runFig9(ctx, cmp, "Fig. 9 (top): 2q (Rxx) reduction, ionq");
}

void
runFig9Fidelity(CaseContext &ctx)
{
    const fidelity::ErrorModel &model =
        fidelity::errorModelFor(ir::GateSetKind::IonQ);
    Comparison cmp;
    cmp.metricName = "fidelity";
    cmp.metricKey = "fidelity";
    cmp.metric = [&model](const ir::Circuit &, const ir::Circuit &after) {
        return model.circuitFidelity(after);
    };
    runFig9(ctx, cmp, "Fig. 9 (bottom): circuit fidelity, ionq");
}

const CaseRegistrar kFig9TwoQubit(
    "fig9/2q", "GUOQ vs tools, ionq 2q (Rxx) reduction", 90,
    runFig9TwoQubit);
const CaseRegistrar kFig9Fidelity(
    "fig9/fidelity", "GUOQ vs tools, ionq circuit fidelity", 91,
    runFig9Fidelity);

} // namespace
