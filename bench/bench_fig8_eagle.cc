/**
 * @file
 * Fig. 8: GUOQ vs Qiskit / tket / BQSKit / Quartz / Quarl stand-ins on
 * the ibm-eagle gate set — both metrics of the figure as separate
 * cases: 2-qubit-gate reduction (top row, "fig8/2q") and circuit
 * fidelity (bottom row, "fig8/fidelity").
 */

#include <cstdio>

#include "baselines/beam_search.h"
#include "baselines/fixed_sequence.h"
#include "baselines/partition_resynth.h"
#include "baselines/rl_like.h"
#include "bench/harness.h"
#include "bench/registry.h"
#include "fidelity/error_model.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

std::vector<Tool>
eagleTools(ir::GateSetKind set, core::Objective obj, double budget)
{
    return {
        {"qiskit", [set](const ir::Circuit &c, std::uint64_t) {
             return baselines::qiskitLikeOptimize(c, set);
         }},
        {"tket", [set](const ir::Circuit &c, std::uint64_t) {
             return baselines::tketLikeOptimize(c, set);
         }},
        {"bqskit", [set, obj, budget](const ir::Circuit &c,
                                      std::uint64_t seed) {
             return baselines::partitionResynth(c, set, obj, 1e-5,
                                                budget, seed)
                 .circuit;
         }},
        {"quartz", [set, obj, budget](const ir::Circuit &c,
                                      std::uint64_t seed) {
             baselines::BeamOptions o;
             o.objective = obj;
             o.epsilonTotal = 0;
             o.timeBudgetSeconds = budget;
             o.beamWidth = 128;
             o.seed = seed;
             return baselines::beamSearchOptimize(c, set, o).best;
         }},
        {"quarl", [set, obj, budget](const ir::Circuit &c,
                                     std::uint64_t seed) {
             baselines::RlLikeOptions o;
             o.objective = obj;
             o.timeBudgetSeconds = budget;
             o.seed = seed;
             return baselines::rlLikeOptimize(c, set, o);
         }},
    };
}

void
runFig8(CaseContext &ctx, const Comparison &cmp, const char *header)
{
    const ir::GateSetKind set = ir::GateSetKind::IbmEagle;
    const double budget = ctx.budget(3.0);
    const core::Objective obj = core::Objective::TwoQubitCount;
    const auto suite = benchSuiteFor(set, suiteCap(ctx.opts(), 12));

    if (ctx.pretty())
        std::printf("=== %s ===\n\n", header);

    GuoqSpec spec;
    spec.set = set;
    spec.baseBudgetSeconds = 3.0;
    spec.cfg.epsilonTotal = 1e-5;
    spec.cfg.objective = obj;
    const Tool guoq{"guoq",
                    [&ctx, spec](const ir::Circuit &c, std::uint64_t seed) {
                        return runGuoq(ctx, spec, c, seed);
                    }};

    runComparison(ctx, suite, guoq, eagleTools(set, obj, budget), cmp);
}

void
runFig8TwoQubit(CaseContext &ctx)
{
    Comparison cmp;
    cmp.metricName = "2q gate reduction";
    cmp.metricKey = "2q_reduction";
    cmp.metric = [](const ir::Circuit &before, const ir::Circuit &after) {
        return reduction(before.twoQubitGateCount(),
                         after.twoQubitGateCount());
    };
    runFig8(ctx, cmp, "Fig. 8 (top): 2q gate reduction, ibm-eagle");
}

void
runFig8Fidelity(CaseContext &ctx)
{
    const fidelity::ErrorModel &model =
        fidelity::errorModelFor(ir::GateSetKind::IbmEagle);
    Comparison cmp;
    cmp.metricName = "fidelity";
    cmp.metricKey = "fidelity";
    cmp.metric = [&model](const ir::Circuit &, const ir::Circuit &after) {
        return model.circuitFidelity(after);
    };
    runFig8(ctx, cmp, "Fig. 8 (bottom): circuit fidelity, ibm-eagle");
}

const CaseRegistrar kFig8TwoQubit(
    "fig8/2q", "GUOQ vs tools, ibm-eagle 2q reduction", 80,
    runFig8TwoQubit);
const CaseRegistrar kFig8Fidelity(
    "fig8/fidelity", "GUOQ vs tools, ibm-eagle circuit fidelity", 81,
    runFig8Fidelity);

} // namespace
