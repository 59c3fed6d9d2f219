/**
 * @file
 * Fig. 12 (Q4): the fault-tolerant Clifford+T gate set — GUOQ
 * (instantiated with the Synthetiq-style finite synthesizer) vs
 * Qiskit-like, BQSKit-style partition+Synthetiq, a Synthetiq-only
 * optimizer (resynth-only GUOQ), QUESO-like beam, and the PyZX
 * stand-in. Two cases: "fig12/t" (T-gate reduction, top row) and
 * "fig12/2q" (CX reduction, bottom row).
 */

#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/optimizer.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runFig12(CaseContext &ctx, const Comparison &cmp, const char *header)
{
    const ir::GateSetKind set = ir::GateSetKind::CliffordT;
    const double budget = ctx.budget(3.0);
    const core::Objective obj = core::Objective::TThenTwoQubit;
    const auto suite = benchSuiteFor(set, suiteCap(ctx.opts(), 12));

    if (ctx.pretty())
        std::printf("=== %s ===\n\n", header);

    // Every tool in this figure dispatches through the optimizer
    // registry — each display name is the paper's tool label, each
    // algorithm the registry entry that stands in for it.
    core::OptimizeRequest base;
    base.set = set;
    base.objective = obj;
    base.timeBudgetSeconds = budget;

    core::OptimizeRequest approx = base;
    approx.epsilonTotal = 1e-5;

    core::OptimizeRequest queso = base;
    queso.params["beam-width"] = "32";

    std::vector<Tool> tools;
    tools.push_back(registryTool(ctx, "qiskit", "qiskit-like", base));
    tools.push_back(
        registryTool(ctx, "bqskit", "partition-resynth", approx));
    tools.push_back(
        registryTool(ctx, "synthetiq", "guoq-resynth", approx));
    tools.push_back(registryTool(ctx, "queso", "beam", queso));
    tools.push_back(registryTool(ctx, "pyzx", "phase-poly", base));

    const Tool guoq = registryTool(ctx, "guoq", "guoq", approx);

    runComparison(ctx, suite, guoq, tools, cmp);
}

void
runFig12T(CaseContext &ctx)
{
    Comparison cmp;
    cmp.metricName = "T gate reduction";
    cmp.metricKey = "t_reduction";
    cmp.metric = [](const ir::Circuit &before, const ir::Circuit &after) {
        return reduction(before.tGateCount(), after.tGateCount());
    };
    runFig12(ctx, cmp, "Fig. 12 (top): T gate reduction, clifford+t");
}

void
runFig12TwoQubit(CaseContext &ctx)
{
    Comparison cmp;
    cmp.metricName = "2q gate reduction";
    cmp.metricKey = "2q_reduction";
    cmp.metric = [](const ir::Circuit &before, const ir::Circuit &after) {
        return reduction(before.twoQubitGateCount(),
                         after.twoQubitGateCount());
    };
    runFig12(ctx, cmp,
             "Fig. 12 (bottom): 2q (CX) reduction, clifford+t");
    if (ctx.pretty())
        std::printf("shape check: pyzx competes on T reduction but "
                    "never reduces CX; guoq wins CX reduction "
                    "broadly.\n");
}

const CaseRegistrar kFig12T(
    "fig12/t", "GUOQ vs tools, clifford+t T reduction", 120, runFig12T);
const CaseRegistrar kFig12TwoQubit(
    "fig12/2q", "GUOQ vs tools, clifford+t CX reduction", 121,
    runFig12TwoQubit);

} // namespace
