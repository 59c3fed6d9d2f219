/**
 * @file
 * Fig. 1 (and Table 3): GUOQ vs the seven state-of-the-art optimizers
 * on the ibmq20 gate set, 2-qubit-gate reduction, approximate tools
 * allowed ε. Registers the Table 3 taxonomy and the Fig. 1
 * better/match/worse comparison as cases against the unified harness.
 *
 * Tool stand-ins (see DESIGN.md): Qiskit/tket/VOQC → fixed-sequence
 * pass pipelines; BQSKit → partition+resynthesize; QUESO/Quartz →
 * MaxBeam over exact rewrites (different beam widths); Quarl →
 * ε-greedy one-step-lookahead policy.
 */

#include <cstdio>

#include "baselines/beam_search.h"
#include "baselines/fixed_sequence.h"
#include "baselines/partition_resynth.h"
#include "baselines/rl_like.h"
#include "bench/harness.h"
#include "bench/registry.h"
#include "support/table.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runTable3(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Table 3: implemented optimizer taxonomy ===\n\n");
    struct Entry
    {
        const char *tool;
        bool superoptimizer;
        const char *approach;
    };
    const Entry entries[] = {
        {"qiskit-like", false, "fixed sequence of passes"},
        {"tket-like", false, "fixed sequence of passes"},
        {"voqc-like", false, "fixed sequence of passes"},
        {"bqskit-like", true, "partition + resynthesize"},
        {"queso-like", true, "beam search + rewrite rules"},
        {"quartz-like", true, "beam search + rewrite rules"},
        {"quarl-like", true, "greedy policy + rewrite rules"},
    };
    support::TextTable tax({"tool", "superoptimizer", "approach"});
    for (const Entry &e : entries) {
        tax.addRow({e.tool, e.superoptimizer ? "yes" : "no", e.approach});
        CaseResult row;
        row.benchmark = "*";
        row.tool = e.tool;
        row.metric = "superoptimizer";
        row.value = e.superoptimizer ? 1 : 0;
        ctx.record(std::move(row));
    }
    if (ctx.pretty())
        tax.print();
}

void
runFig1(CaseContext &ctx)
{
    const ir::GateSetKind set = ir::GateSetKind::Ibmq20;
    const double budget = ctx.budget(3.0);
    const core::Objective obj = core::Objective::TwoQubitCount;

    if (ctx.pretty())
        std::printf("\n=== Fig. 1: GUOQ vs state-of-the-art "
                    "(ibmq20, 2q reduction, eps allowed) ===\n\n");

    const auto suite = benchSuiteFor(set, suiteCap(ctx.opts(), 12));

    auto beamTool = [set, obj, budget](std::size_t width) {
        return [set, obj, budget, width](const ir::Circuit &c,
                                         std::uint64_t seed) {
            baselines::BeamOptions o;
            o.objective = obj;
            o.epsilonTotal = 0; // QUESO/Quartz are exact
            o.timeBudgetSeconds = budget;
            o.beamWidth = width;
            o.seed = seed;
            return baselines::beamSearchOptimize(c, set, o).best;
        };
    };

    const std::vector<Tool> tools{
        {"qiskit", [set](const ir::Circuit &c, std::uint64_t) {
             return baselines::qiskitLikeOptimize(c, set);
         }},
        {"tket", [set](const ir::Circuit &c, std::uint64_t) {
             return baselines::tketLikeOptimize(c, set);
         }},
        {"voqc", [set](const ir::Circuit &c, std::uint64_t) {
             return baselines::voqcLikeOptimize(c, set);
         }},
        {"bqskit", [set, obj, budget](const ir::Circuit &c,
                                      std::uint64_t seed) {
             return baselines::partitionResynth(c, set, obj, 1e-5,
                                                budget, seed)
                 .circuit;
         }},
        {"queso", beamTool(32)},
        {"quartz", beamTool(128)},
        {"quarl", [set, obj, budget](const ir::Circuit &c,
                                     std::uint64_t seed) {
             baselines::RlLikeOptions o;
             o.objective = obj;
             o.timeBudgetSeconds = budget;
             o.seed = seed;
             return baselines::rlLikeOptimize(c, set, o);
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

    Comparison cmp;
    cmp.metricName = "2q gate reduction";
    cmp.metricKey = "2q_reduction";
    cmp.metric = [](const ir::Circuit &before, const ir::Circuit &after) {
        return reduction(before.twoQubitGateCount(),
                         after.twoQubitGateCount());
    };

    runComparison(ctx, suite, guoq, tools, cmp);
}

const CaseRegistrar kTable3("table3", "implemented optimizer taxonomy",
                            5, runTable3);
const CaseRegistrar kFig1(
    "fig1", "GUOQ vs state-of-the-art (ibmq20, 2q reduction)", 10,
    runFig1);

} // namespace
