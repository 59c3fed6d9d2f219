/**
 * @file
 * Fig. 7: best-so-far 2q gate count over time for (1) rewrite rules
 * only, (2) resynthesis only, and (3) both combined, on the
 * barenco_tof and qft families — the motivating example of the
 * fast/slow synergy. Records the three time series per circuit (trace
 * points come from the single-thread portfolio path; a multi-thread
 * run has no single trajectory and records finals only).
 */

#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runSeries(CaseContext &ctx, const char *name, const ir::Circuit &c,
          ir::GateSetKind set)
{
    struct Mode
    {
        const char *label;
        core::TransformSelection selection;
    };
    const Mode modes[] = {
        {"combined", core::TransformSelection::Combined},
        {"rewrite-only", core::TransformSelection::RewriteOnly},
        {"resynth-only", core::TransformSelection::ResynthOnly},
    };

    if (ctx.pretty())
        std::printf("--- %s (%zu gates, %zu 2q) ---\n", name, c.size(),
                    c.twoQubitGateCount());
    for (const Mode &mode : modes) {
        GuoqSpec spec;
        spec.set = set;
        spec.baseBudgetSeconds = 8.0;
        spec.cfg.epsilonTotal = 1e-5;
        spec.cfg.selection = mode.selection;
        spec.cfg.recordTrace = true;
        for (int t = 0; t < ctx.opts().trials; ++t) {
            const std::uint64_t seed = ctx.opts().trialSeed(t);
            const core::OptimizeReport r =
                runGuoqPortfolio(ctx, spec, c, seed);
            if (ctx.pretty() && t == 0) {
                std::printf("%-13s:", mode.label);
                for (const core::TracePoint &p : r.trace)
                    std::printf(" %.1fs:%zu", p.seconds,
                                p.twoQubitCount);
                std::printf("  (final %zu)\n",
                            r.circuit.twoQubitGateCount());
            }
            for (const core::TracePoint &p : r.trace) {
                CaseResult row;
                row.benchmark = name;
                row.tool = mode.label;
                row.metric = "best_2q";
                row.value = static_cast<double>(p.twoQubitCount);
                row.seconds = p.seconds;
                row.trial = t;
                row.seed = seed;
                ctx.record(std::move(row));
            }
            CaseResult final_row = ctx.takeRun();
            final_row.benchmark = name;
            final_row.tool = mode.label;
            final_row.metric = "final_2q";
            final_row.value =
                static_cast<double>(r.circuit.twoQubitGateCount());
            final_row.seconds = r.stats.seconds;
            final_row.trial = t;
            final_row.seed = seed;
            ctx.record(std::move(final_row));
        }
    }
    if (ctx.pretty())
        std::printf("\n");
}

void
runFig7(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Fig. 7: fast vs slow vs combined (best-so-far "
                    "2q count over time) ===\n\n");
    const ir::GateSetKind set = ir::GateSetKind::Ibmq20;
    runSeries(ctx, "barenco_tof_4",
              transpile::toGateSet(workloads::barencoTof(4), set), set);
    runSeries(ctx, "qft_6",
              transpile::toGateSet(workloads::qft(6), set), set);
    if (ctx.pretty())
        std::printf("shape check: rewrite-only plateaus early; "
                    "resynth-only moves slowly; combined reaches the "
                    "lowest count.\n");
}

const CaseRegistrar kFig7(
    "fig7", "fast vs slow vs combined, best-so-far 2q over time", 70,
    runFig7);

} // namespace
