/**
 * @file
 * Fig. 14 (Q4): running GUOQ on the PyZX stand-in's output — the
 * ZX-style pass drains T count but never touches CX; GUOQ then cuts
 * CX without increasing T (the 2·#T + #CX objective forbids trades
 * that raise T). Records T and CX at each pipeline stage.
 */

#include <cstdio>

#include "baselines/phase_poly.h"
#include "bench/harness.h"
#include "bench/registry.h"
#include "support/table.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runFig14(CaseContext &ctx)
{
    const ir::GateSetKind set = ir::GateSetKind::CliffordT;
    const auto suite = benchSuiteFor(set, suiteCap(ctx.opts(), 12));

    if (ctx.pretty())
        std::printf("=== Fig. 14: GUOQ on PyZX output (clifford+t) "
                    "===\n\n");

    GuoqSpec spec;
    spec.set = set;
    spec.baseBudgetSeconds = 4.0;
    spec.cfg.epsilonTotal = 1e-5;
    spec.cfg.objective = core::Objective::TThenTwoQubit;

    support::TextTable table({"benchmark", "T in", "T pyzx", "T +guoq",
                              "CX in", "CX pyzx", "CX +guoq"});
    int t_never_increased = 0;
    int cx_reduced = 0;
    double cx_red_sum = 0;
    for (const workloads::Benchmark &b : suite) {
        const ir::Circuit zx =
            baselines::phasePolyOptimize(b.circuit, set);
        for (int t = 0; t < ctx.opts().trials; ++t) {
            const std::uint64_t seed = ctx.opts().trialSeed(t);
            const ir::Circuit out = runGuoq(ctx, spec, zx, seed);
            const CaseResult run = ctx.takeRun();

            const struct
            {
                const char *tool;
                const ir::Circuit &c;
                bool portfolio; //!< stage backed by the GUOQ run
            } stages[] = {{"input", b.circuit, false},
                          {"pyzx", zx, false},
                          {"pyzx+guoq", out, true}};
            for (const auto &stage : stages) {
                CaseResult t_row = stage.portfolio ? run : CaseResult{};
                t_row.benchmark = b.name;
                t_row.tool = stage.tool;
                t_row.metric = "t_count";
                t_row.value =
                    static_cast<double>(stage.c.tGateCount());
                t_row.trial = t;
                t_row.seed = seed;
                ctx.record(std::move(t_row));
                CaseResult cx_row = stage.portfolio ? run : CaseResult{};
                cx_row.benchmark = b.name;
                cx_row.tool = stage.tool;
                cx_row.metric = "2q_count";
                cx_row.value =
                    static_cast<double>(stage.c.twoQubitGateCount());
                cx_row.trial = t;
                cx_row.seed = seed;
                ctx.record(std::move(cx_row));
            }
            if (t > 0)
                continue;
            // The table and shape-check counters summarize trial 0,
            // matching the single-run legacy output.
            table.addRow({b.name,
                          std::to_string(b.circuit.tGateCount()),
                          std::to_string(zx.tGateCount()),
                          std::to_string(out.tGateCount()),
                          std::to_string(b.circuit.twoQubitGateCount()),
                          std::to_string(zx.twoQubitGateCount()),
                          std::to_string(out.twoQubitGateCount())});
            if (out.tGateCount() <= zx.tGateCount())
                ++t_never_increased;
            if (out.twoQubitGateCount() < zx.twoQubitGateCount())
                ++cx_reduced;
            cx_red_sum += reduction(zx.twoQubitGateCount(),
                                    out.twoQubitGateCount());
        }
    }

    const double n = static_cast<double>(suite.size());
    auto aggregate = [&ctx](const std::string &metric, double value) {
        CaseResult row;
        row.benchmark = "*";
        row.tool = "pyzx+guoq";
        row.metric = metric;
        row.value = value;
        ctx.record(std::move(row));
    };
    aggregate("t_non_increasing", t_never_increased);
    aggregate("cx_reduced", cx_reduced);
    if (n > 0)
        aggregate("2q_reduction_avg", cx_red_sum / n);

    if (!ctx.pretty())
        return;
    table.print();
    std::printf("\nT count non-increasing after guoq: %d/%zu\n",
                t_never_increased, suite.size());
    std::printf("CX reduced on pyzx output: %d/%zu (avg CX reduction "
                "%s)\n",
                cx_reduced, suite.size(),
                support::fmtPct(cx_red_sum / n).c_str());
}

const CaseRegistrar kFig14("fig14", "GUOQ on PyZX output (clifford+t)",
                           140, runFig14);

} // namespace
