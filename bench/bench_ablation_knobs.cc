/**
 * @file
 * Design-knob ablations the paper reports in prose (§5.3, §6), one
 * case per knob:
 *   ablation/temperature  — acceptance temperature t (paper picks 10);
 *   ablation/resynth-prob — resynthesis sampling probability (1.5%);
 *   ablation/async        — synchronous vs asynchronous resynthesis.
 * Each sweep records final 2q counts on a small circuit panel.
 */

#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"
#include "support/table.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"
#include "workloads/variational.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

std::vector<workloads::Benchmark>
panel(ir::GateSetKind set)
{
    std::vector<workloads::Benchmark> out;
    out.push_back({"barenco_tof_4", "tof",
                   transpile::toGateSet(workloads::barencoTof(4), set)});
    out.push_back({"qaoa_6", "qaoa",
                   transpile::toGateSet(workloads::qaoaMaxCut(6, 2, 11),
                                        set)});
    out.push_back({"qft_5", "qft",
                   transpile::toGateSet(workloads::qft(5), set)});
    return out;
}

GuoqSpec
ablationSpec(ir::GateSetKind set)
{
    GuoqSpec spec;
    spec.set = set;
    spec.baseBudgetSeconds = 3.0;
    spec.cfg.epsilonTotal = 1e-5;
    return spec;
}

/**
 * One knob sweep: runs GUOQ per (circuit, setting, trial) cell,
 * records a final_2q row per cell, and (pretty) prints the legacy
 * table (trial 0's counts, so the printed numbers stay comparable to
 * the single-run legacy output).
 */
void
runSweep(CaseContext &ctx, const std::vector<std::string> &labels,
         const std::function<GuoqSpec(std::size_t)> &specFor)
{
    const ir::GateSetKind set = ir::GateSetKind::Ibmq20;
    const auto circuits = panel(set);

    std::vector<std::string> headers{"benchmark", "2q in"};
    headers.insert(headers.end(), labels.begin(), labels.end());
    support::TextTable table(std::move(headers));
    for (const auto &b : circuits) {
        std::vector<std::string> row{
            b.name, std::to_string(b.circuit.twoQubitGateCount())};
        for (std::size_t i = 0; i < labels.size(); ++i) {
            const GuoqSpec spec = specFor(i);
            for (int t = 0; t < ctx.opts().trials; ++t) {
                const std::uint64_t seed = ctx.opts().trialSeed(t);
                const std::size_t final_2q =
                    runGuoq(ctx, spec, b.circuit, seed)
                        .twoQubitGateCount();
                CaseResult r = ctx.takeRun();
                r.benchmark = b.name;
                r.tool = labels[i];
                r.metric = "final_2q";
                r.value = static_cast<double>(final_2q);
                r.trial = t;
                r.seed = seed;
                ctx.record(std::move(r));
                if (t == 0)
                    row.push_back(std::to_string(final_2q));
            }
        }
        table.addRow(std::move(row));
    }
    if (ctx.pretty())
        table.print();
}

void
runTemperature(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Ablation 1: acceptance temperature t "
                    "(paper sweeps 0..10, picks 10) ===\n\n");
    const double temps[] = {0.0, 2.0, 10.0, 40.0};
    runSweep(ctx, {"t=0", "t=2", "t=10", "t=40"}, [&](std::size_t i) {
        GuoqSpec spec = ablationSpec(ir::GateSetKind::Ibmq20);
        spec.cfg.temperature = temps[i];
        return spec;
    });
    if (ctx.pretty())
        std::printf("shape check: t=0 (always accept worse) wanders; "
                    "large t is near-greedy and stable.\n\n");
}

void
runResynthProbability(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Ablation 2: resynthesis sampling probability "
                    "(paper: 1.5%%) ===\n\n");
    const double probs[] = {0.001, 0.015, 0.10, 0.50};
    runSweep(ctx, {"0.1%", "1.5%", "10%", "50%"}, [&](std::size_t i) {
        GuoqSpec spec = ablationSpec(ir::GateSetKind::Ibmq20);
        spec.cfg.resynthProbability = probs[i];
        return spec;
    });
    if (ctx.pretty())
        std::printf("shape check: too-low starves the slow mode; "
                    "too-high starves the fast mode (resynthesis "
                    "calls monopolize the budget).\n\n");
}

void
runAsyncResynth(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Ablation 3: synchronous vs asynchronous "
                    "resynthesis (paper 5.3) ===\n\n");
    runSweep(ctx, {"sync", "async"}, [&](std::size_t i) {
        GuoqSpec spec = ablationSpec(ir::GateSetKind::Ibmq20);
        spec.cfg.synthWorkers = i == 1 ? 1 : 0;
        return spec;
    });
    if (ctx.pretty())
        std::printf("shape check: async keeps rewriting while a "
                    "synthesis call is in flight, so it matches or "
                    "beats sync at equal wall clock.\n");
}

const CaseRegistrar kTemperature(
    "ablation/temperature", "acceptance temperature sweep (ibmq20)",
    300, runTemperature);
const CaseRegistrar kResynthProb(
    "ablation/resynth-prob",
    "resynthesis sampling probability sweep (ibmq20)", 301,
    runResynthProbability);
const CaseRegistrar kAsync(
    "ablation/async", "synchronous vs asynchronous resynthesis", 302,
    runAsyncResynth);

} // namespace
