/**
 * @file
 * Table 1: characteristics of rewrite rules vs resynthesis — measured
 * rather than asserted. Records per-transformation latency (fast vs
 * slow), the size limits each is subject to (gates vs qubits), and
 * whether each can approximate.
 */

#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/transformation.h"
#include "rewrite/rule.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"
#include "synth/resynth.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runTable1(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Table 1: rewrite rules vs resynthesis ===\n\n");

    const ir::GateSetKind set = ir::GateSetKind::Nam;
    const ir::Circuit circuit =
        transpile::toGateSet(workloads::qft(8), set);
    std::vector<core::Transformation> rules;
    for (const rewrite::RewriteRule &rule : rewrite::rulesFor(set))
        rules.push_back(core::Transformation::fromRule(&rule));

    // The pretty table shows trial 0, matching the legacy single run.
    double rewrite_us = 0, resynth_ms_2q = 0, resynth_ms_3q = 0;
    for (int trial = 0; trial < ctx.opts().trials; ++trial) {
        const std::uint64_t seed = ctx.opts().trialSeed(trial);
        support::Rng rng(seed);

        // Fast path latency: full rule passes over a 100+ gate
        // circuit.
        support::Timer t1;
        const int passes = 5000;
        for (int i = 0; i < passes; ++i)
            (void)rules[rng.index(rules.size())].apply(circuit, rng);
        const double trial_rewrite_us = t1.seconds() / passes * 1e6;

        // Slow path latency: resynthesis of 2- and 3-qubit
        // subcircuits.
        double trial_ms_2q = 0, trial_ms_3q = 0;
        {
            ir::Circuit sub2(2);
            sub2.cx(0, 1);
            sub2.rz(0.3, 1);
            sub2.cx(0, 1);
            sub2.cx(1, 0);
            sub2.rz(0.4, 0);
            sub2.cx(1, 0);
            synth::ResynthOptions o;
            o.targetSet = set;
            o.epsilon = 1e-6;
            o.deadline = support::Deadline::in(30);
            support::Timer t2;
            synth::resynthesize(sub2, o, rng);
            trial_ms_2q = t2.seconds() * 1e3;

            ir::Circuit sub3(3);
            sub3.cx(0, 1);
            sub3.rz(0.5, 1);
            sub3.cx(0, 1);
            sub3.cx(1, 2);
            sub3.rz(0.7, 2);
            sub3.cx(1, 2);
            support::Timer t3;
            synth::resynthesize(sub3, o, rng);
            trial_ms_3q = t3.seconds() * 1e3;
        }

        auto latency = [&ctx, trial, seed](const std::string &tool,
                                           const std::string &metric,
                                           double value) {
            CaseResult row;
            row.benchmark = "qft_8";
            row.tool = tool;
            row.metric = metric;
            row.value = value;
            row.trial = trial;
            row.seed = seed;
            ctx.record(std::move(row));
        };
        latency("rewrite", "pass_us", trial_rewrite_us);
        latency("resynth", "call_ms_2q", trial_ms_2q);
        latency("resynth", "call_ms_3q", trial_ms_3q);
        if (trial == 0) {
            rewrite_us = trial_rewrite_us;
            resynth_ms_2q = trial_ms_2q;
            resynth_ms_3q = trial_ms_3q;
        }
    }

    if (!ctx.pretty())
        return;
    support::TextTable table(
        {"characteristic", "rewrite rules", "resynthesis"});
    table.addRow({"measured latency",
                  support::fmt(rewrite_us, 1) + " us/pass",
                  support::fmt(resynth_ms_2q, 0) + " ms (2q) / " +
                      support::fmt(resynth_ms_3q, 0) + " ms (3q)"});
    table.addRow({"fast", "yes", "no"});
    table.addRow({"limited by # gates", "yes (<= 5-gate patterns)",
                  "no (whole subcircuit unitary)"});
    table.addRow({"limited by # qubits", "no",
                  "yes (2^n x 2^n unitary, n <= 3)"});
    table.addRow({"approximate", "no (eps = 0 exact)",
                  "yes (any eps > 0)"});
    table.print();

    std::printf("\nshape check: rewrite pass is %.0fx faster than one "
                "2q resynthesis call\n",
                resynth_ms_2q * 1e3 / rewrite_us);
}

const CaseRegistrar kTable1(
    "table1", "measured rewrite vs resynthesis characteristics", 200,
    runTable1);

} // namespace
