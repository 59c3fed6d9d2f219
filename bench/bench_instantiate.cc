/**
 * @file
 * Perf trajectory of numerical instantiation's inner loop: cost +
 * gradient calls per second under two tools — `legacy`
 * (reference::hsCostAndGrad: per-call ir::Gate/matrix allocation,
 * dense O(dim^3) absorb of every gate into B, a prefix copy per
 * gradient entry) and `evaluator` (synth::AnsatzEvaluator: slots
 * bound once, gates applied in place in one arena, generator fused
 * into the gradient trace) — on the per-layer probes' ansätze at 2
 * and 3 qubits.
 *
 * Both tools see the same parameter points, and the evaluator must
 * reproduce the legacy numbers bit for bit: the `max_abs_dcost` and
 * `max_abs_dgrad` guard rows are exactly 0, and the run panics
 * otherwise. Call counts scale with --scale.
 *
 * The solver rows fit each probe's ansatz to seeded random targets it
 * can reach, with the old solver (`adam`: reference::instantiateAdam)
 * and the current one (`lm`: synth::instantiate, Levenberg–Marquardt),
 * at the per-call ε of an ε = 1e-5 GUOQ run and QSearch's four starts.
 * Each fit draws its starts from its own seeded Rng, the same for both
 * solvers. The target count scales with --scale (32 at scale 1).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/registry.h"
#include "ir/circuit.h"
#include "reference/instantiate.h"
#include "sim/unitary_sim.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"
#include "synth/instantiate.h"
#include "synth/qsearch.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

struct Probe
{
    std::string name;
    synth::Ansatz ansatz;
    linalg::ComplexMatrix target;
};

/**
 * The perfbench probes' ansätze: two CX blocks on (0,1) at 2 qubits
 * against a fixed 2-qubit Nam circuit, and the two-block 3-qubit
 * ansatz against CCX.
 */
std::vector<Probe>
probes()
{
    std::vector<Probe> out;

    synth::Ansatz a2 = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a2, 0, 1, false);
    synth::appendEntanglerBlock(&a2, 0, 1, false);
    ir::Circuit t2(2);
    t2.h(0);
    t2.cx(0, 1);
    t2.rz(0.7, 1);
    t2.h(1);
    t2.cx(1, 0);
    t2.rz(-1.3, 0);
    out.push_back({"instantiate_2q", a2, sim::circuitUnitary(t2)});

    synth::Ansatz a3 = synth::initialAnsatz(3);
    synth::appendEntanglerBlock(&a3, 0, 1, false);
    synth::appendEntanglerBlock(&a3, 1, 2, false);
    ir::Circuit ccx(3);
    ccx.ccx(0, 1, 2);
    out.push_back({"instantiate_3q", a3, sim::circuitUnitary(ccx)});
    return out;
}

/** One tool's pass over the points: seconds, costs and gradients. */
struct Pass
{
    double seconds = 0;
    std::vector<double> costs;
    std::vector<std::vector<double>> grads;
};

template <typename Fn>
Pass
timePass(const std::vector<std::vector<double>> &points, long calls,
         Fn &&fn)
{
    Pass p;
    p.costs.resize(points.size());
    p.grads.resize(points.size());
    std::vector<double> grad;
    const support::Timer timer;
    for (long c = 0; c < calls; ++c) {
        const std::size_t i = static_cast<std::size_t>(c) % points.size();
        p.costs[i] = fn(points[i], &grad);
        p.grads[i] = grad;
    }
    p.seconds = timer.seconds();
    return p;
}

/** One solver's totals over a probe's targets. */
struct SolverTally
{
    int fits = 0;
    int successes = 0;
    long successEvaluations = 0; //!< over fits that succeeded
    long jacobians = 0;         //!< Jacobian (adam: gradient) calls
    double seconds = 0;
};

/**
 * Fit @p probe's ansatz to @p num_targets seeded random reachable
 * targets (its unitary at uniform random angles) with both solvers.
 */
std::pair<SolverTally, SolverTally>
fitTargets(const Probe &probe, int num_targets, std::uint64_t seed)
{
    // The per-call ε of an ε = 1e-5 GUOQ run (core::perCallEpsilon).
    constexpr double kEpsilon = 1e-5 / 16;
    const int starts = synth::QSearchOptions{}.restartsPerNode;
    const synth::Ansatz &a = probe.ansatz;
    SolverTally adam;
    SolverTally lm;
    for (int i = 0; i < num_targets; ++i) {
        support::Rng target_rng(seed * 1000003 +
                                static_cast<std::uint64_t>(i));
        std::vector<double> angles(static_cast<std::size_t>(a.numParams()));
        for (double &x : angles)
            x = target_rng.uniform(-M_PI, M_PI);
        const linalg::ComplexMatrix target =
            sim::circuitUnitary(a.instantiate(angles));
        const std::uint64_t fit_seed = target_rng();
        for (auto [tally, use_lm] : {std::pair<SolverTally *, bool>{&adam,
                                                                    false},
                                     {&lm, true}}) {
            support::Rng rng(fit_seed);
            const support::Timer timer;
            const support::Deadline deadline = support::Deadline::in(60);
            const synth::InstantiateResult r =
                use_lm ? synth::instantiate(a, target, kEpsilon, starts, rng,
                                            deadline)
                       : reference::instantiateAdam(a, target, kEpsilon,
                                                    starts, rng, deadline);
            tally->seconds += timer.seconds();
            ++tally->fits;
            tally->jacobians += r.jacobians;
            if (r.success) {
                ++tally->successes;
                tally->successEvaluations += r.evaluations;
            }
        }
    }
    return {adam, lm};
}

std::string
fmt(const char *spec, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, v);
    return buf;
}

/** The solver rows: success rate, calls to success, Jacobian calls. */
void
runSolvers(CaseContext &ctx, const Probe &probe, support::TextTable &table)
{
    const int num_targets = std::max(
        4, static_cast<int>(std::lround(32.0 * ctx.opts().scale)));
    for (int t = 0; t < ctx.opts().trials; ++t) {
        const std::uint64_t seed = ctx.opts().trialSeed(t);
        const auto [adam, lm] = fitTargets(probe, num_targets, seed);
        for (const auto &[tool, tally] :
             {std::pair<const char *, const SolverTally &>{"adam", adam},
              {"lm", lm}}) {
            const double per_fit = 1.0 / std::max(tally.fits, 1);
            const double values[] = {
                tally.successes * per_fit,
                static_cast<double>(tally.successEvaluations) /
                    std::max(tally.successes, 1),
                static_cast<double>(tally.jacobians) * per_fit,
                1e3 * tally.seconds * per_fit,
            };
            const char *metrics[] = {"success_rate", "evals_per_success",
                                     "jacobians_per_fit", "ms_per_fit"};
            for (std::size_t k = 0; k < 4; ++k) {
                CaseResult row;
                row.benchmark = probe.name;
                row.tool = tool;
                row.metric = metrics[k];
                row.value = values[k];
                row.seconds = tally.seconds;
                row.trial = t;
                row.seed = seed;
                ctx.record(std::move(row));
            }
            if (t == 0)
                table.addRow({probe.name, tool,
                              fmt("%.0f%%", 100 * values[0]),
                              fmt("%.0f", values[1]), fmt("%.0f", values[2]),
                              fmt("%.2f", values[3])});
        }
    }
}

void
runInstantiate(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Instantiation kernel: cost+gradient calls/sec, "
                    "allocation-free evaluator vs the legacy dense "
                    "kernel ===\n\n");

    const long calls = std::max<long>(
        200, static_cast<long>(20000.0 * ctx.opts().scale));
    support::TextTable table({"case", "tool", "calls/s", "speedup",
                              "max |dcost|", "max |dgrad|"});

    for (const Probe &probe : probes()) {
        const synth::Ansatz &a = probe.ansatz;
        double best_legacy = 0;
        double best_eval = 0;
        for (int t = 0; t < ctx.opts().trials; ++t) {
            const std::uint64_t seed = ctx.opts().trialSeed(t);
            support::Rng rng(seed);
            std::vector<std::vector<double>> points(16);
            for (std::vector<double> &x : points) {
                x.resize(static_cast<std::size_t>(a.numParams()));
                for (double &xi : x)
                    xi = rng.uniform(-M_PI, M_PI);
            }

            const Pass legacy = timePass(
                points, calls,
                [&](const std::vector<double> &x, std::vector<double> *g) {
                    return reference::hsCostAndGrad(a, probe.target, x, g);
                });
            synth::AnsatzEvaluator eval(a, probe.target);
            const Pass fast = timePass(
                points, calls,
                [&](const std::vector<double> &x, std::vector<double> *g) {
                    return eval.costAndGrad(x, g);
                });

            double dcost = 0;
            double dgrad = 0;
            for (std::size_t i = 0; i < points.size(); ++i) {
                dcost = std::max(dcost,
                                 std::abs(legacy.costs[i] - fast.costs[i]));
                for (std::size_t k = 0; k < legacy.grads[i].size(); ++k)
                    dgrad = std::max(dgrad, std::abs(legacy.grads[i][k] -
                                                     fast.grads[i][k]));
            }

            const double legacy_cps =
                legacy.seconds > 0 ? calls / legacy.seconds : 0.0;
            const double eval_cps =
                fast.seconds > 0 ? calls / fast.seconds : 0.0;
            for (const auto &[tool, cps, secs] :
                 {std::tuple<const char *, double, double>{
                      "legacy", legacy_cps, legacy.seconds},
                  {"evaluator", eval_cps, fast.seconds}}) {
                CaseResult row;
                row.benchmark = probe.name;
                row.tool = tool;
                row.metric = "calls_per_second";
                row.value = cps;
                row.seconds = secs;
                row.trial = t;
                row.seed = seed;
                ctx.record(std::move(row));
            }
            for (const auto &[metric, value] :
                 {std::pair<const char *, double>{"max_abs_dcost", dcost},
                  {"max_abs_dgrad", dgrad}}) {
                CaseResult guard;
                guard.benchmark = probe.name;
                guard.tool = "evaluator";
                guard.metric = metric;
                guard.value = value;
                guard.trial = t;
                guard.seed = seed;
                ctx.record(std::move(guard));
            }

            if (t == 0 || legacy_cps > best_legacy)
                best_legacy = legacy_cps;
            if (t == 0 || eval_cps > best_eval)
                best_eval = eval_cps;
            if (t == 0) {
                table.addRow({probe.name, "legacy",
                              fmt("%.0f", legacy_cps), "1.00x", "-", "-"});
                table.addRow({probe.name, "evaluator",
                              fmt("%.0f", eval_cps),
                              fmt("%.2fx",
                                  eval_cps / std::max(legacy_cps, 1e-9)),
                              fmt("%g", dcost), fmt("%g", dgrad)});
            }
            if (dcost != 0 || dgrad != 0)
                support::panic("instantiate: the evaluator diverged from "
                               "the legacy kernel");
        }

        // Aggregate: best-of-trials speedup — the acceptance metric at
        // 3 qubits.
        CaseResult agg;
        agg.benchmark = probe.name;
        agg.tool = "evaluator";
        agg.metric = "speedup_vs_legacy";
        agg.value = best_legacy > 0 ? best_eval / best_legacy : 0.0;
        agg.trial = 0;
        agg.seed = ctx.opts().trialSeed(0);
        ctx.record(std::move(agg));
    }

    if (ctx.pretty()) {
        table.print();
        std::printf("\nshape check: the evaluator reproduces the legacy "
                    "cost and gradient bit for bit (guards exactly 0) "
                    "and the 3-qubit probe speeds up >= 3x.\n\n"
                    "=== Solvers: Adam (old) vs Levenberg-Marquardt on "
                    "seeded reachable targets ===\n\n");
    }
    support::TextTable solvers({"case", "solver", "success",
                                "evals/success", "jacobians/fit", "ms/fit"});
    for (const Probe &probe : probes())
        runSolvers(ctx, probe, solvers);
    if (ctx.pretty())
        solvers.print();
}

const CaseRegistrar kInstantiate(
    "instantiate",
    "allocation-free instantiation evaluator vs legacy dense kernel: "
    "cost+gradient calls/sec; Adam vs Levenberg-Marquardt fits",
    335, runInstantiate);

} // namespace
