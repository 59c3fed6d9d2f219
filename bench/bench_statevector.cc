/**
 * @file
 * Perf trajectory of the statevector gate-application path: time a
 * sampling-verification-style shot (random product-state prep + one
 * deep circuit) per register width under three tools — `generic`
 * (gate-by-gate legacy matrix apply), `scalar` (specialized kernels,
 * fusion and cache blocking, SIMD forced off), and the detected SIMD
 * backend (`avx2`/`neon`) when one exists — and record per-width
 * speedups over `generic` plus a max-amplitude-difference guard that
 * the tools computed the same state. The PR-007 acceptance criterion
 * (>= 4x SIMD / >= 2x scalar on a 20+-qubit shot) is measured here as
 * the `statevector` case of guoq-bench-v1 (BENCH_007.json); the
 * methodology is documented in docs/PERFORMANCE.md. The case panics
 * when a kernel tool's state differs from the generic one by 1e-12 or
 * more, so the bench_guards CTest holds that guard.
 *
 * Widths scale with --scale so the guard run (0.05) stays in the
 * 12/16-qubit range while artifact runs (>= 0.5) include the 20-qubit
 * acceptance width (and 22 at scale >= 2).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/registry.h"
#include "ir/circuit.h"
#include "ir/gate_set.h"
#include "sim/kernels.h"
#include "sim/statevector.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using namespace guoq;
using namespace guoq::bench;
using linalg::Complex;

/** A deep random circuit over the IBM Eagle native set (Rz, SX, X,
 *  CX): a realistic mix of diagonal, dense, and permutation kernels. */
ir::Circuit
randomShotCircuit(int num_qubits, int num_gates, support::Rng &rng)
{
    const std::vector<ir::GateKind> &kinds =
        ir::nativeGates(ir::GateSetKind::IbmEagle);
    ir::Circuit c(num_qubits);
    for (int i = 0; i < num_gates; ++i) {
        const ir::GateKind kind = kinds[rng.index(kinds.size())];
        if (ir::gateArity(kind) == 2) {
            if (num_qubits < 2) {
                --i;
                continue;
            }
            const int a = static_cast<int>(
                rng.index(static_cast<std::size_t>(num_qubits)));
            int b = a;
            while (b == a)
                b = static_cast<int>(
                    rng.index(static_cast<std::size_t>(num_qubits)));
            c.add(kind, {a, b});
            continue;
        }
        const int q = static_cast<int>(
            rng.index(static_cast<std::size_t>(num_qubits)));
        std::vector<double> params;
        for (int p = 0; p < ir::gateParamCount(kind); ++p)
            params.push_back(rng.uniform(-M_PI, M_PI));
        c.add(kind, {q}, std::move(params));
    }
    return c;
}

/** The sampling backend's shot prep: one Haar-random U3 per qubit. */
ir::Circuit
randomPrep(int num_qubits, support::Rng &rng)
{
    ir::Circuit prep(num_qubits);
    for (int q = 0; q < num_qubits; ++q) {
        const double theta = std::acos(1.0 - 2.0 * rng.uniform());
        const double phi = rng.uniform(0, 2.0 * M_PI);
        prep.add(ir::GateKind::U3, {q}, {theta, phi, 0.0});
    }
    return prep;
}

struct ShotOutcome
{
    double seconds = 0;
    sim::StateVector state{0};
};

/** One timed shot: |0..0> -> prep -> circuit, through @p generic's
 *  path or the kernel path under the current SIMD policy. */
ShotOutcome
timedShot(const ir::Circuit &prep, const ir::Circuit &c, bool generic)
{
    ShotOutcome out;
    sim::StateVector sv(c.numQubits());
    const support::Timer timer;
    if (generic) {
        sv.applyGeneric(prep);
        sv.applyGeneric(c);
    } else {
        sv.apply(prep);
        sv.apply(c);
    }
    out.seconds = timer.seconds();
    out.state = std::move(sv);
    return out;
}

std::string
fmt(const char *spec, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, v);
    return buf;
}

double
maxAbsDiff(const sim::StateVector &a, const sim::StateVector &b)
{
    double worst = 0;
    for (std::size_t i = 0; i < a.dim(); ++i) {
        const double d = std::abs(a.amplitudes()[i] - b.amplitudes()[i]);
        if (std::isnan(d))
            return d; // std::max would drop it
        worst = std::max(worst, d);
    }
    return worst;
}

void
runStatevector(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Statevector kernels: sampling-verify shot "
                    "time vs the generic apply ===\n\n");

    std::vector<int> widths = {12, 16};
    if (ctx.opts().scale >= 0.5)
        widths.push_back(20);
    if (ctx.opts().scale >= 2.0)
        widths.push_back(22);

    // Tool order matters: generic runs first so the kernel tools can
    // be checked against its state. The SIMD tool only exists when the
    // hardware offers a backend beyond scalar.
    std::vector<std::string> tools = {"generic", "scalar"};
    {
        const sim::kernels::SimdPolicy saved = sim::kernels::simdPolicy();
        sim::kernels::setSimdPolicy(sim::kernels::SimdPolicy::Auto);
        const std::string simd = sim::kernels::backendName();
        sim::kernels::setSimdPolicy(saved);
        if (simd != "scalar")
            tools.push_back(simd);
    }

    support::TextTable table(
        {"case", "tool", "shot s", "speedup", "max |amp diff|"});
    std::string diverged; // the first tool and width that diverged

    for (const int n : widths) {
        support::Rng build_rng(900 + static_cast<std::uint64_t>(n));
        const ir::Circuit c = randomShotCircuit(n, 8 * n, build_rng);
        const std::string bench =
            support::strcat("verify_shot_", n, "q");

        std::vector<double> best(tools.size(), 0);
        for (int t = 0; t < ctx.opts().trials; ++t) {
            const std::uint64_t seed = ctx.opts().trialSeed(t);
            support::Rng prep_rng(seed);
            const ir::Circuit prep = randomPrep(n, prep_rng);

            sim::StateVector generic_state{0};
            for (std::size_t k = 0; k < tools.size(); ++k) {
                const std::string &tool = tools[k];
                sim::kernels::setSimdPolicy(
                    tool == "scalar"
                        ? sim::kernels::SimdPolicy::ForceScalar
                        : sim::kernels::SimdPolicy::Auto);
                const ShotOutcome shot =
                    timedShot(prep, c, tool == "generic");
                sim::kernels::setSimdPolicy(
                    sim::kernels::SimdPolicy::Auto);

                const double diff =
                    k == 0 ? 0.0
                           : maxAbsDiff(shot.state, generic_state);
                if (k == 0)
                    generic_state = shot.state;
                if (!(diff < 1e-12) && diverged.empty())
                    diverged = support::strcat(tool, " at ", bench,
                                               ", max |amp diff| ", diff);

                CaseResult row;
                row.benchmark = bench;
                row.tool = tool;
                row.metric = "shot_seconds";
                row.value = shot.seconds;
                row.seconds = shot.seconds;
                row.trial = t;
                row.seed = seed;
                ctx.record(std::move(row));

                if (k > 0) {
                    CaseResult guard;
                    guard.benchmark = bench;
                    guard.tool = tool;
                    guard.metric = "max_amp_diff_vs_generic";
                    guard.value = diff;
                    guard.trial = t;
                    guard.seed = seed;
                    ctx.record(std::move(guard));
                }

                if (t == 0 || shot.seconds < best[k])
                    best[k] = shot.seconds;
                if (t == 0)
                    table.addRow(
                        {bench, tool, fmt("%.4f", shot.seconds),
                         k == 0 ? "1.00x"
                                : fmt("%.2fx",
                                      best[0] / shot.seconds),
                         k == 0 ? "-" : fmt("%.2e", diff)});
            }
        }

        // Aggregate rows: best-of-trials speedup per kernel tool —
        // the acceptance metric at the 20-qubit width.
        for (std::size_t k = 1; k < tools.size(); ++k) {
            CaseResult agg;
            agg.benchmark = bench;
            agg.tool = tools[k];
            agg.metric = "speedup_vs_generic";
            agg.value = best[k] > 0 ? best[0] / best[k] : 0.0;
            agg.trial = 0;
            agg.seed = ctx.opts().trialSeed(0);
            ctx.record(std::move(agg));
        }
    }

    if (!diverged.empty())
        support::panic("statevector: a kernel tool diverged from the "
                       "generic apply: " + diverged);

    if (ctx.pretty()) {
        table.print();
        std::printf("\nshape check: the kernel path reproduces the "
                    "generic state (max |amp diff| ~ 1e-15) and the "
                    "20+-qubit shot speeds up >= 2x scalar, >= 4x with "
                    "a SIMD backend.\n");
    }
}

const CaseRegistrar kStatevector("statevector",
                                 "statevector kernels vs generic "
                                 "apply: sampling-verify shot times",
                                 320, runStatevector);

} // namespace
