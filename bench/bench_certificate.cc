/**
 * @file
 * The `verify_certificate` case: the cost of checking a GUOQ output by
 * replaying its derivation (the `certificate` checker) against
 * re-simulating the whole circuit (`dense` up to 10 qubits, `sampling`
 * above), on serve-like requests: the Nam suite circuits of at most 8
 * qubits and 200 gates plus a 14-qubit GHZ, optimized the way a served
 * request is (ε 1e-5, 150 iterations, 2-qubit resynthesis, recording
 * on). Rows are per-request check milliseconds per tool, their totals,
 * and the speedup.
 *
 * Agreement guard: every certificate must check, and on the circuits
 * the dense backend can take its distance must not be below the
 * cancellation-free whole-circuit distance (it is an upper bound). A
 * violation panics, so the bench_guards CTest holds the contract.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/guoq.h"
#include "linalg/unitary.h"
#include "sim/unitary_sim.h"
#include "support/logging.h"
#include "support/table.h"
#include "support/timer.h"
#include "transpile/to_gate_set.h"
#include "verify/checker.h"
#include "workloads/standard.h"
#include "workloads/suite.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

/** serve's sampling shots (the serve_stream benchmark's setting). */
constexpr long kShots = 32;

std::vector<workloads::Benchmark>
requests(double scale)
{
    std::vector<workloads::Benchmark> out;
    for (workloads::Benchmark &b : workloads::suiteFor(ir::GateSetKind::Nam))
        if (b.circuit.numQubits() <= 8 && b.circuit.size() <= 200)
            out.push_back(std::move(b));
    // Scale 1 takes every request; the guard run a handful.
    const auto keep = static_cast<std::size_t>(
        std::max(4.0, static_cast<double>(out.size()) * std::min(scale, 1.0)));
    if (out.size() > keep)
        out.resize(keep);
    out.push_back({"ghz_14", "ghz",
                   transpile::toGateSet(workloads::ghz(14),
                                        ir::GateSetKind::Nam)});
    return out;
}

/** A distance in scientific notation (they are ~1e-16 to ~1e-6). */
std::string
distanceText(double d)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2e", d);
    return buf;
}

/** Best of @p reps timings of @p fn, in milliseconds. */
template <typename Fn>
double
bestMs(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        support::Timer t;
        fn();
        best = std::min(best, 1e3 * t.seconds());
    }
    return best;
}

void
runVerifyCertificate(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Verification of served outputs: certificate "
                    "replay vs whole-circuit check ===\n\n");

    const verify::CheckerRegistry &checkers =
        verify::CheckerRegistry::global();
    const verify::EquivalenceChecker *cert = checkers.find("certificate");
    const verify::EquivalenceChecker *dense = checkers.find("dense");
    const verify::EquivalenceChecker *sampling = checkers.find("sampling");

    support::TextTable table({"request", "qubits", "steps", "whole",
                              "whole ms", "certificate ms", "distance"});
    double cert_total = 0, whole_total = 0;
    bool agree = true;
    const std::uint64_t seed = ctx.opts().trialSeed(0);

    for (const workloads::Benchmark &b : requests(ctx.opts().scale)) {
        core::GuoqConfig cfg;
        cfg.epsilonTotal = 1e-5;
        cfg.timeBudgetSeconds = 1e9;
        cfg.maxIterations = 150;
        cfg.maxSubcircuitQubits = 2;
        cfg.seed = seed;
        cfg.recordDerivation = true;
        const core::GuoqResult run =
            core::optimize(b.circuit, ir::GateSetKind::Nam, cfg);

        verify::VerifyRequest req;
        req.epsilon = cfg.epsilonTotal;
        req.tolerance = 1e-6;
        req.shots = kShots;
        req.seed = seed;
        req.derivation = &run.derivation;
        const bool narrow =
            b.circuit.numQubits() <= verify::kDenseAutoMaxQubits;
        const verify::EquivalenceChecker *whole = narrow ? dense : sampling;

        verify::VerifyReport cr;
        const double cert_ms =
            bestMs(3, [&] { cr = cert->run(b.circuit, run.best, req); });
        const double whole_ms =
            bestMs(3, [&] { (void)whole->run(b.circuit, run.best, req); });
        cert_total += cert_ms;
        whole_total += whole_ms;

        bool ok = cr.verdict == verify::Verdict::Equivalent;
        if (narrow) {
            const linalg::ComplexMatrix u = sim::circuitUnitary(b.circuit);
            const linalg::ComplexMatrix v = sim::circuitUnitary(run.best);
            ok = ok && cr.distanceEstimate >=
                           linalg::phaseAlignedDistance(u.data(), v.data(),
                                                        u.rows()) -
                               1e-9;
        }
        agree = agree && ok;

        for (const auto &[tool, ms] :
             {std::pair<std::string, double>{"certificate", cert_ms},
              {whole->info().name, whole_ms}}) {
            CaseResult row;
            row.benchmark = b.name;
            row.tool = tool;
            row.metric = "check_ms";
            row.value = ms;
            row.seconds = ms / 1e3;
            row.seed = seed;
            ctx.record(std::move(row));
        }
        table.addRow({b.name, std::to_string(b.circuit.numQubits()),
                      std::to_string(run.derivation.steps.size()),
                      whole->info().name, support::fmt(whole_ms, 3),
                      support::fmt(cert_ms, 3),
                      distanceText(cr.distanceEstimate)});
    }

    const std::pair<const char *, double> aggregates[] = {
        {"certificate_total_ms", cert_total},
        {"whole_total_ms", whole_total},
        {"speedup", whole_total / std::max(cert_total, 1e-9)},
        {"agreement", agree ? 1.0 : 0.0},
    };
    for (const auto &[metric, value] : aggregates) {
        CaseResult agg;
        agg.benchmark = "*";
        agg.tool = "certificate";
        agg.metric = metric;
        agg.value = value;
        agg.seed = seed;
        ctx.record(std::move(agg));
    }

    if (ctx.pretty()) {
        table.print();
        std::printf("\ncheck time: whole-circuit %.2f ms, certificate "
                    "%.2f ms (%.1fx)\nshape check: every certificate "
                    "checks, bounds the dense distance from above, and "
                    "costs a fraction of the whole-circuit check.\n",
                    whole_total, cert_total,
                    whole_total / std::max(cert_total, 1e-9));
    }
    if (!agree)
        support::panic("verify_certificate: a certificate failed or "
                       "undercut the dense distance");
}

const CaseRegistrar kVerifyCertificate(
    "verify_certificate",
    "certificate replay vs dense/sampling check time on serve-like "
    "requests, with an agreement guard",
    340, runVerifyCertificate);

} // namespace
