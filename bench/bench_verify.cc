/**
 * @file
 * Verification micro-benchmark: dense vs sampling equivalence checks
 * across circuit widths. Times both backends where both fit, and
 * shows the sampling backend carrying on past the dense cap — the
 * scaling the verification layer exists for. Rows: per (width,
 * backend) the distance estimate, the reported confidence bound, and
 * the wall seconds of the check.
 */

#include <algorithm>
#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"
#include "sim/unitary_sim.h"
#include "support/logging.h"
#include "support/table.h"
#include "transpile/to_gate_set.h"
#include "verify/checker.h"
#include "workloads/standard.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

void
runVerify(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== verify: dense vs sampling equivalence "
                    "checks ===\n\n");

    // Shots scale with the run budget knob so `--scale 0.02` smokes
    // stay cheap; the floor keeps the bound finite and meaningful.
    const long shots =
        std::max(32L, static_cast<long>(256 * ctx.opts().scale));

    support::TextTable table(
        {"qubits", "backend", "distance", "bound", "seconds"});
    for (const int n : {6, 8, 10, 12, 14}) {
        // A QFT pair with an appended identity (CX·CX) so the check
        // compares two different gate lists of the same unitary.
        const ir::Circuit a =
            transpile::toGateSet(workloads::qft(n), ir::GateSetKind::Nam);
        ir::Circuit b = a;
        b.cx(0, 1);
        b.cx(0, 1);

        for (const auto *checker :
             verify::CheckerRegistry::global().all()) {
            if (checker->info().name == "auto")
                continue; // the policy adds no data over its backends
            // Keep dense inside the auto-policy region: at 11-12
            // qubits it still fits the hard cap but costs minutes,
            // which is the point the sampling rows make instead.
            if (checker->info().name == "dense" &&
                n > verify::kDenseAutoMaxQubits)
                continue;
            for (int trial = 0; trial < ctx.opts().trials; ++trial) {
                verify::VerifyRequest req;
                req.shots = shots;
                req.seed = ctx.opts().trialSeed(trial);
                req.threads = ctx.opts().threads;
                if (!checker->checkRequest(a, b, req).empty())
                    continue; // dense past its cap
                const verify::VerifyReport r = checker->run(a, b, req);

                CaseResult row;
                row.benchmark = support::strcat("qft", n);
                row.tool = r.method;
                row.metric = "hs_distance_estimate";
                row.value = r.distanceEstimate;
                row.seconds = r.wallSeconds;
                row.trial = trial;
                row.seed = req.seed;
                ctx.record(row);
                row.metric = "hs_distance_bound";
                row.value = r.bound;
                ctx.record(row);

                if (trial == 0 && ctx.pretty())
                    table.addRow({std::to_string(n), r.method,
                                  support::fmt(r.distanceEstimate, 4),
                                  support::fmt(r.bound, 4),
                                  support::fmt(r.wallSeconds, 3)});
            }
        }
    }
    if (ctx.pretty()) {
        table.print();
        std::printf("\n(dense stops at %d qubits; sampling reports a "
                    "%ld-shot Hoeffding bound)\n",
                    sim::kMaxUnitaryQubits, shots);
    }
}

const CaseRegistrar kVerify(
    "verify", "dense vs sampling equivalence-check comparison", 230,
    runVerify);

} // namespace
