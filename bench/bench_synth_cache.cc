/**
 * @file
 * Perf trajectory of the content-addressed synthesis cache
 * (synth::SynthService): run a resynthesis-heavy panel cold (empty
 * cache) and again warm (same service, same seeds), and record the
 * cache traffic plus output identity. The warm pass must re-search at
 * least 2x fewer subcircuits and reproduce the cold pass's circuits
 * exactly — the PR-006 acceptance criterion, measured here as the
 * `synthcache` case of guoq-bench-v1 (BENCH_006.json).
 */

#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"
#include "support/table.h"
#include "synth/service.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"
#include "workloads/variational.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

std::vector<workloads::Benchmark>
resynthPanel(ir::GateSetKind set)
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

void
runSynthCache(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Synthesis cache: cold vs warm passes over a "
                    "resynthesis-heavy panel ===\n\n");

    const ir::GateSetKind set = ir::GateSetKind::Ibmq20;
    const auto circuits = resynthPanel(set);

    // Strictly iteration-capped runs: the wall budget must never bind
    // or the faster warm pass would run further and diverge — the
    // passes must differ only in cache temperature.
    GuoqSpec spec;
    spec.set = set;
    spec.baseBudgetSeconds = 1e6;
    spec.cfg.epsilonTotal = 1e-5;
    spec.cfg.maxIterations = 600;
    spec.cfg.resynthProbability = 0.05;
    spec.cfg.resynthCallSeconds = 5.0;

    support::TextTable table({"benchmark", "pass", "2q out", "hits",
                              "misses", "identical"});
    long cold_misses = 0, warm_misses = 0, warm_hits = 0;

    for (int t = 0; t < ctx.opts().trials; ++t) {
        const std::uint64_t seed = ctx.opts().trialSeed(t);
        // One isolated service per trial so the case never leaks
        // state into (or reads state from) other bench cases.
        synth::SynthService service;
        service.enableCache(true);
        spec.cfg.synthService = &service;

        std::vector<std::string> cold_outputs(circuits.size());
        for (int pass = 0; pass < 2; ++pass) {
            const bool warm = pass == 1;
            for (std::size_t i = 0; i < circuits.size(); ++i) {
                const auto &b = circuits[i];
                const core::OptimizeReport r =
                    runGuoqPortfolio(ctx, spec, b.circuit, seed);
                const std::string out_text = r.circuit.toString();
                const bool identical =
                    warm && out_text == cold_outputs[i];
                if (!warm)
                    cold_outputs[i] = out_text;

                CaseResult row = ctx.takeRun();
                const synth::ResynthCounters tally = row.stats.synthCache;
                row.benchmark = b.name;
                row.tool = warm ? "warm" : "cold";
                row.metric = warm ? "warm_identical" : "final_2q";
                row.value = warm ? (identical ? 1.0 : 0.0)
                                 : static_cast<double>(
                                       r.circuit.twoQubitGateCount());
                row.trial = t;
                row.seed = seed;
                ctx.record(std::move(row));

                if (warm) {
                    warm_misses += tally.misses;
                    warm_hits += tally.hits;
                } else {
                    cold_misses += tally.misses;
                }
                if (t == 0)
                    table.addRow(
                        {b.name, warm ? "warm" : "cold",
                         std::to_string(r.circuit.twoQubitGateCount()),
                         std::to_string(tally.hits),
                         std::to_string(tally.misses),
                         warm ? (identical ? "yes" : "NO") : "-"});
            }
        }
        spec.cfg.synthService = nullptr;
    }

    // Aggregate rows: the acceptance metric (>= 2x fewer searches
    // warm) in machine-readable form.
    CaseResult agg;
    agg.benchmark = "*";
    agg.tool = "warm";
    agg.metric = "search_reduction";
    agg.value = warm_misses > 0 ? static_cast<double>(cold_misses) /
                                      static_cast<double>(warm_misses)
                                : static_cast<double>(cold_misses);
    agg.trial = 0;
    agg.seed = ctx.opts().trialSeed(0);
    agg.stats.synthCache.hits = warm_hits;
    agg.stats.synthCache.misses = warm_misses;
    ctx.record(std::move(agg));

    if (ctx.pretty()) {
        table.print();
        std::printf("\ncold misses %ld, warm hits %ld, warm misses "
                    "%ld\nshape check: warm passes replay cold "
                    "searches from the cache (>= 2x fewer misses) and "
                    "reproduce the cold outputs exactly.\n",
                    cold_misses, warm_hits, warm_misses);
    }
}

const CaseRegistrar kSynthCache("synthcache",
                                "content-addressed synthesis cache: "
                                "cold vs warm passes",
                                310, runSynthCache);

} // namespace
