/**
 * @file
 * Perf trajectory of the rewrite hot path: iterations/sec of a
 * GUOQ-style Metropolis rewrite loop (2q-count objective) under two
 * tools — `legacy` (applyRulePassRandom: fresh Matcher + full-circuit
 * rebuild + full-cost rescan per attempt) and `engine` (the
 * incremental rewrite::RewriteEngine: persistent DAG, kind-indexed
 * anchor buckets, delta-cost counters) — at three circuit sizes, with
 * per-size speedup aggregates. Both tools replay the identical
 * decision sequence (same RNG draws, bit-identical costs), so the run
 * doubles as an end-to-end differential check: the
 * `engine_matches_legacy` guard row is 1 only when the final circuits
 * are gate-for-gate equal.
 *
 * The PR-010 acceptance criterion (>= 5x iterations/sec at the
 * largest size) is measured here as the `rewrite_throughput` case of
 * guoq-bench-v1 (BENCH_008.json); methodology in docs/PERFORMANCE.md.
 * Iteration counts scale with --scale so the bench_guards run (0.05)
 * finishes in seconds while artifact runs exercise long loops. A
 * trial repeats each tool's fixed-iteration loop until it has run for
 * at least 100 ms × --scale, so the small sizes, whose loop takes a
 * few milliseconds, are not timed from one short burst.
 *
 * The `fusion_move` case times the same loop with the 1q-fusion move
 * mixed in at GUOQ's sampling rate (uniform over the rules plus
 * fusion, core::TransformationSet::sample) under two fusion tools:
 * `rebuild` (Transformation::apply's whole-circuit
 * fuseOneQubitRuns, then RewriteEngine::assign) and `engine`
 * (RewriteEngine::prepareFusion, which re-checks only the wires a
 * commit touched). Its `engine_matches_rebuild` guard row is 1 only
 * when both tools end on the same circuit after the same accepts.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/cost.h"
#include "core/framework.h"
#include "core/transformation.h"
#include "ir/circuit.h"
#include "ir/gate_set.h"
#include "reference/applier.h"
#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using namespace guoq;
using namespace guoq::bench;

/** A random circuit over the IBM Eagle native set (Rz, SX, X, CX). */
ir::Circuit
randomEagleCircuit(int num_qubits, int num_gates, support::Rng &rng)
{
    const std::vector<ir::GateKind> &kinds =
        ir::nativeGates(ir::GateSetKind::IbmEagle);
    ir::Circuit c(num_qubits);
    for (int i = 0; i < num_gates; ++i) {
        const ir::GateKind kind = kinds[rng.index(kinds.size())];
        if (ir::gateArity(kind) == 2) {
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

struct LoopOutcome
{
    double seconds = 0;
    long accepted = 0;
    ir::Circuit final_;
};

/** Shared Metropolis decision (the GUOQ accept rule, temperature 10). */
bool
decide(double cost_cand, double cost_curr, support::Rng &rng)
{
    if (cost_cand <= cost_curr)
        return true;
    const double p =
        std::exp(-10.0 * cost_cand / std::max(cost_curr, 1e-12));
    return rng.chance(p);
}

/** The pre-engine loop: one full Matcher + rebuild + rescan per try. */
LoopOutcome
runLegacyLoop(const ir::Circuit &c,
              const std::vector<rewrite::RewriteRule> &rules,
              const core::CostFunction &cost, long iters,
              std::uint64_t seed)
{
    LoopOutcome out;
    support::Rng rng(seed);
    const support::Timer timer;
    ir::Circuit curr = c;
    double cost_curr = cost(curr);
    for (long i = 0; i < iters; ++i) {
        const rewrite::RewriteRule &rule = rules[rng.index(rules.size())];
        rewrite::PassResult r =
            rewrite::applyRulePassRandom(curr, rule, rng);
        if (r.applications == 0)
            continue;
        const double cost_cand = cost(r.circuit);
        if (!decide(cost_cand, cost_curr, rng))
            continue;
        curr = std::move(r.circuit);
        cost_curr = cost_cand;
        ++out.accepted;
    }
    out.seconds = timer.seconds();
    out.final_ = std::move(curr);
    return out;
}

/** The same loop through the incremental engine (same RNG draws). */
LoopOutcome
runEngineLoop(const ir::Circuit &c,
              const std::vector<rewrite::RewriteRule> &rules,
              const core::CostFunction &cost, long iters,
              std::uint64_t seed)
{
    LoopOutcome out;
    support::Rng rng(seed);
    const support::Timer timer;
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    double cost_curr = cost.fromCounts(engine.counts());
    for (long i = 0; i < iters; ++i) {
        const rewrite::RewriteRule &rule = rules[rng.index(rules.size())];
        auto att = engine.preparePassRandom(rule, rng);
        if (!att)
            continue;
        const double cost_cand = cost.fromCounts(att->counts);
        if (!decide(cost_cand, cost_curr, rng)) {
            engine.discard();
            continue;
        }
        engine.commit();
        cost_curr = cost_cand;
        ++out.accepted;
    }
    out.seconds = timer.seconds();
    out.final_ = engine.release();
    return out;
}

std::string
fmt(const char *spec, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, spec, v);
    return buf;
}

/** A loop repeated until it has run long enough to time. */
struct RepeatedLoop
{
    LoopOutcome outcome; //!< the last repetition's (all make the same
                         //!< decisions)
    double seconds = 0;  //!< over all repetitions
    long iterations = 0; //!< over all repetitions
};

template <typename Loop>
RepeatedLoop
repeatFor(double min_seconds, long iters, Loop &&loop)
{
    RepeatedLoop r;
    do {
        r.outcome = loop();
        r.seconds += r.outcome.seconds;
        r.iterations += iters;
    } while (r.seconds < min_seconds);
    return r;
}

void
runRewriteThroughput(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== Rewrite engine: Metropolis loop iterations/sec "
                    "vs the legacy pass ===\n\n");

    const ir::GateSetKind set = ir::GateSetKind::IbmEagle;
    const std::vector<rewrite::RewriteRule> &rules = rewrite::rulesFor(set);
    const core::CostFunction cost(core::Objective::TwoQubitCount, set);

    struct Size
    {
        int qubits;
        int gates;
    };
    const std::vector<Size> sizes = {{8, 64}, {12, 256}, {16, 1024}};
    const long iters = std::max<long>(
        200, static_cast<long>(4000.0 * ctx.opts().scale));
    const double min_seconds = 0.1 * ctx.opts().scale;

    support::TextTable table({"case", "tool", "iters/s", "speedup",
                              "matches legacy"});

    for (const Size &sz : sizes) {
        support::Rng build_rng(700 + static_cast<std::uint64_t>(sz.gates));
        const ir::Circuit c =
            randomEagleCircuit(sz.qubits, sz.gates, build_rng);
        const std::string bench =
            support::strcat("rewrite_", sz.qubits, "q_", sz.gates, "g");

        double best_legacy = 0;
        double best_engine = 0;
        bool all_match = true;
        for (int t = 0; t < ctx.opts().trials; ++t) {
            const std::uint64_t seed = ctx.opts().trialSeed(t);
            const RepeatedLoop legacy = repeatFor(min_seconds, iters, [&] {
                return runLegacyLoop(c, rules, cost, iters, seed);
            });
            const RepeatedLoop engine = repeatFor(min_seconds, iters, [&] {
                return runEngineLoop(c, rules, cost, iters, seed);
            });
            const bool match =
                legacy.outcome.final_.gates() ==
                    engine.outcome.final_.gates() &&
                legacy.outcome.accepted == engine.outcome.accepted;
            all_match = all_match && match;

            const double legacy_ips =
                legacy.seconds > 0 ? legacy.iterations / legacy.seconds
                                   : 0.0;
            const double engine_ips =
                engine.seconds > 0 ? engine.iterations / engine.seconds
                                   : 0.0;
            for (const auto &[tool, ips, secs] :
                 {std::tuple<const char *, double, double>{
                      "legacy", legacy_ips, legacy.seconds},
                  {"engine", engine_ips, engine.seconds}}) {
                CaseResult row;
                row.benchmark = bench;
                row.tool = tool;
                row.metric = "iterations_per_second";
                row.value = ips;
                row.seconds = secs;
                row.trial = t;
                row.seed = seed;
                ctx.record(std::move(row));
            }

            CaseResult guard;
            guard.benchmark = bench;
            guard.tool = "engine";
            guard.metric = "engine_matches_legacy";
            guard.value = match ? 1.0 : 0.0;
            guard.trial = t;
            guard.seed = seed;
            ctx.record(std::move(guard));

            if (t == 0 || legacy_ips > best_legacy)
                best_legacy = legacy_ips;
            if (t == 0 || engine_ips > best_engine)
                best_engine = engine_ips;
            if (t == 0) {
                table.addRow({bench, "legacy", fmt("%.0f", legacy_ips),
                              "1.00x", "-"});
                table.addRow({bench, "engine", fmt("%.0f", engine_ips),
                              fmt("%.2fx", engine_ips /
                                               std::max(legacy_ips, 1e-9)),
                              match ? "yes" : "NO"});
            }
        }

        // Aggregate: best-of-trials speedup — the acceptance metric at
        // the largest size.
        CaseResult agg;
        agg.benchmark = bench;
        agg.tool = "engine";
        agg.metric = "speedup_vs_legacy";
        agg.value =
            best_legacy > 0 ? best_engine / best_legacy : 0.0;
        agg.trial = 0;
        agg.seed = ctx.opts().trialSeed(0);
        ctx.record(std::move(agg));

        if (!all_match)
            support::panic("rewrite_throughput: engine diverged from "
                           "the legacy pass");
    }

    if (ctx.pretty()) {
        table.print();
        std::printf("\nshape check: the engine replays the legacy "
                    "decision sequence gate-for-gate and the largest "
                    "size speeds up >= 5x.\n");
    }
}

struct FusionLoopOutcome
{
    LoopOutcome loop;
    long fusionAttempts = 0;
    long fusionFires = 0;
};

/**
 * The GUOQ ε = 0 loop over rules plus fusion; rule passes always run
 * on the engine, fusion runs through prepareFusion when
 * @p engine_fusion and through Transformation::apply + assign (the
 * whole-circuit rebuild) otherwise. Both variants draw the same RNG
 * stream.
 */
FusionLoopOutcome
runFusionLoop(const ir::Circuit &c, const core::TransformationSet &moves,
              ir::GateSetKind set, const core::CostFunction &cost,
              long iters, std::uint64_t seed, bool engine_fusion)
{
    FusionLoopOutcome out;
    support::Rng rng(seed);
    const support::Timer timer;
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    double cost_curr = cost.fromCounts(engine.counts());
    for (long i = 0; i < iters; ++i) {
        const core::Transformation &tau = moves.all()[moves.sample(rng)];
        if (tau.kind() == core::TransformKind::Fusion) {
            ++out.fusionAttempts;
            if (!engine_fusion) {
                auto outcome = tau.apply(engine.circuit(), rng);
                if (!outcome)
                    continue;
                ++out.fusionFires;
                const double cost_cand = cost(outcome->circuit);
                if (!decide(cost_cand, cost_curr, rng))
                    continue;
                engine.assign(std::move(outcome->circuit));
                cost_curr = cost_cand;
                ++out.loop.accepted;
                continue;
            }
        }
        auto att = tau.kind() == core::TransformKind::Fusion
                       ? engine.prepareFusion(set)
                       : engine.preparePassRandom(*tau.rule(), rng);
        if (!att)
            continue;
        if (tau.kind() == core::TransformKind::Fusion)
            ++out.fusionFires;
        const double cost_cand = cost.fromCounts(att->counts);
        if (!decide(cost_cand, cost_curr, rng)) {
            engine.discard();
            continue;
        }
        engine.commit();
        cost_curr = cost_cand;
        ++out.loop.accepted;
    }
    out.loop.seconds = timer.seconds();
    out.loop.final_ = engine.release();
    return out;
}

void
runFusionMove(CaseContext &ctx)
{
    if (ctx.pretty())
        std::printf("=== 1q fusion move: rules + fusion loop "
                    "iterations/sec, whole-circuit rebuild vs engine "
                    "===\n\n");

    const ir::GateSetKind set = ir::GateSetKind::IbmEagle;
    const core::TransformationSet moves(
        set, core::TransformSelection::RewriteOnly, /*epsilon=*/0,
        /*resynth_prob=*/0, /*per_call_seconds=*/1, /*max_qubits=*/3);
    const core::CostFunction cost(core::Objective::TwoQubitCount, set);

    struct Size
    {
        int qubits;
        int gates;
    };
    const std::vector<Size> sizes = {{8, 64}, {12, 256}, {16, 1024}};
    // Fusion is one move in fifteen, so the loop runs 5x longer than
    // rewrite_throughput's to sample enough of them.
    const long iters = std::max<long>(
        1000, static_cast<long>(20000.0 * ctx.opts().scale));

    support::TextTable table({"case", "tool", "iters/s", "speedup",
                              "fusion fired", "matches rebuild"});

    for (const Size &sz : sizes) {
        support::Rng build_rng(700 + static_cast<std::uint64_t>(sz.gates));
        const ir::Circuit c =
            randomEagleCircuit(sz.qubits, sz.gates, build_rng);
        const std::string bench =
            support::strcat("fusion_", sz.qubits, "q_", sz.gates, "g");

        double best_rebuild = 0;
        double best_engine = 0;
        bool all_match = true;
        for (int t = 0; t < ctx.opts().trials; ++t) {
            const std::uint64_t seed = ctx.opts().trialSeed(t);
            const FusionLoopOutcome rebuild =
                runFusionLoop(c, moves, set, cost, iters, seed, false);
            const FusionLoopOutcome engine =
                runFusionLoop(c, moves, set, cost, iters, seed, true);
            const bool match =
                rebuild.loop.final_.gates() == engine.loop.final_.gates() &&
                rebuild.loop.accepted == engine.loop.accepted &&
                rebuild.fusionFires == engine.fusionFires;
            all_match = all_match && match;

            const double rebuild_ips =
                rebuild.loop.seconds > 0 ? iters / rebuild.loop.seconds
                                         : 0.0;
            const double engine_ips =
                engine.loop.seconds > 0 ? iters / engine.loop.seconds
                                        : 0.0;
            for (const auto &[tool, ips, secs] :
                 {std::tuple<const char *, double, double>{
                      "rebuild", rebuild_ips, rebuild.loop.seconds},
                  {"engine", engine_ips, engine.loop.seconds}}) {
                CaseResult row;
                row.benchmark = bench;
                row.tool = tool;
                row.metric = "iterations_per_second";
                row.value = ips;
                row.seconds = secs;
                row.trial = t;
                row.seed = seed;
                ctx.record(std::move(row));
            }

            CaseResult fired;
            fired.benchmark = bench;
            fired.tool = "engine";
            fired.metric = "fusion_fire_ratio";
            fired.value = engine.fusionAttempts > 0
                              ? static_cast<double>(engine.fusionFires) /
                                    static_cast<double>(engine.fusionAttempts)
                              : 0.0;
            fired.trial = t;
            fired.seed = seed;
            ctx.record(std::move(fired));

            CaseResult guard;
            guard.benchmark = bench;
            guard.tool = "engine";
            guard.metric = "engine_matches_rebuild";
            guard.value = match ? 1.0 : 0.0;
            guard.trial = t;
            guard.seed = seed;
            ctx.record(std::move(guard));

            if (t == 0 || rebuild_ips > best_rebuild)
                best_rebuild = rebuild_ips;
            if (t == 0 || engine_ips > best_engine)
                best_engine = engine_ips;
            if (t == 0) {
                const std::string fires = support::strcat(
                    engine.fusionFires, "/", engine.fusionAttempts);
                table.addRow({bench, "rebuild", fmt("%.0f", rebuild_ips),
                              "1.00x", fires, "-"});
                table.addRow({bench, "engine", fmt("%.0f", engine_ips),
                              fmt("%.2fx", engine_ips /
                                               std::max(rebuild_ips, 1e-9)),
                              fires, match ? "yes" : "NO"});
            }
        }

        CaseResult agg;
        agg.benchmark = bench;
        agg.tool = "engine";
        agg.metric = "speedup_vs_rebuild";
        agg.value = best_rebuild > 0 ? best_engine / best_rebuild : 0.0;
        agg.trial = 0;
        agg.seed = ctx.opts().trialSeed(0);
        ctx.record(std::move(agg));

        if (!all_match)
            support::panic("fusion_move: the engine's fusion move "
                           "diverged from the whole-circuit rebuild");
    }

    if (ctx.pretty()) {
        table.print();
        std::printf("\nshape check: both fusion tools replay one "
                    "decision sequence to the same circuit, and the "
                    "engine is faster at every size.\n");
    }
}

const CaseRegistrar kRewriteThroughput(
    "rewrite_throughput",
    "incremental rewrite engine vs legacy pass: Metropolis loop "
    "iterations/sec",
    330, runRewriteThroughput);

const CaseRegistrar kFusionMove(
    "fusion_move",
    "1q fusion move in the rules + fusion loop: whole-circuit rebuild "
    "vs the engine's per-wire marks, iterations/sec",
    331, runFusionMove);

} // namespace
