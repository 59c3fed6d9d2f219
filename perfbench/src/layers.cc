/**
 * @file
 * Per-layer probes: each times one public layer entry point on inputs
 * drawn from the workload's own circuits, so a layer change shows up
 * here before (or without) moving an end-to-end number. These replace
 * bench_micro's google-benchmark cases; the rewrite probe times the
 * RewriteEngine the GUOQ loop runs on, not the legacy pass.
 */

#include <algorithm>
#include <cmath>

#include "dag/circuit_dag.h"
#include "dag/subcircuit.h"
#include "linalg/complex_matrix.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "sim/statevector.h"
#include "sim/unitary_sim.h"
#include "support/rng.h"
#include "synth/instantiate.h"
#include "synth/resynth.h"
#include "synth/service.h"
#include "synth/templates.h"
#include "transpile/to_gate_set.h"
#include "verify/checker.h"
#include "workload.h"
#include "workloads/standard.h"
#include "workloads/suite.h"

namespace perfbench {

using namespace guoq;

namespace {

/** Per-call ε of the approx workloads' resynthesis (ε_f/16). */
constexpr double kResynthEpsilon = 1e-5 / 16;

/** The paper-default per-call cap the 3-qubit probe runs under. */
constexpr double kResynth3CapSeconds = 1.0;

/** Keeps timed results observable so they are not optimized away. */
volatile double g_sink = 0;

/** Median over @p batches of the per-call seconds of @p batch calls. */
template <typename F>
double
perCall(int batch, int batches, F &&f)
{
    std::vector<double> per;
    for (int b = 0; b < batches; ++b) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < batch; ++i)
            f(i);
        per.push_back(secondsBetween(t0, Clock::now()) / batch);
    }
    return median(per);
}

/** @p count seeded convex subcircuits exactly @p qubits wide. */
std::vector<ir::Circuit>
subcircuits(const LayerInputs &in, int qubits, std::size_t count,
            std::uint64_t seed)
{
    support::Rng rng(seed);
    std::vector<ir::Circuit> out;
    for (std::size_t tries = 0; out.size() < count && tries < 100 * count;
         ++tries) {
        const ir::Circuit &c = in.circuits[rng.index(in.circuits.size())];
        if (c.numQubits() < qubits || c.empty())
            continue;
        const dag::SubcircuitSelection sel =
            dag::randomConvex(c, rng, qubits, 32, 6);
        if (sel.size() >= 2 &&
            static_cast<int>(sel.qubits.size()) == qubits)
            out.push_back(dag::extract(c, sel));
    }
    if (out.empty()) // inputs too narrow: fall back to a lowered QFT
        out.push_back(transpile::toGateSet(workloads::qft(qubits), in.set));
    return out;
}

/** Index of the widest circuit with at most @p maxQubits qubits. */
std::size_t
widest(const LayerInputs &in, int maxQubits)
{
    std::size_t best = 0;
    for (std::size_t i = 0; i < in.circuits.size(); ++i) {
        const int q = in.circuits[i].numQubits();
        const int b = in.circuits[best].numQubits();
        if (q <= maxQubits && (b > maxQubits || q > b))
            best = i;
    }
    return best;
}

void
rewriteProbe(const LayerInputs &in, int attemptsPerCircuit,
             std::uint64_t seed, Report &r)
{
    const std::vector<rewrite::RewriteRule> &rules = rewrite::rulesFor(in.set);
    support::Rng rng(seed);
    long attempts = 0, matches = 0;
    double seconds = 0;
    for (const ir::Circuit &c : in.circuits) {
        rewrite::RewriteEngine engine(c);
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < attemptsPerCircuit; ++i) {
            const rewrite::RewriteRule &rule = rules[rng.index(rules.size())];
            if (engine.preparePassRandom(rule, rng)) {
                ++matches;
                engine.discard();
            }
        }
        seconds += secondsBetween(t0, Clock::now());
        attempts += attemptsPerCircuit;
    }
    r.add("rewrite.attempt_ns", 1e9 * seconds / static_cast<double>(attempts),
          "ns");
    r.add("rewrite.match_ratio",
          static_cast<double>(matches) / static_cast<double>(attempts),
          "ratio");
}

void
dagProbes(const LayerInputs &in, int reps, std::uint64_t seed, Report &r)
{
    const double build = perCall(reps, 5, [&](int) {
        for (const ir::Circuit &c : in.circuits)
            g_sink = g_sink + static_cast<double>(dag::CircuitDag(c).numGates());
    });
    r.add("dag.build_us",
          1e6 * build / static_cast<double>(in.circuits.size()), "us");

    support::Rng rng(seed);
    const double convex = perCall(reps * 10, 5, [&](int i) {
        const ir::Circuit &c =
            in.circuits[static_cast<std::size_t>(i) % in.circuits.size()];
        const dag::SubcircuitSelection sel = dag::randomConvex(c, rng, 3, 32, 6);
        if (sel.empty())
            return;
        const ir::Circuit sub = dag::extract(c, sel);
        g_sink = g_sink + static_cast<double>(dag::splice(c, sel, sub).size());
    });
    r.add("dag.convex_us", 1e6 * convex, "us");
}

void
resynthProbes(const LayerInputs &in, const std::vector<ir::Circuit> &subs2,
              const std::vector<ir::Circuit> &subs3, std::uint64_t seed,
              Report &r, RunOutput *info)
{
    std::vector<double> ms;
    long ok = 0;
    for (std::size_t i = 0; i < subs2.size(); ++i) {
        synth::ResynthOptions opts;
        opts.targetSet = in.set;
        opts.epsilon = kResynthEpsilon;
        opts.maxQubits = 2;
        support::Rng rng(mixSeed(seed, i));
        const Clock::time_point t0 = Clock::now();
        ok += synth::resynthesize(subs2[i], opts, rng).success ? 1 : 0;
        ms.push_back(1e3 * secondsBetween(t0, Clock::now()));
    }
    r.add("synth.resynth_ms_p50", median(ms), "ms");
    r.add("synth.resynth_ms_p95", percentile(ms, 95), "ms");
    r.add("synth.resynth_success_ratio",
          subs2.empty() ? 0.0
                        : static_cast<double>(ok) /
                              static_cast<double>(subs2.size()),
          "ratio");
    info->info.emplace_back("resynth_samples", std::to_string(ms.size()));

    std::vector<double> ms3;
    long capped = 0;
    for (std::size_t i = 0; i < subs3.size(); ++i) {
        synth::ResynthOptions opts;
        opts.targetSet = in.set;
        opts.epsilon = kResynthEpsilon;
        opts.maxQubits = 3;
        opts.deadline = support::Deadline::in(kResynth3CapSeconds);
        support::Rng rng(mixSeed(seed, 1000 + i));
        const Clock::time_point t0 = Clock::now();
        synth::resynthesize(subs3[i], opts, rng);
        const double s = secondsBetween(t0, Clock::now());
        ms3.push_back(1e3 * s);
        capped += s >= 0.95 * kResynth3CapSeconds ? 1 : 0;
    }
    r.add("synth.resynth3_ms_p50", median(ms3), "ms");
    r.add("synth.resynth3_capped_ratio",
          subs3.empty() ? 0.0
                        : static_cast<double>(capped) /
                              static_cast<double>(subs3.size()),
          "ratio");
    info->info.emplace_back("resynth3_samples", std::to_string(ms3.size()));
}

/** hsCostAndGrad per call on @p a against @p target, in µs. */
double
gradientUs(const synth::Ansatz &a, const linalg::ComplexMatrix &target,
           int reps)
{
    std::vector<double> x(static_cast<std::size_t>(a.numParams()), 0.3);
    std::vector<double> grad;
    return 1e6 * perCall(reps, 5, [&](int) {
               g_sink = g_sink + synth::hsCostAndGrad(a, target, x, &grad);
           });
}

void
kernelProbes(const std::vector<ir::Circuit> &subs2,
             const std::vector<ir::Circuit> &subs3, int reps, Report &r)
{
    synth::Ansatz a2 = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a2, 0, 1, false);
    synth::appendEntanglerBlock(&a2, 0, 1, false);
    r.add("synth.instantiate_grad_us_2q",
          gradientUs(a2, sim::circuitUnitary(subs2.front()), reps), "us");

    // bench_micro's BM_InstantiateGradient case: CCX on a 2-block ansatz.
    synth::Ansatz a3 = synth::initialAnsatz(3);
    synth::appendEntanglerBlock(&a3, 0, 1, false);
    synth::appendEntanglerBlock(&a3, 1, 2, false);
    ir::Circuit ccx(3);
    ccx.ccx(0, 1, 2);
    r.add("synth.instantiate_grad_us_3q",
          gradientUs(a3, sim::circuitUnitary(ccx), reps), "us");

    const linalg::ComplexMatrix u = sim::circuitUnitary(subs3.front());
    const linalg::ComplexMatrix v = sim::circuitUnitary(subs3.back());
    r.add("linalg.matmul8_ns", 1e9 * perCall(reps * 10, 5, [&](int) {
              g_sink = g_sink + (u * v)(0, 0).real();
          }),
          "ns");

    const ir::Circuit &sub = subs3.front();
    const double perCircuit = perCall(reps * 10, 5, [&](int) {
        linalg::ComplexMatrix m = linalg::ComplexMatrix::identity(8);
        for (const ir::Gate &g : sub.gates())
            sim::applyGate(m, g, 3);
        g_sink = g_sink + m(0, 0).real();
    });
    r.add("sim.apply_gate_ns",
          1e9 * perCircuit / static_cast<double>(sub.size()), "ns");

    r.add("sim.unitary_us", 1e6 * perCall(reps, 5, [&](int) {
              for (const ir::Circuit &c : subs3)
                  g_sink = g_sink + sim::circuitUnitary(c)(0, 0).real();
          }) / static_cast<double>(subs3.size()),
          "us");
}

void
cacheHitProbe(const LayerInputs &in, const ir::Circuit &sub, int reps,
              Report &r)
{
    synth::SynthService service;
    service.enableCache(true);
    synth::ResynthOptions opts;
    opts.targetSet = in.set;
    opts.epsilon = kResynthEpsilon;
    opts.maxQubits = 2;
    support::Rng rng(7);
    service.resynthesize(sub, opts, rng); // the miss that fills the entry
    r.add("synth.cache_hit_us", 1e6 * perCall(reps, 5, [&](int) {
              g_sink = g_sink + (service.resynthesize(sub, opts, rng).cacheHit
                                     ? 1.0
                                     : 0.0);
          }),
          "us");
}

void
qasmProbes(const LayerInputs &in, int reps, Report &r)
{
    std::vector<std::string> texts;
    const double emit = perCall(reps, 5, [&](int) {
        texts.clear();
        for (const ir::Circuit &c : in.circuits)
            texts.push_back(qasm::toQasm(c));
    });
    const double parse = perCall(reps, 5, [&](int) {
        for (const std::string &t : texts)
            g_sink = g_sink + static_cast<double>(
                                  qasm::parseSource(t).circuit.size());
    });
    const double n = static_cast<double>(in.circuits.size());
    r.add("qasm.emit_us", 1e6 * emit / n, "us");
    r.add("qasm.parse_us", 1e6 * parse / n, "us");
}

void
verifyProbes(const LayerInputs &in, Report &r)
{
    const verify::CheckerRegistry &checkers = verify::CheckerRegistry::global();
    const ir::Circuit &narrow = in.circuits[widest(in, verify::kDenseAutoMaxQubits)];
    const ir::Circuit &wide = in.circuits[widest(in, verify::kMaxSamplingQubits)];
    verify::VerifyRequest req;
    req.shots = kSamplingShots;
    req.threads = 1;
    r.add("verify.dense_ms", 1e3 * perCall(1, 3, [&](int) {
              g_sink = g_sink + checkers.find("dense")
                                    ->run(narrow, narrow, req)
                                    .distanceEstimate;
          }),
          "ms");
    r.add("verify.sampling_ms", 1e3 * perCall(1, 3, [&](int) {
              g_sink = g_sink + checkers.find("sampling")
                                    ->run(wide, wide, req)
                                    .distanceEstimate;
          }),
          "ms");
    r.add("sim.statevector_ms", 1e3 * perCall(1, 5, [&](int) {
              g_sink = g_sink + sim::runCircuit(wide).probability(0);
          }),
          "ms");
}

void
transpileProbe(const LayerInputs &in, Report &r)
{
    const std::vector<workloads::Benchmark> generic = workloads::standardSuite();
    r.add("transpile.lower_ms", 1e3 * perCall(1, 3, [&](int) {
              for (const workloads::Benchmark &b : generic)
                  g_sink = g_sink + static_cast<double>(
                                        transpile::toGateSet(b.circuit, in.set)
                                            .size());
          }),
          "ms");
}

} // namespace

void
addLayerProbes(const LayerInputs &in, const Options &opt, Report &r,
               RunOutput &out, Tracer &tracer)
{
    const int reps = opt.tiny ? 2 : 50;
    const std::uint64_t seed = mixSeed(opt.seed, 0x1a7e5);
    const std::vector<ir::Circuit> subs2 =
        subcircuits(in, 2, opt.tiny ? 2 : 40, seed);
    const std::vector<ir::Circuit> subs3 =
        subcircuits(in, 3, opt.tiny ? 1 : 6, seed + 1);

    const auto probe = [&](const char *name, auto &&fn) {
        Span s(tracer, name, "probe");
        fn();
    };
    probe("probe.rewrite",
          [&] { rewriteProbe(in, opt.tiny ? 50 : 2000, seed, r); });
    probe("probe.dag", [&] { dagProbes(in, reps, seed, r); });
    probe("probe.resynth",
          [&] { resynthProbes(in, subs2, subs3, seed, r, &out); });
    probe("probe.kernels",
          [&] { kernelProbes(subs2, subs3, reps * 20, r); });
    probe("probe.cache_hit",
          [&] { cacheHitProbe(in, subs2.front(), reps * 20, r); });
    probe("probe.qasm", [&] { qasmProbes(in, reps / 10 + 1, r); });
    probe("probe.verify", [&] { verifyProbes(in, r); });
    probe("probe.transpile", [&] { transpileProbe(in, r); });
}

} // namespace perfbench
