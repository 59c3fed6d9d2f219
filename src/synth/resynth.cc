#include "synth/resynth.h"

#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "sim/unitary_sim.h"
#include "support/logging.h"
#include "synth/finite_synth.h"
#include "synth/qsearch.h"
#include "transpile/to_gate_set.h"
#include "verify/checker.h"

namespace guoq {
namespace synth {

namespace {

/**
 * Exact cleanup of a freshly synthesized native circuit: fuse 1q runs
 * and run the gate set's size-reducing rules to fixpoint. The raw
 * ansatz output carries full Rz·Ry·Rz dressings whose angles often
 * degenerate (≈0, ≈π); without cleanup the native form would bloat.
 */
ir::Circuit
cleanupNative(const ir::Circuit &c, ir::GateSetKind set)
{
    ir::Circuit cur = transpile::fuseOneQubitRuns(c, set);
    cur = rewrite::applyRulesToFixpoint(cur,
                                        rewrite::sizeReducingRulesFor(set));
    return transpile::fuseOneQubitRuns(cur, set);
}

/** The entangler (2q-gate) pair sequence of a subcircuit. */
std::vector<std::pair<int, int>>
entanglerSequence(const ir::Circuit &c)
{
    std::vector<std::pair<int, int>> out;
    for (const ir::Gate &g : c.gates())
        if (g.arity() == 2)
            out.emplace_back(g.qubits[0], g.qubits[1]);
    return out;
}

} // namespace

ResynthResult
resynthesize(const ir::Circuit &sub, const ResynthOptions &opts,
             support::Rng &rng)
{
    ResynthResult result;
    result.circuit = sub;
    if (sub.numQubits() > opts.maxQubits || sub.numQubits() < 1)
        return result;

    const linalg::ComplexMatrix target = sim::circuitUnitary(sub);

    ir::Circuit raw;
    double distance = 1.0;
    bool success = false;

    if (ir::isFinite(opts.targetSet)) {
        FiniteSynthOptions fopts;
        fopts.epsilon = opts.epsilon;
        fopts.maxGates = opts.finiteMaxGates;
        fopts.deadline = opts.deadline;
        fopts.seed = &sub; // anneal down from the original gates
        const SynthResult r =
            finiteSynth(target, sub.numQubits(), fopts, rng);
        raw = r.circuit;
        distance = r.distance;
        success = r.success;
    } else {
        QSearchOptions qopts;
        qopts.epsilon = opts.epsilon;
        qopts.maxEntanglers = opts.maxEntanglers;
        qopts.useRxx = opts.targetSet == ir::GateSetKind::IonQ;
        qopts.deadline = opts.deadline;
        // Canonicalize pair order: the ansatz dressings absorb the
        // direction, and canonical pairs dedupe the search space.
        for (auto &[a, b] : qopts.seedEntanglers = entanglerSequence(sub))
            if (a > b)
                std::swap(a, b);
        const SynthResult r = qsearch(target, sub.numQubits(), qopts, rng);
        raw = r.circuit;
        distance = r.distance;
        success = r.success;
    }

    if (!success)
        return result;

    // Re-express natively (exact), then re-verify the distance so a
    // transpiler defect can never smuggle error past the ε budget.
    // The check runs through the verification layer's dense backend —
    // the same assertion path as `guoq_cli --verify` — whose exact
    // distance (no bound, no tolerance) preserves the strict
    // `check > eps_eff` discard.
    ir::Circuit native =
        cleanupNative(transpile::toGateSet(raw, opts.targetSet),
                      opts.targetSet);
    const double eps_eff = opts.epsilon > 0 ? opts.epsilon : 1e-7;
    verify::VerifyRequest vreq;
    vreq.epsilon = eps_eff;
    vreq.method = "dense";
    const verify::VerifyReport vr =
        verify::verifyEquivalence(sub, native, vreq);
    const double check = vr.distanceEstimate;
    if (vr.verdict == verify::Verdict::Inequivalent) {
        support::warn("resynthesize: native re-expression exceeded the "
                      "error budget; discarding the result");
        return result;
    }
    result.success = true;
    if (native.gates() == sub.gates()) {
        // Unchanged (e.g. the seed shrink found nothing): exact, and
        // callers should not be charged the metric's noise floor.
        result.distance = 0;
        return result;
    }
    result.circuit = std::move(native);
    result.distance = check > distance ? check : distance;
    return result;
}

} // namespace synth
} // namespace guoq
