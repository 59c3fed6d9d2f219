#include "core/transformation.h"

#include "rewrite/engine.h"
#include "support/logging.h"
#include "synth/service.h"
#include "transpile/to_gate_set.h"

namespace guoq {
namespace core {

namespace {

/** Gate cap for resynthesis subcircuits: bounds unitary-eval time. */
constexpr std::size_t kMaxSubcircuitGates = 32;

/**
 * Entangler cap for resynthesis subcircuits: instantiation cost and
 * the deletion search both scale with the seed structure depth.
 */
constexpr int kMaxSubcircuitEntanglers = 6;

} // namespace

Transformation
Transformation::fromRule(const rewrite::RewriteRule *rule)
{
    Transformation t;
    t.name_ = "rule:" + rule->name();
    t.kind_ = TransformKind::RewriteRule;
    t.epsilon_ = 0;
    t.rule_ = rule;
    return t;
}

Transformation
Transformation::fusion(ir::GateSetKind set)
{
    Transformation t;
    t.name_ = "fusion:1q";
    t.kind_ = TransformKind::Fusion;
    t.epsilon_ = 0;
    t.set_ = set;
    return t;
}

Transformation
Transformation::resynthesis(ir::GateSetKind set, double epsilon,
                            double per_call_seconds, int max_qubits,
                            synth::SynthService *service,
                            synth::ResynthCounters *counters)
{
    Transformation t;
    t.name_ = "resynth:" + ir::gateSetName(set);
    t.kind_ = TransformKind::Resynthesis;
    t.epsilon_ = epsilon;
    t.set_ = set;
    t.perCallSeconds_ = per_call_seconds;
    t.maxQubits_ = max_qubits;
    t.service_ = service;
    t.counters_ = counters;
    return t;
}

std::optional<ResynthStep>
Transformation::drawResynthStep(const ir::Circuit &c, support::Rng &rng,
                                const support::Deadline &within) const
{
    if (kind_ != TransformKind::Resynthesis)
        support::panic("Transformation::drawResynthStep: not a "
                       "resynthesis transformation");
    if (c.empty())
        return std::nullopt;
    ResynthStep step;
    step.selection = dag::randomConvex(c, rng, maxQubits_,
                                       kMaxSubcircuitGates,
                                       kMaxSubcircuitEntanglers);
    if (step.selection.size() < 2)
        return std::nullopt;
    step.subcircuit = dag::extract(c, step.selection);
    step.options.targetSet = set_;
    step.options.epsilon = epsilon_;
    step.options.maxQubits = maxQubits_;
    step.options.deadline = within.slice(perCallSeconds_);
    return step;
}

std::optional<TransformOutcome>
Transformation::apply(const ir::Circuit &c, support::Rng &rng) const
{
    switch (kind_) {
      case TransformKind::RewriteRule: {
        rewrite::RewriteEngine engine{ir::Circuit(c)};
        if (!engine.preparePassRandom(*rule_, rng))
            return std::nullopt;
        engine.commit();
        TransformOutcome out;
        out.circuit = engine.release();
        return out;
      }
      case TransformKind::Fusion: {
        ir::Circuit fused = transpile::fuseOneQubitRuns(c, set_);
        if (fused.size() >= c.size())
            return std::nullopt;
        TransformOutcome out;
        out.circuit = std::move(fused);
        return out;
      }
      case TransformKind::Resynthesis: {
        std::optional<ResynthStep> step = drawResynthStep(c, rng);
        if (!step)
            return std::nullopt;
        synth::SynthService *svc =
            service_ != nullptr ? service_ : &synth::SynthService::global();
        synth::SynthOutcome so =
            svc->resynthesize(step->subcircuit, step->options, rng);
        if (counters_ != nullptr)
            counters_->add(so);
        synth::ResynthResult &r = so.result;
        if (!r.success || r.circuit.gates() == step->subcircuit.gates())
            return std::nullopt; // failed or unchanged: free no-op
        TransformOutcome out;
        out.circuit = dag::splice(c, step->selection, r.circuit);
        out.epsilonSpent = r.distance;
        out.selection = std::move(step->selection);
        out.block = std::move(r.circuit);
        return out;
      }
    }
    support::panic("Transformation::apply: unknown kind");
}

} // namespace core
} // namespace guoq
