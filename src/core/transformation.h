/**
 * @file
 * The circuit transformation τ_ε (paper Def. 4.1): the closed-box
 * abstraction unifying rewrite rules and resynthesis.
 *
 * A transformation takes the whole current circuit, internally selects
 * where to act (a full rule pass from a random anchor; a random convex
 * subcircuit for resynthesis — paper §5.3), and returns an ε-equivalent
 * circuit. Callers only see the (name, ε, apply) triple; GUOQ composes
 * them freely under the additive error bound of Thm. 4.2.
 */

#pragma once

#include <optional>
#include <string>

#include "dag/subcircuit.h"
#include "ir/circuit.h"
#include "ir/gate_set.h"
#include "rewrite/rule.h"
#include "support/rng.h"
#include "support/timer.h"
#include "synth/resynth.h"

namespace guoq {

namespace synth {
class SynthService;
} // namespace synth

namespace core {

/** What a transformation is built from (for stats and weighting). */
enum class TransformKind
{
    RewriteRule,  //!< exact pattern rewrite, ε = 0
    Fusion,       //!< exact 1q-run Euler refit, ε = 0
    Resynthesis,  //!< unitary synthesis of a subcircuit, ε ≥ 0
};

/** Outcome of applying a transformation. */
struct TransformOutcome
{
    ir::Circuit circuit;
    /**
     * Error actually introduced, measured as the HS distance between
     * the replaced subcircuit and its replacement (0 for exact
     * transformations). Always ≤ the transformation's nominal ε, so
     * charging it keeps the Thm. 4.2 budget sound while letting a run
     * apply more approximate steps than nominal accounting would.
     */
    double epsilonSpent = 0;
    /** Resynthesis only: where the step acted, and the synthesized
     *  block (on the selection's local qubits) spliced in there. */
    dag::SubcircuitSelection selection;
    ir::Circuit block;
};

/** A drawn resynthesis step: where it acts and what to synthesize. */
struct ResynthStep
{
    dag::SubcircuitSelection selection; //!< where the step acts
    ir::Circuit subcircuit;             //!< the selected gates
    synth::ResynthOptions options;      //!< ε, qubit cap, call deadline
};

/** A closed-box τ_ε. */
class Transformation
{
  public:
    /** Wrap one rewrite rule (ε = 0). @p rule must outlive this. */
    static Transformation fromRule(const rewrite::RewriteRule *rule);

    /** The 1q-fusion transformation for @p set (ε = 0). */
    static Transformation fusion(ir::GateSetKind set);

    /**
     * A resynthesis transformation: grow a random convex subcircuit of
     * at most @p max_qubits qubits, synthesize it within @p epsilon,
     * splice the result back (paper §5.3). Synthesis is routed
     * through @p service (the process-wide synth::SynthService when
     * null), and cache traffic is tallied into @p counters when set.
     * @param per_call_seconds wall-clock cap for one synthesis call.
     */
    static Transformation
    resynthesis(ir::GateSetKind set, double epsilon,
                double per_call_seconds, int max_qubits,
                synth::SynthService *service = nullptr,
                synth::ResynthCounters *counters = nullptr);

    const std::string &name() const { return name_; }
    TransformKind kind() const { return kind_; }

    /**
     * The wrapped rule for RewriteRule transformations (null
     * otherwise). The GUOQ loop runs rule passes and fusion on its own
     * long-lived rewrite::RewriteEngine (preparePassRandom,
     * prepareFusion) instead of apply(); apply() serves callers
     * without an engine.
     */
    const rewrite::RewriteRule *rule() const { return rule_; }

    /** Nominal ε (the budget check of Alg. 1 line 6 uses this). */
    double epsilon() const { return epsilon_; }

    /**
     * Apply to @p c. Returns std::nullopt when nothing changed (no
     * match, synthesis failure, or timeout) — the GUOQ loop treats
     * that as a free no-op iteration.
     */
    std::optional<TransformOutcome> apply(const ir::Circuit &c,
                                          support::Rng &rng) const;

    /**
     * Resynthesis only: draw a random convex subcircuit of @p c and
     * build its synthesis request, due within the per-call cap and
     * @p within. std::nullopt when fewer than two gates are drawn.
     * apply() runs the step; GUOQ's async path submits it to the pool.
     */
    std::optional<ResynthStep>
    drawResynthStep(const ir::Circuit &c, support::Rng &rng,
                    const support::Deadline &within = {}) const;

  private:
    Transformation() = default;

    std::string name_;
    TransformKind kind_ = TransformKind::RewriteRule;
    double epsilon_ = 0;
    // Rewrite-rule state.
    const rewrite::RewriteRule *rule_ = nullptr;
    // Fusion / resynthesis state.
    ir::GateSetKind set_ = ir::GateSetKind::Nam;
    double perCallSeconds_ = 1.0;
    int maxQubits_ = 3;
    synth::SynthService *service_ = nullptr;
    synth::ResynthCounters *counters_ = nullptr;
};

} // namespace core
} // namespace guoq
