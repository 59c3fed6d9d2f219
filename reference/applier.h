/**
 * @file
 * The legacy copy-everything rule pass (paper §5.3, "Randomly
 * selecting subcircuits"): one full pass over the circuit starting
 * from an anchor, replacing every disjoint match of the rule, and the
 * one-circuit Matcher it probes with.
 *
 * This is a reference oracle, not production code: it lives in the
 * guoq_reference library, which only the tests and guoq_bench link.
 * Every production rule pass runs on rewrite::RewriteEngine
 * (rewrite/engine.h); tests/test_rewrite_engine.cc holds the engine to
 * gate-for-gate and draw-for-draw agreement with this implementation,
 * and the `rewrite_throughput` bench case times the two side by side.
 */

#pragma once

#include <cstddef>
#include <optional>

#include "dag/circuit_dag.h"
#include "ir/circuit.h"
#include "rewrite/matcher.h"
#include "rewrite/rule.h"
#include "support/rng.h"

namespace guoq {
namespace rewrite {

/**
 * Reusable matcher over one circuit: builds the DAG once and probes
 * anchors through rewrite::matchAt. The legacy pass's matcher; the
 * engine calls matchAt on its own persistent index instead.
 */
class Matcher
{
  public:
    explicit Matcher(const ir::Circuit &c);

    /**
     * Try to match @p rule with pattern gate 0 at @p anchor. Returns
     * std::nullopt when the structure, angles, guard, or splice window
     * do not admit a match.
     */
    std::optional<Match> matchAt(const RewriteRule &rule,
                                 std::size_t anchor) const;

    const ir::Circuit &circuit() const { return circuit_; }

  private:
    const ir::Circuit &circuit_;
    dag::CircuitDag dag_;
    mutable MatchScratch scratch_;
};

/** Outcome of a rule pass. */
struct PassResult
{
    ir::Circuit circuit;
    int applications = 0; //!< number of disjoint matches replaced
};

/**
 * One full pass of @p rule over @p c: anchors are visited starting at
 * @p start_anchor and wrapping around; every match whose gates are
 * still unused is applied. Greedy and deterministic given the anchor.
 */
PassResult applyRulePass(const ir::Circuit &c, const RewriteRule &rule,
                         std::size_t start_anchor);

/** applyRulePass from a uniformly random anchor. */
PassResult applyRulePassRandom(const ir::Circuit &c, const RewriteRule &rule,
                               support::Rng &rng);

} // namespace rewrite
} // namespace guoq
