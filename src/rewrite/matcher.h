/**
 * @file
 * Pattern matching for rewrite rules against a circuit.
 *
 * A match anchors pattern gate 0 at a circuit gate and extends along
 * wires: each subsequent pattern gate must be the immediate next gate
 * (per the DAG) on every wire it shares with already-matched gates, so
 * matched gates are wire-contiguous by construction. A final splice
 * check computes the valid insertion window for the replacement; a
 * match is rejected when no insertion point exists (the "sandwich"
 * non-convex case where an outside gate both follows and precedes
 * matched gates).
 *
 * The matcher is the free function matchAt() over a (circuit, dag,
 * scratch) triple, so a caller that probes millions of anchors (the
 * RewriteEngine; the reference oracle's Matcher wraps the same
 * function) pays zero allocation per probe once the scratch is warm:
 * the per-qubit maps in MatchScratch are epoch-stamped instead of
 * cleared, and the match itself is built in the scratch's reused
 * Match, which the caller reads until its next probe.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dag/circuit_dag.h"
#include "ir/circuit.h"
#include "rewrite/rule.h"

namespace guoq {
namespace rewrite {

/** A successful rule match against a circuit. */
struct Match
{
    /** Circuit gate index matched by each pattern gate. */
    std::vector<std::size_t> gateIndices;
    /** Circuit qubit bound to each qubit variable. */
    std::vector<int> qubitBinding;
    /** Value bound to each angle variable. */
    std::vector<double> angleBinding;
    /**
     * Replacement insertion point: the replacement block is emitted
     * immediately before the original gate at this index (or at the
     * end when it equals the gate count).
     */
    std::size_t insertPos = 0;
};

/**
 * Reusable per-probe working memory for matchAt(). The per-qubit maps
 * (variable binding, first/last matched gate per wire) are validated
 * by an epoch stamp, so a probe touches only the qubits of the gates
 * it visits — no O(numQubits) reset, no allocation after warm-up.
 */
struct MatchScratch
{
    // Per circuit qubit, valid when stamp[q] == epoch.
    std::vector<std::uint64_t> stamp;
    std::vector<int> varOf;            //!< qubit -> bound variable
    std::vector<std::size_t> lastOn;   //!< last matched gate on wire
    std::vector<std::size_t> firstOn;  //!< first matched gate on wire
    std::uint64_t epoch = 0;
    std::vector<char> angleBound;      //!< per rule angle variable
    /**
     * The match under construction; after a successful matchAt, the
     * match found (valid until the next matchAt on this scratch).
     */
    Match match;
};

/**
 * Try to match @p rule with pattern gate 0 at @p anchor of @p c.
 * @p dag must be the current wire index of @p c. Returns true and
 * leaves the match in @p scratch.match, or returns false when the
 * structure, angles, guard, or splice window do not admit a match.
 */
bool matchAt(const ir::Circuit &c, const dag::CircuitDag &dag,
             const RewriteRule &rule, std::size_t anchor,
             MatchScratch &scratch);

/**
 * O(1) pre-check of matchAt(@p c, @p dag, @p rule, @p anchor) from the
 * rule's compiled RewriteRule::SecondGate: false when matchAt's own
 * search for pattern gate 1 must fail. That is when gate 1 shares no
 * wire with gate 0, or a linked wire has no next gate, or the linked
 * wires disagree on it, or it has the wrong kind, holds a linked wire
 * at the wrong position, or holds an anchor qubit at a free position.
 * A necessary condition only: true says nothing about angles, later
 * pattern gates, the guard or the splice window. @p anchor must hold
 * a gate of the kind of pattern gate 0.
 */
inline bool
secondGateAdmits(const ir::Circuit &c, const dag::CircuitDag &dag,
                 const RewriteRule &rule, std::size_t anchor)
{
    const RewriteRule::SecondGate &s = rule.secondGate();
    if (!s.present)
        return true;
    if (s.numLinks == 0)
        return false;
    const auto n = static_cast<std::size_t>(s.numLinks);
    const std::size_t nxt = dag.nextAtSlot(anchor, s.links[0][0]);
    if (nxt == dag::kNoGate)
        return false;
    for (std::size_t k = 1; k < n; ++k)
        if (dag.nextAtSlot(anchor, s.links[k][0]) != nxt)
            return false;
    const ir::Gate &a = c.gate(anchor);
    const ir::Gate &b = c.gate(nxt);
    if (b.kind != s.kind)
        return false;
    for (std::size_t k = 0; k < n; ++k)
        if (b.qubits[s.links[k][1]] != a.qubits[s.links[k][0]])
            return false;
    for (std::size_t k = 0; k < static_cast<std::size_t>(s.numFree); ++k)
        for (const int q : a.qubits)
            if (b.qubits[s.free[k]] == q)
                return false;
    return true;
}

} // namespace rewrite
} // namespace guoq
