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
 * function) pays zero allocation per probe: the per-qubit
 * maps in MatchScratch are epoch-stamped instead of cleared, and the
 * Match vectors are only materialized on success.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
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
    // Per rule variable (tiny; reassigned per probe).
    std::vector<int> qubitBinding;
    std::vector<double> angleBinding;
    std::vector<char> angleBound;
    std::vector<std::size_t> gateIndices;
};

/**
 * Try to match @p rule with pattern gate 0 at @p anchor of @p c.
 * @p dag must be the current wire index of @p c. Returns std::nullopt
 * when the structure, angles, guard, or splice window do not admit a
 * match.
 */
std::optional<Match> matchAt(const ir::Circuit &c,
                             const dag::CircuitDag &dag,
                             const RewriteRule &rule, std::size_t anchor,
                             MatchScratch &scratch);

} // namespace rewrite
} // namespace guoq
