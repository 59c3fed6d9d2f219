/**
 * @file
 * Convex-subcircuit selection, extraction, and splicing.
 *
 * Resynthesis needs to (a) pick a random subcircuit bounded by a qubit
 * budget, (b) lift it into a standalone circuit, and (c) splice an
 * ε-equivalent replacement back in. A subcircuit must be a *convex*
 * subgraph of the circuit DAG (paper §3) or splicing would break the
 * topological order.
 *
 * Selection uses a forward scan from a random seed with a "dirty wire"
 * rule: once a gate on a wire is skipped, that wire is closed to
 * further inclusion. This guarantees convexity and, because the seed
 * is the earliest selected gate, makes "insert the replacement at the
 * seed's position" a valid splice (see the proof sketch in
 * subcircuit.cc).
 */

#pragma once

#include <cstddef>
#include <vector>

#include "ir/circuit.h"
#include "ir/derivation.h"
#include "support/rng.h"

namespace guoq {
namespace dag {

/** A convex selection of gates plus the (sorted) qubits they touch. */
struct SubcircuitSelection
{
    std::vector<std::size_t> indices; //!< ascending gate indices
    std::vector<int> qubits;          //!< sorted global qubits touched

    bool empty() const { return indices.empty(); }
    std::size_t size() const { return indices.size(); }
};

/**
 * Grow a convex subcircuit from @p seed, touching at most
 * @p max_qubits qubits, at most @p max_gates gates, and (when
 * @p max_two_qubit ≥ 0) at most that many 2-qubit gates — synthesis
 * cost scales with the entangler count, so resynthesis callers keep
 * selections shallow.
 */
SubcircuitSelection growConvex(const ir::Circuit &c, std::size_t seed,
                               int max_qubits, std::size_t max_gates,
                               int max_two_qubit = -1);

/** Uniformly pick a seed gate and grow from it. */
SubcircuitSelection randomConvex(const ir::Circuit &c, support::Rng &rng,
                                 int max_qubits, std::size_t max_gates,
                                 int max_two_qubit = -1);

/**
 * Lift the selection into a standalone circuit on
 * selection.qubits.size() qubits (global qubit k maps to its rank in
 * selection.qubits).
 */
ir::Circuit extract(const ir::Circuit &c, const SubcircuitSelection &sel);

/**
 * Replace the selected gates with @p replacement (a circuit over the
 * selection's local qubits). Returns the new full circuit.
 */
ir::Circuit splice(const ir::Circuit &c, const SubcircuitSelection &sel,
                   const ir::Circuit &replacement);

/**
 * splice() as a derivation step over a circuit of @p num_gates gates:
 * one block (the selection and its replacement on global qubits) and
 * the spliced gate order. The caller sets the parent.
 */
ir::DerivationStep spliceStep(std::size_t num_gates,
                              const SubcircuitSelection &sel,
                              const ir::Circuit &replacement);

/**
 * Partition the whole circuit into disjoint convex blocks of at most
 * @p max_qubits qubits each (the BQSKit/QUEST-style partitioner used
 * by the partition+resynthesize baseline). Every gate lands in exactly
 * one block; blocks are returned in program order.
 */
std::vector<SubcircuitSelection> partitionConvex(const ir::Circuit &c,
                                                 int max_qubits,
                                                 std::size_t max_gates);

} // namespace dag
} // namespace guoq
