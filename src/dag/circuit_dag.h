/**
 * @file
 * DAG view of a circuit: per-wire predecessor/successor links between
 * gates (paper §3, "Subcircuits"). The gate list itself is a valid
 * topological order; the DAG adds O(1) wire-adjacency queries used by
 * the rewrite matcher and the subcircuit selector.
 *
 * Storage is a flat structure-of-arrays (fixed stride of kMaxArity
 * slots per gate) so rebuild() can re-index a mutated circuit without
 * allocating once the buffers are warm — the rewrite engine calls it
 * after every accepted pass.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/circuit.h"

namespace guoq {
namespace dag {

/** Sentinel for "no adjacent gate on this wire". */
constexpr std::size_t kNoGate = static_cast<std::size_t>(-1);

/** Wire-adjacency index over a circuit's gate list. */
class CircuitDag
{
  public:
    /** Widest gate the index supports (CCX/CCZ). */
    static constexpr std::size_t kMaxArity = ir::kMaxGateArgs;

    /** An empty index; rebuild() attaches it to a circuit. */
    CircuitDag() = default;

    explicit CircuitDag(const ir::Circuit &c) { rebuild(c); }

    /**
     * Re-index @p c in place. Reuses the existing buffers, so after
     * the first build on a circuit of a given size this allocates
     * nothing (buffers only grow).
     */
    void rebuild(const ir::Circuit &c);

    /** Index of the next gate after @p gate_idx on wire @p q. */
    std::size_t
    next(std::size_t gate_idx, int q) const
    {
        return nextLink_[slotOf(gate_idx, q)];
    }

    /**
     * Index of the next gate after @p gate_idx on the wire of its
     * @p slot-th qubit (gate.qubits[slot]): next() without the slot
     * search.
     */
    std::size_t
    nextAtSlot(std::size_t gate_idx, std::size_t slot) const
    {
        return nextLink_[gate_idx * kMaxArity + slot];
    }

    /** Index of the previous gate before @p gate_idx on wire @p q. */
    std::size_t
    prev(std::size_t gate_idx, int q) const
    {
        return prevLink_[slotOf(gate_idx, q)];
    }

    /** First / last gate on wire @p q (kNoGate when the wire is idle). */
    std::size_t firstOnWire(int q) const;
    std::size_t lastOnWire(int q) const;

    int numQubits() const { return numQubits_; }
    std::size_t numGates() const { return numGates_; }

  private:
    /**
     * The flat slot index of wire @p q within gate @p gate_idx (panics
     * if the gate does not act on q). Unused slots hold qubit -1, so
     * the search needs no arity.
     */
    std::size_t
    slotOf(std::size_t gate_idx, int q) const
    {
        static_assert(kMaxArity == 3, "slotOf searches three slots");
        const std::size_t base = gate_idx * kMaxArity;
        const int *qs = qubits_.data() + base;
        if (qs[0] == q)
            return base;
        if (qs[1] == q)
            return base + 1;
        if (qs[2] == q)
            return base + 2;
        missingWire(gate_idx, q);
    }

    [[noreturn]] static void missingWire(std::size_t gate_idx, int q);

    int numQubits_ = 0;
    std::size_t numGates_ = 0;
    // Per gate, kMaxArity slots of (qubit, next, prev). Unused slots
    // hold qubit -1 / kNoGate links.
    std::vector<int> qubits_;
    std::vector<std::size_t> nextLink_;
    std::vector<std::size_t> prevLink_;
    std::vector<std::size_t> first_;
    std::vector<std::size_t> last_;
    // rebuild scratch, per qubit: the flat slot of the wire's latest
    // gate so far
    std::vector<std::size_t> frontier_;
};

} // namespace dag
} // namespace guoq
