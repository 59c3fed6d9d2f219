/**
 * @file
 * Circuit-to-unitary evaluation (the semantics function of paper §3).
 *
 * Bit convention: circuit qubit 0 is the most significant bit of the
 * 2^n-dimensional index, matching the paper's Example 3.1 where
 * U_C = U_CX (I ⊗ U_T) for C = T q1; CX q0 q1.
 *
 * Complexity is O(4^n) memory, so this is reserved for subcircuits
 * (resynthesis, ≤ 4 qubits) and for test oracles (≤ 10 qubits).
 *
 * circuitDistance/circuitsEquivalent are the primitives behind the
 * verification layer's `dense` backend; consumers that need to scale
 * past this cap should go through verify/checker.h, whose `sampling`
 * backend estimates the same distance on a statevector budget.
 */

#pragma once

#include <array>
#include <cstddef>

#include "ir/circuit.h"
#include "linalg/complex_matrix.h"

namespace guoq {
namespace sim {

/** Hard cap for full-unitary evaluation (memory safety). */
constexpr int kMaxUnitaryQubits = 12;

/**
 * A gate bound to a register: its 2^m x 2^m matrix held inline, the
 * global index offset of each local index, and the ascending bit
 * positions its index groups are enumerated by. Binding also
 * classifies the matrix once as diagonal, phased involutive
 * permutation (X, Y, CX, Swap, CCX, ...) or dense, so applying it
 * repeats no per-call setup and allocates nothing.
 *
 * place() fixes the geometry and setMatrix() the entries; a caller
 * that re-binds only the angle (numerical instantiation) calls
 * setMatrix() alone.
 */
class BoundGate
{
  public:
    enum class Shape { Diagonal, Permutation, Dense };

    static constexpr int kMaxArity = 3;
    static constexpr std::size_t kMaxSpan = std::size_t{1} << kMaxArity;

    BoundGate() = default;

    /** place() and setMatrix() in one step. */
    BoundGate(const ir::Gate &gate, int num_qubits);

    /**
     * Bind the geometry: @p arity qubits @p qubits (the first is the
     * matrix MSB) of a @p num_qubits register. Panics when a qubit is
     * out of range or repeated.
     */
    void place(const int *qubits, int arity, int num_qubits);

    /**
     * Bind the entries: ir::gateMatrixInto(@p kind, @p params) and
     * classify them. @p kind must have the placed arity.
     */
    void setMatrix(ir::GateKind kind, const double *params);

    int arity() const { return arity_; }
    std::size_t span() const { return span_; }
    Shape shape() const { return shape_; }

    /** Matrix entry (a, b) in local indices. */
    const linalg::Complex &at(std::size_t a, std::size_t b) const
    {
        return m_[a * span_ + b];
    }

    /** Global index offset of local index @p a. */
    std::size_t offset(std::size_t a) const { return offset_[a]; }

    /** The global index of group @p i's local index 0. */
    std::size_t groupBase(std::size_t i) const;

    /**
     * Diagonal: the diagonal entry of row @p a. Permutation: the phase
     * of row @p a, so that out[a] = phase(a) * in[perm(a)].
     */
    const linalg::Complex &phase(std::size_t a) const { return phase_[a]; }

    /** Permutation: the source local index of row @p a. */
    std::size_t perm(std::size_t a) const { return perm_[a]; }

    /** The local index with the @p k-th smallest offset. */
    std::size_t ascending(std::size_t k) const { return byOffset_[k]; }

  private:
    void classify();

    int arity_ = 0;
    std::size_t span_ = 1;
    Shape shape_ = Shape::Dense;
    std::array<linalg::Complex, kMaxSpan * kMaxSpan> m_;
    std::array<std::size_t, kMaxSpan> offset_{};
    std::array<int, kMaxArity> sortedPos_{};
    std::array<std::size_t, kMaxSpan> byOffset_{}; //!< ascending offset
    std::array<std::size_t, kMaxSpan> perm_{};
    std::array<linalg::Complex, kMaxSpan> phase_;
};

/**
 * u <- G_full * u on the row-major @p dim x @p dim matrix @p u, where
 * dim = 2^n of the register @p g was placed on: rows mix, columns are
 * independent.
 */
void applyLeft(linalg::Complex *u, std::size_t dim, const BoundGate &g);

/**
 * u <- u * G_full in place: columns mix, rows are independent. Each
 * entry is summed exactly as ComplexMatrix::operator* would sum it
 * against the dense G_full (ascending global index, starting from 0,
 * skipping exactly-zero left entries), so the result is bit-identical
 * to that product, whatever the order of the gate's qubits.
 */
void applyRight(linalg::Complex *u, std::size_t dim, const BoundGate &g);

/**
 * Apply @p gate (acting on circuit qubits @p gate.qubits) to every
 * column of @p u in place; i.e. u <- G_full * u. @p num_qubits is the
 * circuit width (u is 2^n x 2^n).
 */
void applyGate(linalg::ComplexMatrix &u, const ir::Gate &gate,
               int num_qubits);

/** The full 2^n x 2^n unitary U_C of @p c. */
linalg::ComplexMatrix circuitUnitary(const ir::Circuit &c);

/** Hilbert–Schmidt distance between two circuits' unitaries. */
double circuitDistance(const ir::Circuit &a, const ir::Circuit &b);

/** ε-equivalence of circuits (Def. 3.3) via full unitaries. */
bool circuitsEquivalent(const ir::Circuit &a, const ir::Circuit &b,
                        double eps = 1e-9);

} // namespace sim
} // namespace guoq
