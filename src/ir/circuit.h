/**
 * @file
 * The circuit: an ordered list of gates over n qubits.
 *
 * Gates are stored in execution (topological) order; the DAG view in
 * dag/ is derived on demand. Convenience builders cover the gates the
 * workloads use so generator code reads like a circuit diagram.
 */

#pragma once

#include <string>
#include <vector>

#include "ir/gate.h"

namespace guoq {
namespace ir {

/**
 * The count metrics the cost objectives consume, gathered in one pass
 * (see Circuit::counts()); the rewrite engine keeps them incrementally
 * up to date across accepted passes.
 */
struct CircuitCounts
{
    std::size_t gates = 0;
    std::size_t twoQubit = 0; //!< gates of arity exactly 2
    std::size_t tGates = 0;   //!< T and T†

    bool operator==(const CircuitCounts &) const = default;
};

/** A quantum circuit: gate list plus qubit count. */
class Circuit
{
  public:
    Circuit() = default;
    explicit Circuit(int num_qubits);

    int numQubits() const { return numQubits_; }
    std::size_t size() const { return gates_.size(); }
    bool empty() const { return gates_.empty(); }

    const std::vector<Gate> &gates() const { return gates_; }
    std::vector<Gate> &gates() { return gates_; }
    const Gate &gate(std::size_t i) const { return gates_[i]; }

    /** Append a gate (validates qubit indices). */
    void add(Gate g);
    void add(GateKind kind, GateArgsRef<int> qubits,
             GateArgsRef<double> params = {});

    /** @name Builders (named after their OpenQASM mnemonics) */
    /** @{ */
    void h(int q) { add(GateKind::H, {q}); }
    void x(int q) { add(GateKind::X, {q}); }
    void y(int q) { add(GateKind::Y, {q}); }
    void z(int q) { add(GateKind::Z, {q}); }
    void s(int q) { add(GateKind::S, {q}); }
    void sdg(int q) { add(GateKind::Sdg, {q}); }
    void t(int q) { add(GateKind::T, {q}); }
    void tdg(int q) { add(GateKind::Tdg, {q}); }
    void sx(int q) { add(GateKind::SX, {q}); }
    void rx(double th, int q) { add(GateKind::Rx, {q}, {th}); }
    void ry(double th, int q) { add(GateKind::Ry, {q}, {th}); }
    void rz(double th, int q) { add(GateKind::Rz, {q}, {th}); }
    void u1(double lam, int q) { add(GateKind::U1, {q}, {lam}); }
    void u3(double th, double ph, double lam, int q)
    {
        add(GateKind::U3, {q}, {th, ph, lam});
    }
    void cx(int c, int t) { add(GateKind::CX, {c, t}); }
    void cz(int c, int t) { add(GateKind::CZ, {c, t}); }
    void swap(int a, int b) { add(GateKind::Swap, {a, b}); }
    void rxx(double th, int a, int b) { add(GateKind::Rxx, {a, b}, {th}); }
    void cp(double lam, int c, int t) { add(GateKind::CP, {c, t}, {lam}); }
    void ccx(int a, int b, int t) { add(GateKind::CCX, {a, b, t}); }
    void ccz(int a, int b, int c) { add(GateKind::CCZ, {a, b, c}); }
    /** @} */

    /** Append all gates of @p other (same qubit count required). */
    void append(const Circuit &other);

    /** @name Cost metrics (paper §5.1) */
    /** @{ */
    std::size_t gateCount() const { return gates_.size(); }
    std::size_t twoQubitGateCount() const;
    std::size_t tGateCount() const; //!< counts T and T†
    /** All of the above in a single pass over the gate list. */
    CircuitCounts counts() const;
    std::size_t countOf(GateKind kind) const;
    /** Circuit depth: longest dependency chain through shared qubits. */
    std::size_t depth() const;
    /** @} */

    /** The reversed circuit of inverse gates (C⁻¹). */
    Circuit inverse() const;

    /**
     * A copy with qubits renamed through @p mapping
     * (new_q = mapping[old_q]); used when splicing subcircuits.
     */
    Circuit remapped(const std::vector<int> &mapping, int new_num_qubits)
        const;

    /** The sorted list of qubits actually touched by gates. */
    std::vector<int> usedQubits() const;

    /** Multi-line listing (one gate per line). */
    std::string toString() const;

  private:
    int numQubits_ = 0;
    std::vector<Gate> gates_;
};

} // namespace ir
} // namespace guoq
