/**
 * @file
 * Rewrite rules with symbolic angles (paper §2.1, Fig. 3).
 *
 * A rule is a pair of small gate-sequence templates over pattern
 * variables: qubit variables (q0, q1, ...) and angle variables
 * (θ0, θ1, ...). The pattern side binds variables by matching; the
 * replacement side may use affine expressions over the bound angles
 * (e.g. the Rz-merge rule of Fig. 3d replaces Rz(θ1) Rz(θ2) with
 * Rz(θ1+θ2)). Rules are exact (ε = 0): every library rule is
 * validated unitary-equivalent modulo global phase by the test suite.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ir/circuit.h"
#include "ir/gate_kind.h"
#include "ir/gate_set.h"
#include "support/rng.h"

namespace guoq {
namespace rewrite {

/**
 * An affine angle expression c + Σ coeff_i · θ_{var_i}.
 *
 * On the pattern side an expression that is a bare variable binds it;
 * anything else is an equality constraint on already-bound values. On
 * the replacement side expressions are evaluated against the binding.
 */
struct AngleExpr
{
    double constant = 0;
    /** (angle-variable index, coefficient) terms. */
    std::vector<std::pair<int, double>> terms;

    /** The bare variable θ_i. */
    static AngleExpr var(int i) { return AngleExpr{0, {{i, 1.0}}}; }

    /** The literal constant c. */
    static AngleExpr lit(double c) { return AngleExpr{c, {}}; }

    /** θ_i + θ_j. */
    static AngleExpr
    sum(int i, int j)
    {
        return AngleExpr{0, {{i, 1.0}, {j, 1.0}}};
    }

    /** -θ_i. */
    static AngleExpr neg(int i) { return AngleExpr{0, {{i, -1.0}}}; }

    /** True when this is a single bare variable (binds on match). */
    bool isBareVar() const;

    /** Largest variable index used, or -1. */
    int maxVar() const;

    /** Evaluate against @p binding (all used vars must be bound). */
    double eval(const std::vector<double> &binding) const;
};

/** One gate template in a pattern or replacement. */
struct PatternGate
{
    ir::GateKind kind = ir::GateKind::X;
    std::vector<int> qubits;       //!< qubit-variable indices
    std::vector<AngleExpr> params; //!< size == gateParamCount(kind)
};

/**
 * Guard over the bound angles; a match is only valid when the guard
 * returns true. Used e.g. by "Rz(θ) with θ ≈ 0 → drop" rules.
 */
using AngleGuard = std::function<bool(const std::vector<double> &)>;

/** A named, validated pattern → replacement rewrite rule. */
class RewriteRule
{
  public:
    /**
     * What matchAt's first step demands of the circuit gate that
     * matches pattern gate 1, compiled once per rule. Gate 1 is found
     * as the next gate after the anchor on the wires it shares with
     * gate 0 (its links), and its other positions (free) must bind
     * qubits the anchor does not hold. matcher.h's secondGateAdmits
     * turns these facts into an O(1) necessary condition for a match.
     */
    struct SecondGate
    {
        bool present = false; //!< the pattern has a gate 1
        ir::GateKind kind = ir::GateKind::X;
        /** (gate-0 position, gate-1 position) of each shared variable. */
        std::array<std::array<std::uint8_t, 2>, 3> links{};
        int numLinks = 0; //!< 0 with present: the rule can never match
        std::array<std::uint8_t, 3> free{}; //!< gate-1 positions
        int numFree = 0;
    };

    RewriteRule(std::string name, std::vector<PatternGate> pattern,
                std::vector<PatternGate> replacement,
                AngleGuard guard = nullptr);

    /**
     * A process-unique id assigned at construction and shared by
     * copies: a stable key for per-rule state (RewriteEngine's
     * no-match memo) where an address could be reused.
     */
    std::uint64_t id() const { return id_; }

    const SecondGate &secondGate() const { return second_; }

    const std::string &name() const { return name_; }
    const std::vector<PatternGate> &pattern() const { return pattern_; }
    const std::vector<PatternGate> &replacement() const
    {
        return replacement_;
    }
    const AngleGuard &guard() const { return guard_; }

    int numQubitVars() const { return numQubitVars_; }
    int numAngleVars() const { return numAngleVars_; }

    /** Pattern size minus replacement size (> 0 for reducing rules). */
    int
    sizeDelta() const
    {
        return static_cast<int>(pattern_.size()) -
               static_cast<int>(replacement_.size());
    }

    /**
     * Append the replacement gates for a concrete match to @p out.
     * @param qubit_binding circuit qubit for each qubit variable.
     * @param angle_binding value for each angle variable.
     */
    void instantiateReplacement(const std::vector<int> &qubit_binding,
                                const std::vector<double> &angle_binding,
                                std::vector<ir::Gate> &out) const;

    /**
     * Concrete (pattern, replacement) circuit pair on numQubitVars()
     * qubits with random guard-satisfying angles — the test suite
     * checks the pair is unitary-equivalent modulo global phase.
     * Returns false when no guard-satisfying angles were found.
     */
    bool concretize(support::Rng &rng, ir::Circuit *pattern_out,
                    ir::Circuit *replacement_out) const;

  private:
    std::string name_;
    std::vector<PatternGate> pattern_;
    std::vector<PatternGate> replacement_;
    AngleGuard guard_;
    int numQubitVars_ = 0;
    int numAngleVars_ = 0;
    std::uint64_t id_ = 0;
    SecondGate second_;
};

/**
 * The rule library for @p set — the QUESO-style small exact peepholes
 * GUOQ samples from (≤ 3-gate patterns, no size-increasing rules).
 */
const std::vector<RewriteRule> &rulesFor(ir::GateSetKind set);

/**
 * The size-reducing subset of rulesFor(@p set) (sizeDelta() > 0), in
 * rulesFor order: what the cleanup fixpoints run. Built once per gate
 * set.
 */
const std::vector<RewriteRule> &sizeReducingRulesFor(ir::GateSetKind set);

} // namespace rewrite
} // namespace guoq
