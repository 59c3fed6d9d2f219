#include "rewrite/matcher.h"

#include <cmath>

#include "ir/gate.h"

namespace guoq {
namespace rewrite {

namespace {

/** Angle equality modulo 2π. */
bool
anglesEqual(double a, double b, double tol = 1e-9)
{
    return std::abs(ir::normalizeAngle(a - b)) <= tol;
}

} // namespace

bool
matchAt(const ir::Circuit &c, const dag::CircuitDag &dag,
        const RewriteRule &rule, std::size_t anchor, MatchScratch &sc)
{
    const auto &gates = c.gates();
    if (anchor >= gates.size())
        return false;

    const auto nq = static_cast<std::size_t>(c.numQubits());
    if (sc.stamp.size() < nq) {
        sc.stamp.resize(nq, 0);
        sc.varOf.resize(nq);
        sc.lastOn.resize(nq);
        sc.firstOn.resize(nq);
    }
    ++sc.epoch;
    // Touch a qubit's map entries: defaulted on first access per probe.
    auto touch = [&sc](int q) {
        const auto u = static_cast<std::size_t>(q);
        if (sc.stamp[u] != sc.epoch) {
            sc.stamp[u] = sc.epoch;
            sc.varOf[u] = -1;
            sc.lastOn[u] = dag::kNoGate;
            sc.firstOn[u] = dag::kNoGate;
        }
    };

    const auto &pattern = rule.pattern();
    Match &m = sc.match;
    m.gateIndices.clear();
    m.qubitBinding.assign(static_cast<std::size_t>(rule.numQubitVars()),
                          -1);
    m.angleBinding.assign(static_cast<std::size_t>(rule.numAngleVars()),
                          0.0);
    sc.angleBound.assign(static_cast<std::size_t>(rule.numAngleVars()), 0);

    for (std::size_t pj = 0; pj < pattern.size(); ++pj) {
        const PatternGate &pg = pattern[pj];

        // Find the candidate circuit gate for this pattern gate.
        std::size_t cand = dag::kNoGate;
        if (pj == 0) {
            cand = anchor;
        } else {
            // Every wire of pg already bound to a matched wire must
            // point at the same next gate.
            for (int qv : pg.qubits) {
                const int cq =
                    m.qubitBinding[static_cast<std::size_t>(qv)];
                if (cq < 0)
                    continue;
                touch(cq);
                if (sc.lastOn[static_cast<std::size_t>(cq)] ==
                    dag::kNoGate)
                    continue;
                const std::size_t nxt =
                    dag.next(sc.lastOn[static_cast<std::size_t>(cq)], cq);
                if (nxt == dag::kNoGate)
                    return false;
                if (cand == dag::kNoGate)
                    cand = nxt;
                else if (cand != nxt)
                    return false;
            }
            // Patterns are connected: a gate with no bound wire cannot
            // be located deterministically.
            if (cand == dag::kNoGate)
                return false;
        }

        const ir::Gate &g = gates[cand];
        if (g.kind != pg.kind)
            return false;

        // Bind / check qubit variables positionally.
        for (std::size_t k = 0; k < pg.qubits.size(); ++k) {
            const int qv = pg.qubits[k];
            const int cq = g.qubits[k];
            touch(cq);
            int &bound = m.qubitBinding[static_cast<std::size_t>(qv)];
            if (bound < 0) {
                if (sc.varOf[static_cast<std::size_t>(cq)] != -1)
                    return false; // qubit already taken
                bound = cq;
                sc.varOf[static_cast<std::size_t>(cq)] = qv;
            } else if (bound != cq) {
                return false;
            }
        }

        // Bind / check angle variables.
        for (std::size_t k = 0; k < pg.params.size(); ++k) {
            const AngleExpr &e = pg.params[k];
            const double actual = g.params[k];
            if (e.isBareVar()) {
                const int v = e.terms[0].first;
                if (!sc.angleBound[static_cast<std::size_t>(v)]) {
                    m.angleBinding[static_cast<std::size_t>(v)] = actual;
                    sc.angleBound[static_cast<std::size_t>(v)] = 1;
                    continue;
                }
            }
            // Constraint: all vars must already be bound.
            for (const auto &[v, coeff] : e.terms) {
                if (!sc.angleBound[static_cast<std::size_t>(v)])
                    return false;
            }
            if (!anglesEqual(e.eval(m.angleBinding), actual))
                return false;
        }

        // Record wire bookkeeping.
        for (int cq : g.qubits) {
            touch(cq);
            if (sc.firstOn[static_cast<std::size_t>(cq)] == dag::kNoGate)
                sc.firstOn[static_cast<std::size_t>(cq)] = cand;
            sc.lastOn[static_cast<std::size_t>(cq)] = cand;
        }
        m.gateIndices.push_back(cand);
    }

    if (rule.guard() && !rule.guard()(m.angleBinding))
        return false;

    // Splice window: the replacement must go after every outside gate
    // that precedes the matched run on some bound wire, and before
    // every outside gate that follows it.
    std::size_t pos_lo = 0;
    std::size_t pos_hi = gates.size();
    for (int qv = 0; qv < rule.numQubitVars(); ++qv) {
        const int cq = m.qubitBinding[static_cast<std::size_t>(qv)];
        if (cq < 0)
            continue; // unused variable (cannot happen for valid rules)
        touch(cq);
        const std::size_t f = sc.firstOn[static_cast<std::size_t>(cq)];
        const std::size_t l = sc.lastOn[static_cast<std::size_t>(cq)];
        if (f == dag::kNoGate)
            continue;
        const std::size_t p = dag.prev(f, cq);
        if (p != dag::kNoGate && p + 1 > pos_lo)
            pos_lo = p + 1;
        const std::size_t n = dag.next(l, cq);
        if (n != dag::kNoGate && n < pos_hi)
            pos_hi = n;
    }
    if (pos_lo > pos_hi)
        return false;
    m.insertPos = pos_lo;
    return true;
}

} // namespace rewrite
} // namespace guoq
