#include "rewrite/rule.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>

#include "support/logging.h"

namespace guoq {
namespace rewrite {

bool
AngleExpr::isBareVar() const
{
    return constant == 0 && terms.size() == 1 && terms[0].second == 1.0;
}

int
AngleExpr::maxVar() const
{
    int m = -1;
    for (const auto &[v, coeff] : terms)
        m = std::max(m, v);
    return m;
}

double
AngleExpr::eval(const std::vector<double> &binding) const
{
    double v = constant;
    for (const auto &[var, coeff] : terms) {
        if (var < 0 || var >= static_cast<int>(binding.size()))
            support::panic("AngleExpr::eval: unbound angle variable");
        v += coeff * binding[static_cast<std::size_t>(var)];
    }
    return v;
}

RewriteRule::RewriteRule(std::string name, std::vector<PatternGate> pattern,
                         std::vector<PatternGate> replacement,
                         AngleGuard guard)
    : name_(std::move(name)), pattern_(std::move(pattern)),
      replacement_(std::move(replacement)), guard_(std::move(guard))
{
    if (pattern_.empty())
        support::panic("RewriteRule '" + name_ + "': empty pattern");
    for (const PatternGate &g : pattern_) {
        for (int q : g.qubits)
            numQubitVars_ = std::max(numQubitVars_, q + 1);
        for (const AngleExpr &e : g.params)
            numAngleVars_ = std::max(numAngleVars_, e.maxVar() + 1);
        if (static_cast<int>(g.qubits.size()) != ir::gateArity(g.kind) ||
            static_cast<int>(g.params.size()) != ir::gateParamCount(g.kind))
            support::panic("RewriteRule '" + name_ +
                           "': pattern gate shape mismatch");
    }
    for (const PatternGate &g : replacement_) {
        for (int q : g.qubits) {
            if (q < 0 || q >= numQubitVars_)
                support::panic("RewriteRule '" + name_ +
                               "': replacement uses unbound qubit var");
        }
        if (static_cast<int>(g.qubits.size()) != ir::gateArity(g.kind) ||
            static_cast<int>(g.params.size()) != ir::gateParamCount(g.kind))
            support::panic("RewriteRule '" + name_ +
                           "': replacement gate shape mismatch");
        for (const AngleExpr &e : g.params) {
            if (e.maxVar() >= numAngleVars_)
                support::panic("RewriteRule '" + name_ +
                               "': replacement uses unbound angle var");
        }
    }

    static std::atomic<std::uint64_t> next_id{0};
    id_ = next_id.fetch_add(1, std::memory_order_relaxed);

    if (pattern_.size() < 2)
        return;
    const PatternGate &g0 = pattern_[0];
    const PatternGate &g1 = pattern_[1];
    second_.present = true;
    second_.kind = g1.kind;
    for (std::size_t p1 = 0; p1 < g1.qubits.size(); ++p1) {
        const auto p0 = static_cast<std::size_t>(
            std::find(g0.qubits.begin(), g0.qubits.end(), g1.qubits[p1]) -
            g0.qubits.begin());
        if (p0 < g0.qubits.size())
            second_.links[static_cast<std::size_t>(second_.numLinks++)] = {
                static_cast<std::uint8_t>(p0),
                static_cast<std::uint8_t>(p1)};
        else
            second_.free[static_cast<std::size_t>(second_.numFree++)] =
                static_cast<std::uint8_t>(p1);
    }
}

void
RewriteRule::instantiateReplacement(const std::vector<int> &qubit_binding,
                                    const std::vector<double> &angle_binding,
                                    std::vector<ir::Gate> &out) const
{
    for (const PatternGate &g : replacement_) {
        std::array<int, ir::kMaxGateArgs> qubits{};
        for (std::size_t k = 0; k < g.qubits.size(); ++k)
            qubits[k] =
                qubit_binding[static_cast<std::size_t>(g.qubits[k])];
        std::array<double, ir::kMaxGateArgs> params{};
        for (std::size_t k = 0; k < g.params.size(); ++k)
            params[k] = ir::normalizeAngle(g.params[k].eval(angle_binding));
        out.emplace_back(g.kind,
                         std::span<const int>(qubits.data(), g.qubits.size()),
                         std::span<const double>(params.data(),
                                                 g.params.size()));
    }
}

bool
RewriteRule::concretize(support::Rng &rng, ir::Circuit *pattern_out,
                        ir::Circuit *replacement_out) const
{
    constexpr int kMaxGuardTries = 64;
    std::vector<double> angles(static_cast<std::size_t>(numAngleVars_));
    for (int attempt = 0; attempt < kMaxGuardTries; ++attempt) {
        for (double &a : angles)
            a = rng.uniform(-M_PI, M_PI);
        if (!guard_ || guard_(angles)) {
            ir::Circuit pat(numQubitVars_);
            for (const PatternGate &g : pattern_) {
                std::vector<double> params;
                for (const AngleExpr &e : g.params)
                    params.push_back(e.eval(angles));
                pat.add(g.kind, g.qubits, params);
            }
            ir::Circuit rep(numQubitVars_);
            std::vector<int> identity(
                static_cast<std::size_t>(numQubitVars_));
            for (int q = 0; q < numQubitVars_; ++q)
                identity[static_cast<std::size_t>(q)] = q;
            std::vector<ir::Gate> gates;
            instantiateReplacement(identity, angles, gates);
            for (ir::Gate &g : gates)
                rep.add(std::move(g));
            *pattern_out = std::move(pat);
            *replacement_out = std::move(rep);
            return true;
        }
    }
    // Guards like "θ ≈ 0" or "θ ≈ π" never pass on random draws; try
    // the guards' common fixed points instead.
    for (const double fixed : {0.0, M_PI, M_PI / 2, M_PI / 4, -M_PI / 2}) {
        std::fill(angles.begin(), angles.end(), fixed);
        if (guard_ && !guard_(angles))
            continue;
        ir::Circuit pat(numQubitVars_);
        for (const PatternGate &g : pattern_) {
            std::vector<double> params;
            for (const AngleExpr &e : g.params)
                params.push_back(e.eval(angles));
            pat.add(g.kind, g.qubits, params);
        }
        ir::Circuit rep(numQubitVars_);
        std::vector<int> identity(
            static_cast<std::size_t>(numQubitVars_));
        for (int q = 0; q < numQubitVars_; ++q)
            identity[static_cast<std::size_t>(q)] = q;
        std::vector<ir::Gate> gates;
        instantiateReplacement(identity, angles, gates);
        for (ir::Gate &g : gates)
            rep.add(std::move(g));
        *pattern_out = std::move(pat);
        *replacement_out = std::move(rep);
        return true;
    }
    return false;
}

} // namespace rewrite
} // namespace guoq
