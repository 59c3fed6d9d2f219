#include "rewrite/rule_libraries.h"

#include <cmath>

#include "ir/gate.h"
#include "ir/gate_set.h"
#include "support/logging.h"

namespace guoq {
namespace rewrite {

namespace dsl {

namespace {

constexpr double kAngleTol = 1e-9;

bool
isMultipleOf2Pi(double a)
{
    return std::abs(ir::normalizeAngle(a)) <= kAngleTol;
}

} // namespace

AngleGuard
zeroGuard(int i)
{
    return [i](const std::vector<double> &angles) {
        return isMultipleOf2Pi(angles[static_cast<std::size_t>(i)]);
    };
}

AngleGuard
equalsGuard(int i, double value)
{
    return [i, value](const std::vector<double> &angles) {
        return isMultipleOf2Pi(angles[static_cast<std::size_t>(i)] - value);
    };
}

AngleGuard
sumZeroGuard(int i, int j)
{
    return [i, j](const std::vector<double> &angles) {
        return isMultipleOf2Pi(angles[static_cast<std::size_t>(i)] +
                               angles[static_cast<std::size_t>(j)]);
    };
}

} // namespace dsl

void
appendCommonCxRules(std::vector<RewriteRule> *rules)
{
    using namespace dsl;
    using ir::GateKind;

    // Fig. 3a: back-to-back CX on the same (control, target) cancels.
    rules->emplace_back("cx_cancel",
                        std::vector<PatternGate>{g(GateKind::CX, {0, 1}),
                                                 g(GateKind::CX, {0, 1})},
                        std::vector<PatternGate>{});

    // Fig. 3b: CXs sharing a control commute.
    rules->emplace_back("cx_commute_shared_control",
                        std::vector<PatternGate>{g(GateKind::CX, {0, 1}),
                                                 g(GateKind::CX, {0, 2})},
                        std::vector<PatternGate>{g(GateKind::CX, {0, 2}),
                                                 g(GateKind::CX, {0, 1})});

    // CXs sharing a target commute.
    rules->emplace_back("cx_commute_shared_target",
                        std::vector<PatternGate>{g(GateKind::CX, {0, 2}),
                                                 g(GateKind::CX, {1, 2})},
                        std::vector<PatternGate>{g(GateKind::CX, {1, 2}),
                                                 g(GateKind::CX, {0, 2})});
}

const std::vector<RewriteRule> &
rulesFor(ir::GateSetKind set)
{
    static const std::vector<RewriteRule> ibmq20 = buildIbmq20Rules();
    static const std::vector<RewriteRule> eagle = buildEagleRules();
    static const std::vector<RewriteRule> ionq = buildIonqRules();
    static const std::vector<RewriteRule> nam = buildNamRules();
    static const std::vector<RewriteRule> cliffordt = buildCliffordTRules();
    switch (set) {
      case ir::GateSetKind::Ibmq20:
        return ibmq20;
      case ir::GateSetKind::IbmEagle:
        return eagle;
      case ir::GateSetKind::IonQ:
        return ionq;
      case ir::GateSetKind::Nam:
        return nam;
      case ir::GateSetKind::CliffordT:
        return cliffordt;
    }
    support::panic("rulesFor: unknown gate set");
}

const std::vector<RewriteRule> &
sizeReducingRulesFor(ir::GateSetKind set)
{
    // Indexed by the GateSetKind value.
    static const std::vector<std::vector<RewriteRule>> subsets = [] {
        std::vector<std::vector<RewriteRule>> out(ir::allGateSets().size());
        for (const ir::GateSetKind s : ir::allGateSets())
            for (const RewriteRule &r : rulesFor(s))
                if (r.sizeDelta() > 0)
                    out[static_cast<std::size_t>(s)].push_back(r);
        return out;
    }();
    const std::size_t i = static_cast<std::size_t>(set);
    if (i >= subsets.size())
        support::panic("sizeReducingRulesFor: unknown gate set");
    return subsets[i];
}

} // namespace rewrite
} // namespace guoq
