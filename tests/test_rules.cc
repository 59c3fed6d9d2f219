/**
 * @file
 * Validation of every rewrite rule in every library: each rule's
 * pattern and replacement must be unitary-equivalent modulo global
 * phase on randomly drawn angles (the key soundness invariant — a bad
 * rule silently corrupts every optimizer built on it).
 */

#include <gtest/gtest.h>

#include "rewrite/rule.h"
#include "sim/unitary_sim.h"
#include "tests/test_util.h"

namespace guoq {
namespace {

struct RuleCase
{
    ir::GateSetKind set;
    const rewrite::RewriteRule *rule;
};

std::vector<RuleCase>
allRules()
{
    std::vector<RuleCase> cases;
    for (ir::GateSetKind set : ir::allGateSets())
        for (const rewrite::RewriteRule &r : rewrite::rulesFor(set))
            cases.push_back({set, &r});
    return cases;
}

class EveryRule : public ::testing::TestWithParam<RuleCase>
{
};

TEST_P(EveryRule, PatternEquivalentToReplacement)
{
    const RuleCase &rc = GetParam();
    support::Rng rng(0xBADC0DE);
    for (int trial = 0; trial < 8; ++trial) {
        ir::Circuit pattern, replacement;
        ASSERT_TRUE(rc.rule->concretize(rng, &pattern, &replacement))
            << rc.rule->name();
        EXPECT_LT(sim::circuitDistance(pattern, replacement),
                  testutil::kExact)
            << rc.rule->name() << "\npattern:\n"
            << pattern.toString() << "replacement:\n"
            << replacement.toString();
    }
}

TEST_P(EveryRule, NeverIncreasesSize)
{
    // Paper §6: guoq "does not consider any size-increasing rules".
    EXPECT_GE(GetParam().rule->sizeDelta(), 0) << GetParam().rule->name();
}

TEST_P(EveryRule, PatternFitsThreeGateCap)
{
    // QUESO-style small patterns (§6 discusses the 3-gate cap for rule
    // synthesis; our hand-written libraries allow at most 5 for the
    // CX-flip idiom).
    EXPECT_LE(GetParam().rule->pattern().size(), 5u)
        << GetParam().rule->name();
}

TEST_P(EveryRule, ReplacementUsesOnlyNativeGates)
{
    const RuleCase &rc = GetParam();
    for (const rewrite::PatternGate &g : rc.rule->replacement())
        EXPECT_TRUE(ir::isNative(rc.set, g.kind))
            << rc.rule->name() << " emits " << ir::gateName(g.kind);
}

TEST_P(EveryRule, PatternUsesOnlyNativeGates)
{
    const RuleCase &rc = GetParam();
    for (const rewrite::PatternGate &g : rc.rule->pattern())
        EXPECT_TRUE(ir::isNative(rc.set, g.kind))
            << rc.rule->name() << " matches " << ir::gateName(g.kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllLibraries, EveryRule, ::testing::ValuesIn(allRules()),
    [](const ::testing::TestParamInfo<RuleCase> &info) {
        std::string name = ir::gateSetName(info.param.set) + "_" +
                           info.param.rule->name();
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(RuleLibraries, EveryGateSetHasRules)
{
    for (ir::GateSetKind set : ir::allGateSets())
        EXPECT_GE(rewrite::rulesFor(set).size(), 10u)
            << ir::gateSetName(set);
}

TEST(RuleLibraries, NamesAreUniquePerLibrary)
{
    for (ir::GateSetKind set : ir::allGateSets()) {
        std::set<std::string> names;
        for (const rewrite::RewriteRule &r : rewrite::rulesFor(set))
            EXPECT_TRUE(names.insert(r.name()).second)
                << "duplicate rule name " << r.name() << " in "
                << ir::gateSetName(set);
    }
}

TEST(AngleExpr, EvaluatesAffineForms)
{
    const rewrite::AngleExpr e{0.5, {{0, 1.0}, {1, -2.0}}};
    EXPECT_NEAR(e.eval({1.0, 0.25}), 1.0, 1e-12);
    EXPECT_TRUE(rewrite::AngleExpr::var(3).isBareVar());
    EXPECT_FALSE(rewrite::AngleExpr::lit(1.0).isBareVar());
    EXPECT_FALSE(rewrite::AngleExpr::neg(0).isBareVar());
    EXPECT_EQ(rewrite::AngleExpr::sum(2, 5).maxVar(), 5);
    EXPECT_EQ(rewrite::AngleExpr::lit(2.0).maxVar(), -1);
}

TEST(RewriteRule, InstantiateReplacementBindsQubitsAndAngles)
{
    using namespace rewrite;
    using ir::GateKind;
    // Rz(a) Rz(b) -> Rz(a+b), instantiated at qubit 7 with a=1, b=2.
    RewriteRule rule(
        "merge",
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::var(0)}},
         PatternGate{GateKind::Rz, {0}, {AngleExpr::var(1)}}},
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::sum(0, 1)}}});
    std::vector<ir::Gate> out;
    rule.instantiateReplacement({7}, {1.0, 2.0}, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].qubits[0], 7);
    EXPECT_NEAR(out[0].params[0], 3.0, 1e-12);
}

} // namespace
} // namespace guoq
