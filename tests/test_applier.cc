/** @file Tests for the full-pass rule applier. */

#include <gtest/gtest.h>

#include "reference/applier.h"
#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "sim/unitary_sim.h"
#include "tests/test_util.h"

namespace guoq {
namespace {

using namespace rewrite;
using ir::GateKind;

RewriteRule
hhCancel()
{
    return RewriteRule("h_h_cancel",
                       {PatternGate{GateKind::H, {0}, {}},
                        PatternGate{GateKind::H, {0}, {}}},
                       {});
}

TEST(Applier, ReplacesAllDisjointMatches)
{
    ir::Circuit c(3);
    c.h(0);
    c.h(0);
    c.h(1);
    c.h(1);
    c.h(2); // unpaired
    const PassResult r = applyRulePass(c, hhCancel(), 0);
    EXPECT_EQ(r.applications, 2);
    EXPECT_EQ(r.circuit.size(), 1u);
    EXPECT_EQ(r.circuit.gate(0).qubits[0], 2);
}

TEST(Applier, GreedyDisjointness)
{
    // H H H on one wire: exactly one pair cancels, one H remains.
    ir::Circuit c(1);
    c.h(0);
    c.h(0);
    c.h(0);
    const PassResult r = applyRulePass(c, hhCancel(), 0);
    EXPECT_EQ(r.applications, 1);
    EXPECT_EQ(r.circuit.size(), 1u);
}

TEST(Applier, AnchorChangesWhichMatchWins)
{
    // Starting mid-way pairs gates 1-2 instead of 0-1.
    ir::Circuit c(1);
    c.h(0);
    c.h(0);
    c.h(0);
    const PassResult r = applyRulePass(c, hhCancel(), 1);
    EXPECT_EQ(r.applications, 1);
    EXPECT_EQ(r.circuit.size(), 1u);
}

TEST(Applier, NoMatchLeavesCircuitIntact)
{
    ir::Circuit c(2);
    c.h(0);
    c.x(0);
    c.h(0);
    const PassResult r = applyRulePass(c, hhCancel(), 0);
    EXPECT_EQ(r.applications, 0);
    EXPECT_EQ(r.circuit.size(), 3u);
}

TEST(Applier, CommutationReordersInPlace)
{
    RewriteRule commute(
        "rz_commute_cx_control",
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::var(0)}},
         PatternGate{GateKind::CX, {0, 1}, {}}},
        {PatternGate{GateKind::CX, {0, 1}, {}},
         PatternGate{GateKind::Rz, {0}, {AngleExpr::var(0)}}});
    ir::Circuit c(2);
    c.rz(0.5, 0);
    c.cx(0, 1);
    const PassResult r = applyRulePass(c, commute, 0);
    EXPECT_EQ(r.applications, 1);
    ASSERT_EQ(r.circuit.size(), 2u);
    EXPECT_EQ(r.circuit.gate(0).kind, GateKind::CX);
    EXPECT_EQ(r.circuit.gate(1).kind, GateKind::Rz);
    EXPECT_LT(sim::circuitDistance(c, r.circuit), testutil::kExact);
}

class ApplierSemanticsProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ApplierSemanticsProperty, EveryLibraryPassPreservesSemantics)
{
    const auto [set_index, seed] = GetParam();
    const ir::GateSetKind set = ir::allGateSets()[
        static_cast<std::size_t>(set_index)];
    support::Rng rng(static_cast<std::uint64_t>(seed) * 733 + 1);
    ir::Circuit c = testutil::randomNativeCircuit(set, 4, 35, rng);
    for (const RewriteRule &rule : rulesFor(set)) {
        const PassResult r = applyRulePassRandom(c, rule, rng);
        if (r.applications > 0) {
            ASSERT_LT(sim::circuitDistance(c, r.circuit),
                      testutil::kExact)
                << rule.name() << " broke semantics";
            c = r.circuit;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApplierSemanticsProperty,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 6)));

TEST(Fixpoint, DrainsCancellations)
{
    ir::Circuit c(2);
    for (int i = 0; i < 6; ++i)
        c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    const ir::Circuit out =
        applyRulesToFixpoint(c, rulesFor(ir::GateSetKind::Nam));
    EXPECT_EQ(out.size(), 0u);
}

TEST(Fixpoint, TerminatesOnCommutationLoops)
{
    // Commutation rules alone could ping-pong forever; the round cap
    // must terminate the loop.
    ir::Circuit c(2);
    c.rz(0.3, 0);
    c.cx(0, 1);
    const ir::Circuit out =
        applyRulesToFixpoint(c, rulesFor(ir::GateSetKind::Nam), 8);
    EXPECT_EQ(out.size(), 2u);
}

TEST(Fixpoint, MergesRotationChains)
{
    ir::Circuit c(1);
    for (int i = 0; i < 8; ++i)
        c.rz(0.25, 0);
    const ir::Circuit out =
        applyRulesToFixpoint(c, rulesFor(ir::GateSetKind::Nam));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out.gate(0).params[0], 2.0, 1e-9);
}

TEST(Fixpoint, ZeroRotationVanishes)
{
    ir::Circuit c(1);
    c.rz(0.4, 0);
    c.rz(-0.4, 0);
    const ir::Circuit out =
        applyRulesToFixpoint(c, rulesFor(ir::GateSetKind::Nam));
    EXPECT_EQ(out.size(), 0u);
}

TEST(Applier, EmptyCircuitNoop)
{
    const PassResult r = applyRulePass(ir::Circuit(2), hhCancel(), 0);
    EXPECT_EQ(r.applications, 0);
    EXPECT_TRUE(r.circuit.empty());
}

} // namespace
} // namespace guoq
