/** @file Tests for the rewrite-rule matcher. */

#include <gtest/gtest.h>

#include <cmath>

#include "reference/applier.h"
#include "rewrite/matcher.h"
#include "rewrite/rule.h"

namespace guoq {
namespace {

using namespace rewrite;
using ir::GateKind;

RewriteRule
cxCancelRule()
{
    return RewriteRule("cx_cancel",
                       {PatternGate{GateKind::CX, {0, 1}, {}},
                        PatternGate{GateKind::CX, {0, 1}, {}}},
                       {});
}

RewriteRule
rzMergeRule()
{
    return RewriteRule(
        "rz_merge",
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::var(0)}},
         PatternGate{GateKind::Rz, {0}, {AngleExpr::var(1)}}},
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::sum(0, 1)}}});
}

TEST(Matcher, FindsAdjacentCxPair)
{
    ir::Circuit c(2);
    c.cx(0, 1);
    c.cx(0, 1);
    const Matcher m(c);
    const auto match = m.matchAt(cxCancelRule(), 0);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->gateIndices, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(match->qubitBinding, (std::vector<int>{0, 1}));
}

TEST(Matcher, RejectsReversedCx)
{
    ir::Circuit c(2);
    c.cx(0, 1);
    c.cx(1, 0); // reversed: qubit variables inconsistent
    const Matcher m(c);
    EXPECT_FALSE(m.matchAt(cxCancelRule(), 0).has_value());
}

TEST(Matcher, MatchesAcrossUnrelatedWires)
{
    // A gate on a third wire between the pair does not block matching.
    ir::Circuit c(3);
    c.cx(0, 1); // 0
    c.h(2);     // 1: unrelated
    c.cx(0, 1); // 2
    const Matcher m(c);
    const auto match = m.matchAt(cxCancelRule(), 0);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->gateIndices, (std::vector<std::size_t>{0, 2}));
}

TEST(Matcher, InterveningGateOnSharedWireBlocks)
{
    ir::Circuit c(2);
    c.cx(0, 1);
    c.h(1); // breaks wire contiguity on qubit 1
    c.cx(0, 1);
    const Matcher m(c);
    EXPECT_FALSE(m.matchAt(cxCancelRule(), 0).has_value());
}

TEST(Matcher, BindsAngles)
{
    ir::Circuit c(1);
    c.rz(0.25, 0);
    c.rz(0.5, 0);
    const Matcher m(c);
    const auto match = m.matchAt(rzMergeRule(), 0);
    ASSERT_TRUE(match.has_value());
    ASSERT_EQ(match->angleBinding.size(), 2u);
    EXPECT_NEAR(match->angleBinding[0], 0.25, 1e-12);
    EXPECT_NEAR(match->angleBinding[1], 0.5, 1e-12);
}

TEST(Matcher, ConstantAngleMustMatch)
{
    RewriteRule rule(
        "rz_pi_only",
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::lit(M_PI)}}}, {});
    ir::Circuit yes(1), no(1);
    yes.rz(M_PI, 0);
    no.rz(0.5, 0);
    EXPECT_TRUE(Matcher(yes).matchAt(rule, 0).has_value());
    EXPECT_FALSE(Matcher(no).matchAt(rule, 0).has_value());
}

TEST(Matcher, ConstantAngleMatchesModulo2Pi)
{
    RewriteRule rule(
        "rz_pi_only",
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::lit(M_PI)}}}, {});
    ir::Circuit c(1);
    c.rz(-M_PI, 0); // -π ≡ π (mod 2π)
    EXPECT_TRUE(Matcher(c).matchAt(rule, 0).has_value());
}

TEST(Matcher, GuardRejects)
{
    RewriteRule rule(
        "rz_zero",
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::var(0)}}}, {},
        [](const std::vector<double> &a) {
            return std::abs(a[0]) < 1e-9;
        });
    ir::Circuit zero(1), nonzero(1);
    zero.rz(0, 0);
    nonzero.rz(0.3, 0);
    EXPECT_TRUE(Matcher(zero).matchAt(rule, 0).has_value());
    EXPECT_FALSE(Matcher(nonzero).matchAt(rule, 0).has_value());
}

TEST(Matcher, RepeatedAngleVariableConstrains)
{
    // Pattern Rz(a) Rz(a): both angles must be equal.
    RewriteRule rule(
        "rz_twice",
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::var(0)}},
         PatternGate{GateKind::Rz, {0}, {AngleExpr::var(0)}}},
        {PatternGate{GateKind::Rz, {0},
                     {AngleExpr{0, {{0, 2.0}}}}}});
    ir::Circuit same(1), diff(1);
    same.rz(0.4, 0);
    same.rz(0.4, 0);
    diff.rz(0.4, 0);
    diff.rz(0.5, 0);
    EXPECT_TRUE(Matcher(same).matchAt(rule, 0).has_value());
    EXPECT_FALSE(Matcher(diff).matchAt(rule, 0).has_value());
}

TEST(Matcher, AnchorMustMatchFirstPatternGate)
{
    ir::Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    const Matcher m(c);
    EXPECT_FALSE(m.matchAt(cxCancelRule(), 0).has_value()); // anchor = H
    EXPECT_TRUE(m.matchAt(cxCancelRule(), 1).has_value());
}

TEST(Matcher, QubitVariablesStayDistinct)
{
    // Pattern CX(0,1); CX(0,2) requires three distinct qubits.
    RewriteRule rule("shared_control",
                     {PatternGate{GateKind::CX, {0, 1}, {}},
                      PatternGate{GateKind::CX, {0, 2}, {}}},
                     {PatternGate{GateKind::CX, {0, 2}, {}},
                      PatternGate{GateKind::CX, {0, 1}, {}}});
    ir::Circuit distinct(3), repeat(2);
    distinct.cx(0, 1);
    distinct.cx(0, 2);
    repeat.cx(0, 1);
    repeat.cx(0, 1); // second target equals first: var clash
    EXPECT_TRUE(Matcher(distinct).matchAt(rule, 0).has_value());
    EXPECT_FALSE(Matcher(repeat).matchAt(rule, 0).has_value());
}

TEST(Matcher, InsertPosAfterEarlierProducerOnFreshWire)
{
    // Rz(q0); CX(q0,q1) with an X(q1) in between: valid match, but the
    // replacement must be inserted after the X.
    RewriteRule rule(
        "rz_commute",
        {PatternGate{GateKind::Rz, {0}, {AngleExpr::var(0)}},
         PatternGate{GateKind::CX, {0, 1}, {}}},
        {PatternGate{GateKind::CX, {0, 1}, {}},
         PatternGate{GateKind::Rz, {0}, {AngleExpr::var(0)}}});
    ir::Circuit c(2);
    c.rz(0.3, 0); // 0
    c.x(1);       // 1: feeds the CX on wire 1
    c.cx(0, 1);   // 2
    const Matcher m(c);
    const auto match = m.matchAt(rule, 0);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->insertPos, 2u); // after the X at index 1
}

TEST(Matcher, SandwichNonConvexRejected)
{
    // CX(0,1) ... X(0), X(1) ... CX(0,1) where the middle gates form a
    // bridge: contiguity on both wires is broken.
    ir::Circuit c(2);
    c.cx(0, 1);
    c.x(0);
    c.x(1);
    c.cx(0, 1);
    EXPECT_FALSE(Matcher(c).matchAt(cxCancelRule(), 0).has_value());
}

TEST(Matcher, OutOfRangeAnchorIsNoMatch)
{
    ir::Circuit c(2);
    c.cx(0, 1);
    EXPECT_FALSE(Matcher(c).matchAt(cxCancelRule(), 5).has_value());
}

} // namespace
} // namespace guoq
