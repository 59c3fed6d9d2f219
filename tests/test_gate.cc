/** @file Tests for ir::Gate. */

#include <span>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "ir/circuit.h"
#include "ir/gate.h"
#include "sim/unitary_sim.h"
#include "tests/test_util.h"

namespace guoq {
namespace {

using ir::Gate;
using ir::GateKind;

std::vector<GateKind>
allKinds()
{
    std::vector<GateKind> out;
    for (int k = 0; k < static_cast<int>(GateKind::NumKinds); ++k)
        out.push_back(static_cast<GateKind>(k));
    return out;
}

class GateInverse : public ::testing::TestWithParam<GateKind>
{
};

TEST_P(GateInverse, GateTimesInverseIsIdentity)
{
    const GateKind kind = GetParam();
    const int arity = ir::gateArity(kind);
    std::vector<int> qubits;
    for (int q = 0; q < arity; ++q)
        qubits.push_back(q);
    std::vector<double> params(
        static_cast<std::size_t>(ir::gateParamCount(kind)), 0.83);
    const Gate g(kind, qubits, params);

    ir::Circuit c(arity);
    c.add(g);
    for (const Gate &inv : g.inverse())
        c.add(inv);
    ir::Circuit empty(arity);
    EXPECT_LT(sim::circuitDistance(c, empty), testutil::kExact)
        << ir::gateName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    All, GateInverse, ::testing::ValuesIn(allKinds()),
    [](const ::testing::TestParamInfo<GateKind> &info) {
        return ir::gateName(info.param);
    });

TEST(Gate, SameQubitsRequiresSameOrder)
{
    const Gate a(GateKind::CX, {0, 1});
    const Gate b(GateKind::CX, {0, 1});
    const Gate c(GateKind::CX, {1, 0});
    EXPECT_TRUE(a.sameQubits(b));
    EXPECT_FALSE(a.sameQubits(c));
}

TEST(Gate, OverlapsDetectsSharedWire)
{
    const Gate a(GateKind::CX, {0, 1});
    EXPECT_TRUE(a.overlaps(Gate(GateKind::H, {1})));
    EXPECT_FALSE(a.overlaps(Gate(GateKind::H, {2})));
}

TEST(Gate, ActsOn)
{
    const Gate a(GateKind::CCX, {2, 4, 6});
    EXPECT_TRUE(a.actsOn(4));
    EXPECT_FALSE(a.actsOn(3));
}

TEST(Gate, EqualityIncludesParams)
{
    const Gate a(GateKind::Rz, {0}, {0.5});
    const Gate b(GateKind::Rz, {0}, {0.5});
    const Gate c(GateKind::Rz, {0}, {0.6});
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a == c);
}

TEST(Gate, ToStringShowsNameAndQubits)
{
    const Gate g(GateKind::CX, {3, 7});
    const std::string s = g.toString();
    EXPECT_NE(s.find("cx"), std::string::npos);
    EXPECT_NE(s.find("3"), std::string::npos);
    EXPECT_NE(s.find("7"), std::string::npos);
}

TEST(Gate, NormalizeAngleRange)
{
    EXPECT_NEAR(ir::normalizeAngle(3 * M_PI), M_PI, 1e-12);
    EXPECT_NEAR(ir::normalizeAngle(-3 * M_PI), M_PI, 1e-12);
    EXPECT_NEAR(ir::normalizeAngle(0.25), 0.25, 1e-12);
    EXPECT_NEAR(ir::normalizeAngle(2 * M_PI), 0, 1e-12);
}

TEST(Gate, IsZeroAngleModulo2Pi)
{
    EXPECT_TRUE(ir::isZeroAngle(0));
    EXPECT_TRUE(ir::isZeroAngle(4 * M_PI));
    EXPECT_FALSE(ir::isZeroAngle(0.1));
    EXPECT_FALSE(ir::isZeroAngle(M_PI));
}

TEST(Gate, U2InverseIsExact)
{
    // U2 inverts to a U3 (documented special case).
    const Gate g(GateKind::U2, {0}, {0.4, 1.2});
    ir::Circuit c(1);
    c.add(g);
    for (const Gate &inv : g.inverse())
        c.add(inv);
    EXPECT_LT(sim::circuitDistance(c, ir::Circuit(1)), testutil::kExact);
}

TEST(Gate, StoresArgumentsInline)
{
    static_assert(std::is_trivially_copyable_v<Gate>);
    const Gate g(GateKind::U3, {2}, {0.1, 0.2, 0.3});
    Gate copy = g;
    EXPECT_EQ(copy, g);
    EXPECT_EQ(copy.qubits.size(), 1u);
    EXPECT_EQ(copy.params.size(), 3u);
    const std::span<const double> params = copy.params.span();
    EXPECT_EQ(params[2], 0.3);
    // Built from a vector, a span or another gate's arguments alike.
    const std::vector<int> qs = {4, 1, 0};
    const Gate a(GateKind::CCX, qs);
    const Gate b(GateKind::CCX, a.qubits);
    EXPECT_TRUE(a.sameQubits(b));
    EXPECT_EQ(b.qubits[0], 4);
}

TEST(GateDeathTest, OverCapacityArgumentsPanicBeforeCopying)
{
    EXPECT_DEATH(Gate(GateKind::CCX, {0, 1, 2, 3}),
                 "Gate\\(ccx\\): want 3 qubits, got 4");
    EXPECT_DEATH(Gate(GateKind::U3, {0}, {0.1, 0.2, 0.3, 0.4}),
                 "Gate\\(u3\\): want 3 params, got 4");
    const std::vector<int> wide = {0, 1, 2, 3};
    EXPECT_DEATH(Gate(GateKind::CX, wide),
                 "Gate\\(cx\\): want 2 qubits, got 4");
}

} // namespace
} // namespace guoq
