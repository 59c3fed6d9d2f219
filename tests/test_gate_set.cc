/** @file Tests for the gate-set registry (paper Table 2). */

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/gate_set.h"

namespace guoq {
namespace {

TEST(GateSet, AllFiveRegistered)
{
    EXPECT_EQ(ir::allGateSets().size(), 5u);
}

TEST(GateSet, NamesMatchPaperTable2)
{
    EXPECT_EQ(ir::gateSetName(ir::GateSetKind::Ibmq20), "ibmq20");
    EXPECT_EQ(ir::gateSetName(ir::GateSetKind::IbmEagle), "ibm-eagle");
    EXPECT_EQ(ir::gateSetName(ir::GateSetKind::IonQ), "ionq");
    EXPECT_EQ(ir::gateSetName(ir::GateSetKind::Nam), "nam");
    EXPECT_EQ(ir::gateSetName(ir::GateSetKind::CliffordT), "cliffordt");
}

TEST(GateSet, ArchitecturesMatchPaperTable2)
{
    EXPECT_EQ(ir::gateSetArchitecture(ir::GateSetKind::IonQ), "Ion Trap");
    EXPECT_EQ(ir::gateSetArchitecture(ir::GateSetKind::CliffordT),
              "Fault Tolerant");
}

TEST(GateSet, NativeGatesIbmq20)
{
    using ir::GateKind;
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::Ibmq20, GateKind::U1));
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::Ibmq20, GateKind::U2));
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::Ibmq20, GateKind::U3));
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::Ibmq20, GateKind::CX));
    EXPECT_FALSE(ir::isNative(ir::GateSetKind::Ibmq20, GateKind::H));
}

TEST(GateSet, NativeGatesEagle)
{
    using ir::GateKind;
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::IbmEagle, GateKind::Rz));
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::IbmEagle, GateKind::SX));
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::IbmEagle, GateKind::X));
    EXPECT_FALSE(ir::isNative(ir::GateSetKind::IbmEagle, GateKind::H));
}

TEST(GateSet, NativeGatesIonq)
{
    using ir::GateKind;
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::IonQ, GateKind::Rxx));
    EXPECT_FALSE(ir::isNative(ir::GateSetKind::IonQ, GateKind::CX));
}

TEST(GateSet, NativeGatesCliffordT)
{
    using ir::GateKind;
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::CliffordT, GateKind::T));
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::CliffordT, GateKind::Tdg));
    EXPECT_TRUE(ir::isNative(ir::GateSetKind::CliffordT, GateKind::Sdg));
    EXPECT_FALSE(ir::isNative(ir::GateSetKind::CliffordT, GateKind::Rz));
}

TEST(GateSet, OnlyCliffordTIsFinite)
{
    for (ir::GateSetKind set : ir::allGateSets())
        EXPECT_EQ(ir::isFinite(set), set == ir::GateSetKind::CliffordT);
}

TEST(GateSet, EntanglingGate)
{
    EXPECT_EQ(ir::entanglingGate(ir::GateSetKind::IonQ),
              ir::GateKind::Rxx);
    EXPECT_EQ(ir::entanglingGate(ir::GateSetKind::Nam), ir::GateKind::CX);
}

TEST(GateSet, NativeGateListsConsistentWithPredicate)
{
    for (ir::GateSetKind set : ir::allGateSets()) {
        const std::vector<ir::GateKind> &list = ir::nativeGates(set);
        for (int k = 0; k < static_cast<int>(ir::GateKind::NumKinds); ++k) {
            const auto kind = static_cast<ir::GateKind>(k);
            EXPECT_EQ(ir::isNative(set, kind),
                      std::find(list.begin(), list.end(), kind) != list.end())
                << ir::gateSetName(set) << " " << ir::gateName(kind);
        }
    }
}

} // namespace
} // namespace guoq
