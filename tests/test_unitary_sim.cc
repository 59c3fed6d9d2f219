/** @file Tests for the unitary simulator (circuit semantics, §3). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ir/circuit.h"
#include "linalg/unitary.h"
#include "reference/instantiate.h"
#include "sim/unitary_sim.h"
#include "tests/test_util.h"

namespace guoq {
namespace {

using linalg::ComplexMatrix;

TEST(UnitarySim, EmptyCircuitIsIdentity)
{
    const ComplexMatrix u = sim::circuitUnitary(ir::Circuit(3));
    EXPECT_LT(u.maxAbsDiff(ComplexMatrix::identity(8)), 1e-14);
}

TEST(UnitarySim, PaperExample31Composition)
{
    // C = T q1; CX q0 q1 has U_C = U_CX (I ⊗ U_T).
    ir::Circuit c(2);
    c.t(1);
    c.cx(0, 1);
    const ComplexMatrix expected =
        ir::gateMatrix(ir::GateKind::CX, {}) *
        ComplexMatrix::identity(2).kron(ir::gateMatrix(ir::GateKind::T, {}));
    EXPECT_LT(sim::circuitUnitary(c).maxAbsDiff(expected), 1e-12);
}

TEST(UnitarySim, Qubit0IsMostSignificantBit)
{
    // X on qubit 0 of 2 maps |00> -> |10>: column 0 has its 1 at row 2.
    ir::Circuit c(2);
    c.x(0);
    const ComplexMatrix u = sim::circuitUnitary(c);
    EXPECT_NEAR(std::abs(u(2, 0)), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(u(0, 0)), 0.0, 1e-12);
}

TEST(UnitarySim, SingleGateMatchesKronEmbedding)
{
    // H on qubit 1 of 3: I ⊗ H ⊗ I.
    ir::Circuit c(3);
    c.h(1);
    const ComplexMatrix expected =
        ComplexMatrix::identity(2)
            .kron(ir::gateMatrix(ir::GateKind::H, {}))
            .kron(ComplexMatrix::identity(2));
    EXPECT_LT(sim::circuitUnitary(c).maxAbsDiff(expected), 1e-12);
}

TEST(UnitarySim, NonAdjacentTwoQubitGate)
{
    // CX(0, 2) on 3 qubits against the explicit permutation matrix.
    ir::Circuit c(3);
    c.cx(0, 2);
    const ComplexMatrix u = sim::circuitUnitary(c);
    // |100> (4) -> |101> (5), |110> (6) -> |111> (7); low block fixed.
    EXPECT_NEAR(std::abs(u(5, 4)), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(u(7, 6)), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(u(0, 0)), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(u(4, 4)), 0.0, 1e-12);
}

TEST(UnitarySim, ReversedQubitOrderGate)
{
    // CX(1, 0): control is qubit 1 (LSB of the two), target qubit 0.
    ir::Circuit c(2);
    c.cx(1, 0);
    const ComplexMatrix u = sim::circuitUnitary(c);
    // |01> (1) -> |11> (3).
    EXPECT_NEAR(std::abs(u(3, 1)), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(u(1, 1)), 0.0, 1e-12);
}

TEST(UnitarySim, ProductOrderMatchesGateListOrder)
{
    support::Rng rng(8);
    const ir::Circuit a = testutil::randomNativeCircuit(
        ir::GateSetKind::IbmEagle, 2, 8, rng);
    const ir::Circuit b = testutil::randomNativeCircuit(
        ir::GateSetKind::IbmEagle, 2, 8, rng);
    ir::Circuit cat(2);
    cat.append(a);
    cat.append(b);
    const ComplexMatrix expected =
        sim::circuitUnitary(b) * sim::circuitUnitary(a);
    EXPECT_LT(sim::circuitUnitary(cat).maxAbsDiff(expected), 1e-10);
}

TEST(UnitarySim, UnitaryForRandomCircuits)
{
    support::Rng rng(13);
    for (int trial = 0; trial < 5; ++trial) {
        const ir::Circuit c = testutil::randomNativeCircuit(
            ir::GateSetKind::IonQ, 4, 25, rng);
        EXPECT_TRUE(sim::circuitUnitary(c).isUnitary(1e-8));
    }
}

TEST(UnitarySim, CircuitDistanceZeroForSameCircuit)
{
    support::Rng rng(14);
    const ir::Circuit c =
        testutil::randomNativeCircuit(ir::GateSetKind::Nam, 3, 15, rng);
    EXPECT_LT(sim::circuitDistance(c, c), 1e-7);
}

TEST(UnitarySim, CircuitsEquivalentDetectsCancellation)
{
    ir::Circuit a(2);
    a.cx(0, 1);
    a.cx(0, 1);
    EXPECT_TRUE(sim::circuitsEquivalent(a, ir::Circuit(2),
                                        testutil::kExact));
}

TEST(UnitarySim, CircuitsInequivalentDetected)
{
    ir::Circuit a(2);
    a.cx(0, 1);
    EXPECT_FALSE(sim::circuitsEquivalent(a, ir::Circuit(2), 1e-3));
}

TEST(UnitarySim, ApplyGateInPlaceMatchesFullBuild)
{
    ir::Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    ComplexMatrix u = ComplexMatrix::identity(4);
    for (const ir::Gate &g : c.gates())
        sim::applyGate(u, g, 2);
    EXPECT_LT(u.maxAbsDiff(sim::circuitUnitary(c)), 1e-13);
}

TEST(UnitarySim, ThreeQubitGateKernel)
{
    // CCX flips the target only when both controls are set.
    ir::Circuit c(3);
    c.ccx(0, 1, 2);
    const ComplexMatrix u = sim::circuitUnitary(c);
    EXPECT_NEAR(std::abs(u(7, 6)), 1.0, 1e-12);
    EXPECT_NEAR(std::abs(u(6, 7)), 1.0, 1e-12);
    for (int i = 0; i < 6; ++i)
        EXPECT_NEAR(std::abs(u(static_cast<std::size_t>(i),
                               static_cast<std::size_t>(i))),
                    1.0, 1e-12);
}

// --- bit identity with the legacy dense applyGate ----------------------

/** Every entry equal, real and imaginary part, with ==. */
void
expectBitEqual(const ComplexMatrix &want, const ComplexMatrix &got)
{
    ASSERT_EQ(want.rows(), got.rows());
    ASSERT_EQ(want.cols(), got.cols());
    for (std::size_t r = 0; r < want.rows(); ++r)
        for (std::size_t c = 0; c < want.cols(); ++c) {
            ASSERT_EQ(want(r, c).real(), got(r, c).real()) << r << "," << c;
            ASSERT_EQ(want(r, c).imag(), got(r, c).imag()) << r << "," << c;
        }
}

/**
 * A random gate of @p kind on a shuffled qubit subset; angles are
 * drawn from random values and the kπ/2 snaps that make rotations
 * diagonal or permutations.
 */
ir::Gate
randomGate(ir::GateKind kind, int num_qubits, support::Rng &rng)
{
    std::vector<int> qs(static_cast<std::size_t>(num_qubits));
    std::iota(qs.begin(), qs.end(), 0);
    for (std::size_t i = qs.size(); i > 1; --i)
        std::swap(qs[i - 1], qs[rng.index(i)]);
    qs.resize(static_cast<std::size_t>(ir::gateArity(kind)));
    std::vector<double> ps;
    for (int p = 0; p < ir::gateParamCount(kind); ++p)
        ps.push_back(rng.chance(0.5) ? rng.uniform(-M_PI, M_PI)
                                     : (static_cast<double>(
                                            rng.index(5)) - 2) *
                                           M_PI / 2);
    return ir::Gate(kind, qs, ps);
}

TEST(UnitarySimLegacy, ApplyGateBitIdenticalForEveryKind)
{
    support::Rng rng(1501);
    for (int nq = 3; nq <= 4; ++nq) {
        const std::size_t dim = std::size_t{1} << nq;
        for (int k = 0; k < static_cast<int>(ir::GateKind::NumKinds); ++k)
            for (int rep = 0; rep < 6; ++rep) {
                const ir::Gate g =
                    randomGate(static_cast<ir::GateKind>(k), nq, rng);
                ComplexMatrix want(dim, dim);
                for (std::size_t i = 0; i < dim * dim; ++i)
                    want.data()[i] = {rng.uniform(-1, 1),
                                      rng.uniform(-1, 1)};
                ComplexMatrix got = want;
                reference::applyGate(want, g, nq);
                sim::applyGate(got, g, nq);
                SCOPED_TRACE(g.toString());
                expectBitEqual(want, got);
            }
    }
}

TEST(UnitarySimLegacy, CircuitUnitaryBitIdentical)
{
    support::Rng rng(1502);
    const int nq = 4;
    ir::Circuit c(nq);
    for (int rep = 0; rep < 4; ++rep)
        for (int k = 0; k < static_cast<int>(ir::GateKind::NumKinds); ++k)
            c.add(randomGate(static_cast<ir::GateKind>(k), nq, rng));
    ComplexMatrix want = ComplexMatrix::identity(16);
    for (const ir::Gate &g : c.gates())
        reference::applyGate(want, g, nq);
    expectBitEqual(want, sim::circuitUnitary(c));
}

TEST(UnitarySimLegacy, ApplyRightMatchesDenseProduct)
{
    // u * G_full by the in-place column update equals the dense
    // product against the embedded gate, including high-qubit-first
    // orders and matrices with exact zeros.
    support::Rng rng(1503);
    const int nq = 3;
    const std::size_t dim = 8;
    for (int k = 0; k < static_cast<int>(ir::GateKind::NumKinds); ++k)
        for (int rep = 0; rep < 6; ++rep) {
            const ir::Gate g =
                randomGate(static_cast<ir::GateKind>(k), nq, rng);
            ComplexMatrix u(dim, dim);
            for (std::size_t i = 0; i < dim * dim; ++i)
                if (!rng.chance(0.25))
                    u.data()[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
            ComplexMatrix f = ComplexMatrix::identity(dim);
            reference::applyGate(f, g, nq);
            const ComplexMatrix want = u * f;
            sim::applyRight(u.data(), dim, sim::BoundGate(g, nq));
            SCOPED_TRACE(g.toString());
            expectBitEqual(want, u);
        }
}

TEST(UnitarySimDeathTest, BoundGateRejectsBadQubits)
{
    EXPECT_DEATH(sim::BoundGate(ir::Gate(ir::GateKind::CX, {0, 3}), 3),
                 "outside");
    EXPECT_DEATH(sim::BoundGate(ir::Gate(ir::GateKind::CX, {1, 1}), 3),
                 "repeated");
}

} // namespace
} // namespace guoq
