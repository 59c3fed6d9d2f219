/** @file Tests for ansatz templates and numerical instantiation. */

#include <gtest/gtest.h>

#include <cmath>

#include "reference/instantiate.h"
#include "sim/unitary_sim.h"
#include "synth/instantiate.h"
#include "tests/test_util.h"

namespace guoq {
namespace {

TEST(Ansatz, InitialAnsatzShape)
{
    const synth::Ansatz a = synth::initialAnsatz(3);
    EXPECT_EQ(a.numParams(), 9);
    EXPECT_EQ(a.gates().size(), 9u);
    EXPECT_EQ(a.twoQubitCount(), 0);
}

TEST(Ansatz, EntanglerBlockAddsCxAndDressing)
{
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    EXPECT_EQ(a.numParams(), 12);
    EXPECT_EQ(a.twoQubitCount(), 1);
}

TEST(Ansatz, RxxBlockIsParameterized)
{
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, true);
    EXPECT_EQ(a.numParams(), 13); // entangler angle is free too
}

TEST(Ansatz, InstantiateBindsParameters)
{
    synth::Ansatz a(1);
    a.addParameterized(ir::GateKind::Rz, {0});
    a.addFixed(ir::GateKind::Ry, {0}, 0.5);
    const ir::Circuit c = a.instantiate({1.25});
    ASSERT_EQ(c.size(), 2u);
    EXPECT_NEAR(c.gate(0).params[0], 1.25, 1e-15);
    EXPECT_NEAR(c.gate(1).params[0], 0.5, 1e-15);
}

class GradientCheck : public ::testing::TestWithParam<int>
{
};

TEST_P(GradientCheck, AnalyticMatchesNumeric)
{
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 311 + 7);
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, GetParam() % 2 == 1);

    const ir::Circuit target_circuit = testutil::randomNativeCircuit(
        ir::GateSetKind::IbmEagle, 2, 8, rng);
    const linalg::ComplexMatrix target =
        sim::circuitUnitary(target_circuit);

    std::vector<double> x(static_cast<std::size_t>(a.numParams()));
    for (double &xi : x)
        xi = rng.uniform(-2, 2);
    std::vector<double> grad;
    const double f0 = synth::hsCostAndGrad(a, target, x, &grad);

    const double h = 1e-6;
    for (std::size_t k = 0; k < x.size(); k += 3) {
        std::vector<double> xp = x;
        xp[k] += h;
        const double fp = synth::hsCostAndGrad(a, target, xp, nullptr);
        EXPECT_NEAR((fp - f0) / h, grad[k], 1e-4) << "param " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GradientCheck, ::testing::Range(0, 8));

TEST(Instantiate, FitsSingleQubitTarget)
{
    support::Rng rng(3);
    synth::Ansatz a = synth::initialAnsatz(1);
    ir::Circuit t(1);
    t.u3(0.7, -1.1, 2.2, 0);
    const synth::InstantiateResult r = synth::instantiate(
        a, sim::circuitUnitary(t), 1e-7, 4, rng, support::Deadline::in(10));
    EXPECT_TRUE(r.success);
    EXPECT_LE(r.hsDistanceValue, 1e-7);
}

TEST(Instantiate, FitsTwoQubitTargetWithTwoBlocks)
{
    support::Rng rng(4);
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    ir::Circuit t(2);
    t.h(0);
    t.cx(0, 1);
    t.rz(0.3, 1);
    t.cx(0, 1);
    const synth::InstantiateResult r = synth::instantiate(
        a, sim::circuitUnitary(t), 1e-6, 6, rng,
        support::Deadline::in(20));
    EXPECT_TRUE(r.success);
}

TEST(Instantiate, ReportsFailureWhenStructureTooWeak)
{
    // A bare 1q layer cannot realize an entangling target.
    support::Rng rng(5);
    synth::Ansatz a = synth::initialAnsatz(2);
    ir::Circuit t(2);
    t.h(0);
    t.cx(0, 1);
    const synth::InstantiateResult r = synth::instantiate(
        a, sim::circuitUnitary(t), 1e-6, 3, rng,
        support::Deadline::in(5));
    EXPECT_FALSE(r.success);
    EXPECT_GT(r.hsDistanceValue, 0.05);
}

TEST(Instantiate, WarmStartHintConverges)
{
    // Fit once, perturb, refit with the hint: should converge quickly.
    support::Rng rng(6);
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    std::vector<double> truth(static_cast<std::size_t>(a.numParams()));
    for (double &v : truth)
        v = rng.uniform(-M_PI, M_PI);
    const linalg::ComplexMatrix target =
        sim::circuitUnitary(a.instantiate(truth));
    const synth::InstantiateResult r = synth::instantiate(
        a, target, 1e-7, 1, rng, support::Deadline::in(10), &truth);
    EXPECT_TRUE(r.success);
}

TEST(Instantiate, HonorsDeadline)
{
    support::Rng rng(7);
    synth::Ansatz a = synth::initialAnsatz(3);
    for (int i = 0; i < 6; ++i)
        synth::appendEntanglerBlock(&a, i % 2, i % 2 + 1, false);
    ir::Circuit t(3);
    t.ccx(0, 1, 2);
    support::Timer timer;
    synth::instantiate(a, sim::circuitUnitary(t), 1e-12, 100, rng,
                       support::Deadline::in(0.2));
    EXPECT_LT(timer.seconds(), 2.0);
}

// --- bit identity with the legacy dense kernel ------------------------

/**
 * A seeded QSearch-shaped ansatz: the 1q layer, then @p blocks
 * entangler blocks on random pairs, given in either qubit order (QSearch
 * seed entanglers can be high-qubit-first), plus fixed slots snapped to
 * kπ/2 — what simplifyAngles leaves, and what makes a rotation
 * diagonal (Ry(0), Rz(π)) or dense with a near-zero entry (Ry(π)).
 */
synth::Ansatz
seededAnsatz(int nq, int blocks, bool use_rxx, support::Rng &rng)
{
    synth::Ansatz a = synth::initialAnsatz(nq);
    for (int b = 0; b < blocks; ++b) {
        const int q0 = static_cast<int>(
            rng.index(static_cast<std::size_t>(nq)));
        int q1 = q0;
        while (q1 == q0)
            q1 = static_cast<int>(rng.index(static_cast<std::size_t>(nq)));
        synth::appendEntanglerBlock(&a, q0, q1, use_rxx);
        const int q = static_cast<int>(
            rng.index(static_cast<std::size_t>(nq)));
        const ir::GateKind kinds[] = {ir::GateKind::Ry, ir::GateKind::Rz,
                                      ir::GateKind::Rx};
        a.addFixed(kinds[rng.index(3)], {q},
                   static_cast<double>(rng.index(5)) * M_PI / 2 - M_PI);
    }
    a.addFixed(ir::GateKind::Ry, {0}, 0.0);
    a.addFixed(ir::GateKind::Rz, {nq - 1}, M_PI);
    a.addFixed(ir::GateKind::Ry, {nq - 1}, M_PI);
    a.addFixed(use_rxx ? ir::GateKind::Rxx : ir::GateKind::CZ, {nq - 1, 0},
               M_PI / 2);
    if (nq >= 3)
        a.addFixed(ir::GateKind::CCX, {nq - 1, 0, 1});
    return a;
}

void
expectSameCostAndGrad(const synth::Ansatz &a,
                      const linalg::ComplexMatrix &target,
                      const std::vector<double> &x,
                      synth::AnsatzEvaluator &eval)
{
    std::vector<double> want_grad;
    std::vector<double> got_grad;
    const double want =
        reference::hsCostAndGrad(a, target, x, &want_grad);
    EXPECT_EQ(want, eval.costAndGrad(x, &got_grad));
    ASSERT_EQ(want_grad.size(), got_grad.size());
    for (std::size_t k = 0; k < want_grad.size(); ++k)
        EXPECT_EQ(want_grad[k], got_grad[k]) << "param " << k;

    // The cost-only path (the solver's trial steps).
    EXPECT_EQ(reference::hsCostAndGrad(a, target, x, nullptr),
              eval.costAndGrad(x, nullptr));
    EXPECT_EQ(want, synth::hsCostAndGrad(a, target, x, nullptr));
}

class LegacyKernel
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(LegacyKernel, EvaluatorIsBitIdentical)
{
    const auto [nq, use_rxx] = GetParam();
    for (int seed = 0; seed < 4; ++seed) {
        support::Rng rng(static_cast<std::uint64_t>(1500 + 97 * nq + seed));
        const synth::Ansatz a = seededAnsatz(nq, nq + seed, use_rxx, rng);
        const linalg::ComplexMatrix target =
            sim::circuitUnitary(testutil::randomNativeCircuit(
                use_rxx ? ir::GateSetKind::IonQ : ir::GateSetKind::Nam, nq,
                6 * nq, rng));
        // One evaluator across several points: re-binding must leave
        // no state behind from the previous call.
        synth::AnsatzEvaluator eval(a, target);
        for (int point = 0; point < 4; ++point) {
            std::vector<double> x(static_cast<std::size_t>(a.numParams()));
            for (double &xi : x)
                xi = point == 3 ? static_cast<double>(rng.index(5)) *
                                          M_PI / 2 - M_PI
                                : rng.uniform(-M_PI, M_PI);
            if (point == 2)
                x[0] = 0.0; // a free slot that binds diagonal
            SCOPED_TRACE(testing::Message()
                         << nq << "q seed " << seed << " point " << point);
            expectSameCostAndGrad(a, target, x, eval);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, LegacyKernel,
    ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Bool()));

TEST(LegacyKernel, PerfbenchProbeAnsatzeAreBitIdentical)
{
    // The per-layer probes' shapes: 2 CX blocks at 2q, and the
    // 2-block 3q ansatz against CCX.
    synth::Ansatz a3 = synth::initialAnsatz(3);
    synth::appendEntanglerBlock(&a3, 0, 1, false);
    synth::appendEntanglerBlock(&a3, 1, 2, false);
    ir::Circuit ccx(3);
    ccx.ccx(0, 1, 2);
    const linalg::ComplexMatrix target = sim::circuitUnitary(ccx);
    synth::AnsatzEvaluator eval(a3, target);
    expectSameCostAndGrad(
        a3, target,
        std::vector<double>(static_cast<std::size_t>(a3.numParams()), 0.3),
        eval);
}

TEST(LegacyKernel, EmptyAnsatzIsBitIdentical)
{
    const synth::Ansatz a(2);
    ir::Circuit t(2);
    t.h(0);
    const linalg::ComplexMatrix target = sim::circuitUnitary(t);
    synth::AnsatzEvaluator eval(a, target);
    expectSameCostAndGrad(a, target, {}, eval);
}

// --- residuals and Jacobian -----------------------------------------

/** e^{-iφ}·U†V(θ) − I, built from the dense circuit unitary. */
linalg::ComplexMatrix
alignedResidual(const synth::Ansatz &a, const linalg::ComplexMatrix &udag,
                const std::vector<double> &x, linalg::Complex align)
{
    linalg::ComplexMatrix r = udag * sim::circuitUnitary(a.instantiate(x));
    for (std::size_t i = 0; i < r.rows(); ++i)
        for (std::size_t j = 0; j < r.cols(); ++j)
            r(i, j) = align * r(i, j) - (i == j ? 1.0 : 0.0);
    return r;
}

class ResidualJacobian
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(ResidualJacobian, MatchesCentralDifferences)
{
    const auto [nq, use_rxx] = GetParam();
    for (int seed = 0; seed < 3; ++seed) {
        SCOPED_TRACE(testing::Message() << nq << "q seed " << seed);
        support::Rng rng(static_cast<std::uint64_t>(2400 + 31 * nq + seed));
        const synth::Ansatz a = seededAnsatz(nq, nq + seed, use_rxx, rng);
        const linalg::ComplexMatrix target =
            sim::circuitUnitary(testutil::randomNativeCircuit(
                use_rxx ? ir::GateSetKind::IonQ : ir::GateSetKind::Nam, nq,
                6 * nq, rng));
        const linalg::ComplexMatrix udag = target.dagger();
        std::vector<double> x(static_cast<std::size_t>(a.numParams()));
        for (double &xi : x)
            xi = rng.uniform(-M_PI, M_PI);

        synth::AnsatzEvaluator eval(a, target);
        const std::size_t rows = eval.numResiduals();
        const std::size_t dim2 = rows / 2;
        std::vector<double> r(rows);
        std::vector<double> jac(rows * x.size());
        const double cost = eval.residuals(x, r.data(), jac.data());
        EXPECT_EQ(cost, eval.costAndGrad(x, nullptr));

        // The residuals are e^{-iφ}M − I with φ = arg Tr M, and their
        // squared norm is 2N · cost.
        linalg::ComplexMatrix m = udag * sim::circuitUnitary(a.instantiate(x));
        linalg::Complex tr = 0;
        for (std::size_t i = 0; i < m.rows(); ++i)
            tr += m(i, i);
        const linalg::Complex align = std::conj(tr) / std::abs(tr);
        const linalg::ComplexMatrix want = alignedResidual(a, udag, x, align);
        double norm2 = 0;
        for (std::size_t i = 0; i < dim2; ++i) {
            EXPECT_NEAR(r[i], want.data()[i].real(), 1e-12) << "re " << i;
            EXPECT_NEAR(r[dim2 + i], want.data()[i].imag(), 1e-12)
                << "im " << i;
            norm2 += r[i] * r[i] + r[dim2 + i] * r[dim2 + i];
        }
        EXPECT_NEAR(norm2, 2.0 * static_cast<double>(m.rows()) * cost,
                    1e-12);

        // Column p against central differences with φ held fixed.
        const double h = 1e-5;
        for (std::size_t p = 0; p < x.size(); ++p) {
            std::vector<double> xp = x;
            std::vector<double> xm = x;
            xp[p] += h;
            xm[p] -= h;
            const linalg::ComplexMatrix fp =
                alignedResidual(a, udag, xp, align);
            const linalg::ComplexMatrix fm =
                alignedResidual(a, udag, xm, align);
            for (std::size_t i = 0; i < dim2; ++i) {
                const linalg::Complex d =
                    (fp.data()[i] - fm.data()[i]) / (2 * h);
                EXPECT_NEAR(jac[p * rows + i], d.real(), 1e-8)
                    << "param " << p << " re " << i;
                EXPECT_NEAR(jac[p * rows + dim2 + i], d.imag(), 1e-8)
                    << "param " << p << " im " << i;
            }
        }
    }
}

// 2 and 3 qubits with CX entanglers, and 2 qubits with Rxx.
INSTANTIATE_TEST_SUITE_P(Ansatze, ResidualJacobian,
                         ::testing::Values(std::tuple{2, false},
                                           std::tuple{3, false},
                                           std::tuple{2, true}));

TEST(Instantiate, FitsBenchTwoQubitProbeWithinEvaluationBudget)
{
    // The `instantiate` bench case's 2q probe: two CX blocks on (0,1)
    // against a fixed 2-CX Nam circuit, at the per-call ε of an
    // ε = 1e-5 run with QSearch's four starts. A first-order search
    // spends hundreds of cost calls on one start; this bound holds
    // Levenberg–Marquardt to the tens it takes.
    constexpr int kEvaluationBudget = 150;
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    synth::appendEntanglerBlock(&a, 0, 1, false);
    ir::Circuit t(2);
    t.h(0);
    t.cx(0, 1);
    t.rz(0.7, 1);
    t.h(1);
    t.cx(1, 0);
    t.rz(-1.3, 0);
    const linalg::ComplexMatrix target = sim::circuitUnitary(t);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        support::Rng rng(seed);
        const synth::InstantiateResult r = synth::instantiate(
            a, target, 1e-5 / 16, 4, rng, support::Deadline::in(20));
        EXPECT_TRUE(r.success) << "seed " << seed;
        EXPECT_LE(r.evaluations, kEvaluationBudget) << "seed " << seed;
        EXPECT_LE(r.jacobians, r.evaluations);
    }
}

TEST(InstantiateDeathTest, RejectsTargetShapeMismatch)
{
    const synth::Ansatz a = synth::initialAnsatz(3);
    const linalg::ComplexMatrix small = linalg::ComplexMatrix::identity(4);
    const std::vector<double> x(9, 0.1);
    EXPECT_DEATH(synth::hsCostAndGrad(a, small, x, nullptr),
                 "target is 4x4, want 8x8");
}

TEST(InstantiateDeathTest, RejectsSlotQubitOutsideRegister)
{
    synth::Ansatz a = synth::initialAnsatz(2);
    synth::appendEntanglerBlock(&a, 0, 2, false);
    const linalg::ComplexMatrix target = linalg::ComplexMatrix::identity(4);
    const std::vector<double> x(static_cast<std::size_t>(a.numParams()), 0.1);
    EXPECT_DEATH(synth::hsCostAndGrad(a, target, x, nullptr),
                 "qubit 2 outside a 2-qubit register");
}

} // namespace
} // namespace guoq
