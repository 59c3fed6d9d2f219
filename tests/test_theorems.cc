/**
 * @file
 * Property tests for the paper's theorems: Thm. 4.2 (additive error of
 * composed transformations, including overlapping subcircuits) and
 * Thm. 5.3 (GUOQ's output respects ε_f) — the core soundness claims
 * of the framework.
 */

#include <gtest/gtest.h>

#include "core/guoq.h"
#include "core/transformation.h"
#include "dag/subcircuit.h"
#include "sim/unitary_sim.h"
#include "synth/resynth.h"
#include "tests/test_util.h"

namespace guoq {
namespace {

class Theorem42 : public ::testing::TestWithParam<int>
{
};

TEST_P(Theorem42, ComposedErrorIsAtMostSumOfStepErrors)
{
    // Apply a sequence of approximate resynthesis transformations to
    // random (possibly overlapping) subcircuits; the end-to-end
    // distance must not exceed the sum of per-step measured distances.
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 9);
    const ir::Circuit original = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 4, 30, rng);

    ir::Circuit cur = original;
    double sum_eps = 0;
    int applied = 0;
    for (int step = 0; step < 12 && applied < 3; ++step) {
        const dag::SubcircuitSelection sel =
            dag::randomConvex(cur, rng, 3, 10);
        if (sel.size() < 2)
            continue;
        const ir::Circuit sub = dag::extract(cur, sel);
        synth::ResynthOptions opts;
        opts.targetSet = ir::GateSetKind::Nam;
        opts.epsilon = 1e-4;
        opts.deadline = support::Deadline::in(3);
        const synth::ResynthResult r =
            synth::resynthesize(sub, opts, rng);
        if (!r.success)
            continue;
        cur = dag::splice(cur, sel, r.circuit);
        sum_eps += r.distance;
        ++applied;
    }
    const double total = sim::circuitDistance(original, cur);
    EXPECT_LE(total, sum_eps + testutil::kExact)
        << "applied=" << applied;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem42, ::testing::Range(0, 8));

TEST(Theorem42, ExactTransformationsAccumulateNothing)
{
    // ε = 0 steps (rule passes) keep the distance at zero no matter
    // how many are composed — the base case of the induction.
    support::Rng rng(100);
    const ir::Circuit original = testutil::randomNativeCircuit(
        ir::GateSetKind::CliffordT, 4, 40, rng);
    ir::Circuit cur = original;
    const auto &rules = rewrite::rulesFor(ir::GateSetKind::CliffordT);
    for (int step = 0; step < 50; ++step) {
        const core::Transformation tau =
            core::Transformation::fromRule(&rules[rng.index(rules.size())]);
        if (auto out = tau.apply(cur, rng)) {
            EXPECT_EQ(out->epsilonSpent, 0.0);
            cur = std::move(out->circuit);
        }
    }
    EXPECT_LT(sim::circuitDistance(original, cur), testutil::kExact);
}

TEST(Theorem53, ErrorBoundNeverExceedsBudgetAcrossSeeds)
{
    support::Rng rng(200);
    const ir::Circuit c = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 4, 30, rng);
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        core::GuoqConfig cfg;
        cfg.epsilonTotal = 1e-5;
        cfg.timeBudgetSeconds = 1.0;
        // The bound holds for any prefix of the search; the cap keeps
        // the sweep fast and machine-independent.
        cfg.maxIterations = 1500;
        cfg.seed = seed;
        const core::GuoqResult r =
            core::optimize(c, ir::GateSetKind::Nam, cfg);
        EXPECT_LE(r.errorBound, cfg.epsilonTotal);
        EXPECT_LE(sim::circuitDistance(c, r.best),
                  cfg.epsilonTotal + testutil::kExact);
    }
}

TEST(Theorem53, ZeroBudgetMeansExactEquality)
{
    support::Rng rng(300);
    const ir::Circuit c = testutil::randomNativeCircuit(
        ir::GateSetKind::Ibmq20, 4, 35, rng);
    core::GuoqConfig cfg;
    cfg.epsilonTotal = 0;
    cfg.timeBudgetSeconds = 1.0;
    cfg.maxIterations = 2000;
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Ibmq20, cfg);
    EXPECT_EQ(r.errorBound, 0.0);
    EXPECT_LT(sim::circuitDistance(c, r.best), testutil::kExact);
}

} // namespace
} // namespace guoq
