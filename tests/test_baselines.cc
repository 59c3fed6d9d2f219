/** @file Tests for the fixed-sequence and RL-like baselines (Table 3). */

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "baselines/beam_search.h"
#include "baselines/fixed_sequence.h"
#include "baselines/passes.h"
#include "baselines/rl_like.h"
#include "sim/unitary_sim.h"
#include "tests/test_util.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"

namespace guoq {
namespace {

using Optimizer = ir::Circuit (*)(const ir::Circuit &, ir::GateSetKind);

struct BaselineCase
{
    const char *name;
    Optimizer run;
};

const BaselineCase kBaselines[] = {
    {"qiskitLike", baselines::qiskitLikeOptimize},
    {"tketLike", baselines::tketLikeOptimize},
    {"voqcLike", baselines::voqcLikeOptimize},
};

class FixedSequenceBaseline
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FixedSequenceBaseline, PreservesSemanticsAndNeverGrows)
{
    const auto [which, set_index] = GetParam();
    const BaselineCase &bc = kBaselines[which];
    const ir::GateSetKind set =
        ir::allGateSets()[static_cast<std::size_t>(set_index)];
    support::Rng rng(static_cast<std::uint64_t>(which) * 101 +
                     static_cast<std::uint64_t>(set_index));
    const ir::Circuit c = testutil::randomNativeCircuit(set, 4, 40, rng);
    const ir::Circuit out = bc.run(c, set);
    EXPECT_LE(out.size(), c.size()) << bc.name;
    EXPECT_LT(sim::circuitDistance(c, out), testutil::kExact) << bc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FixedSequenceBaseline,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 5)));

TEST(Passes, ReduceFixpointCancelsObviousPairs)
{
    ir::Circuit c(2);
    c.h(0);
    c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    EXPECT_EQ(baselines::reduceFixpoint(c, ir::GateSetKind::Nam).size(),
              0u);
}

TEST(Passes, CommuteAndReduceFindsHiddenCancellation)
{
    // Rz between two CXs on the control commutes away, exposing the
    // CX pair.
    ir::Circuit c(2);
    c.cx(0, 1);
    c.rz(0.7, 0);
    c.cx(0, 1);
    const ir::Circuit out =
        baselines::commuteAndReduce(c, ir::GateSetKind::Nam, 3);
    EXPECT_EQ(out.twoQubitGateCount(), 0u);
    EXPECT_LT(sim::circuitDistance(c, out), testutil::kExact);
}

TEST(Passes, FusionPassIsExact)
{
    support::Rng rng(5);
    const ir::Circuit c = testutil::randomNativeCircuit(
        ir::GateSetKind::Ibmq20, 3, 25, rng);
    const ir::Circuit out =
        baselines::fusionPass(c, ir::GateSetKind::Ibmq20);
    EXPECT_LE(out.size(), c.size());
    EXPECT_LT(sim::circuitDistance(c, out), testutil::kExact);
}

TEST(RlLike, PreservesSemantics)
{
    const ir::Circuit c =
        transpile::toGateSet(workloads::qft(4), ir::GateSetKind::Nam);
    baselines::RlLikeOptions opts;
    opts.timeBudgetSeconds = 1.0;
    const ir::Circuit out =
        baselines::rlLikeOptimize(c, ir::GateSetKind::Nam, opts);
    EXPECT_LT(sim::circuitDistance(c, out), testutil::kExact);
}

TEST(RlLike, ReducesRedundantCircuit)
{
    ir::Circuit c(2);
    for (int i = 0; i < 6; ++i)
        c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    baselines::RlLikeOptions opts;
    opts.timeBudgetSeconds = 1.0;
    const ir::Circuit out =
        baselines::rlLikeOptimize(c, ir::GateSetKind::Nam, opts);
    EXPECT_EQ(out.size(), 0u);
}

TEST(RlLike, NeverReturnsWorse)
{
    support::Rng rng(6);
    const ir::Circuit c = testutil::randomNativeCircuit(
        ir::GateSetKind::CliffordT, 4, 40, rng);
    baselines::RlLikeOptions opts;
    opts.timeBudgetSeconds = 0.5;
    opts.objective = core::Objective::TCount;
    const ir::Circuit out =
        baselines::rlLikeOptimize(c, ir::GateSetKind::CliffordT, opts);
    EXPECT_LE(out.tGateCount(), c.tGateCount());
}

TEST(Baselines, TofWorkloadsShrinkUnderEveryBaseline)
{
    // The barenco ladder has adjacent-CCX structure every baseline
    // should at least partially simplify after transpilation.
    const ir::Circuit c = transpile::toGateSet(
        workloads::barencoTof(4), ir::GateSetKind::CliffordT);
    for (const BaselineCase &bc : kBaselines) {
        const ir::Circuit out = bc.run(c, ir::GateSetKind::CliffordT);
        EXPECT_LE(out.size(), c.size()) << bc.name;
    }
}

// ---------------------------------------------------------------------
// Fixed-seed output pins, captured before the rule passes inside
// commuteAndReduce and Transformation::apply (every beam expansion)
// moved onto rewrite::RewriteEngine. Any change to those passes must
// keep these bit-for-bit.
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char ch : s) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ull;
    }
    return h;
}

TEST(BaselineGolden, CommuteAndReduceOutputsPinnedForEveryGateSet)
{
    const std::uint64_t want[] = {
        0x76146b6587277b28ull, // ibmq20
        0x231539764667911eull, // ibm-eagle
        0x41cb162e1506121eull, // ionq
        0xdc27bbdb0ca69cd8ull, // nam
        0xb203fa7257d6e4b2ull, // clifford+t
    };
    const auto &sets = ir::allGateSets();
    ASSERT_EQ(sets.size(), std::size(want));
    for (std::size_t i = 0; i < sets.size(); ++i) {
        support::Rng rng(300 + i);
        const ir::Circuit c =
            testutil::randomNativeCircuit(sets[i], 5, 60, rng);
        const ir::Circuit out = baselines::commuteAndReduce(c, sets[i], 4);
        EXPECT_LT(out.size(), c.size()) << ir::gateSetName(sets[i]);
        EXPECT_EQ(fnv1a(out.toString()), want[i])
            << ir::gateSetName(sets[i]) << std::hex << " got 0x"
            << fnv1a(out.toString());
    }
}

TEST(BaselineGolden, ExactBeamSearchOutputPinned)
{
    struct Pin
    {
        ir::GateSetKind set;
        std::uint64_t seed;
        std::uint64_t want;
    };
    const Pin pins[] = {
        {ir::GateSetKind::Nam, 21, 0x0967576a7dd2e11bull},
        {ir::GateSetKind::CliffordT, 22, 0xf0e47654a435ee75ull},
    };
    for (const Pin &p : pins) {
        support::Rng rng(p.seed);
        const ir::Circuit c = testutil::randomNativeCircuit(p.set, 5, 50, rng);
        baselines::BeamOptions opts;
        opts.epsilonTotal = 0;
        opts.timeBudgetSeconds = 600;
        opts.maxIterations = 25;
        opts.beamWidth = 16;
        opts.seed = p.seed;
        const baselines::BeamResult r =
            baselines::beamSearchOptimize(c, p.set, opts);
        EXPECT_EQ(r.errorBound, 0.0);
        EXPECT_LT(r.best.size(), c.size()) << ir::gateSetName(p.set);
        const std::string sig =
            r.best.toString() + "|i=" + std::to_string(r.iterations) +
            "|g=" + std::to_string(r.candidatesGenerated) +
            "|p=" + std::to_string(r.candidatesPruned);
        EXPECT_EQ(fnv1a(sig), p.want)
            << ir::gateSetName(p.set) << std::hex << " got 0x"
            << fnv1a(sig);
    }
}

// Step-capped rl-like runs: the exploration head's 1q fusion and the
// greedy head's lookahead both run on the rewrite engine, so a change
// to either must keep these outputs bit-for-bit.
TEST(BaselineGolden, RlLikeOutputPinned)
{
    struct Pin
    {
        ir::GateSetKind set;
        core::Objective objective;
        std::uint64_t seed;
        std::uint64_t want;
    };
    const Pin pins[] = {
        {ir::GateSetKind::Nam, core::Objective::GateCount, 31,
         0x247cf7cca639f5c9ull},
        {ir::GateSetKind::Nam, core::Objective::TwoQubitCount, 32,
         0xbbc0f72391d0360eull},
        {ir::GateSetKind::IbmEagle, core::Objective::GateCount, 33,
         0x623f36d2a6fe9202ull},
        {ir::GateSetKind::IonQ, core::Objective::Fidelity, 34,
         0x244b24e3b91cca96ull},
    };
    for (const Pin &p : pins) {
        support::Rng rng(p.seed);
        const ir::Circuit c = testutil::randomNativeCircuit(p.set, 5, 60, rng);
        baselines::RlLikeOptions opts;
        opts.objective = p.objective;
        opts.timeBudgetSeconds = 600;
        opts.maxSteps = 300;
        opts.explorationRate = 0.5;
        opts.seed = p.seed;
        const ir::Circuit out = baselines::rlLikeOptimize(c, p.set, opts);
        EXPECT_LT(out.size(), c.size()) << ir::gateSetName(p.set);
        EXPECT_EQ(fnv1a(out.toString()), p.want)
            << ir::gateSetName(p.set) << std::hex << " got 0x"
            << fnv1a(out.toString());
    }
}

} // namespace
} // namespace guoq
