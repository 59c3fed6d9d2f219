/** @file Tests for the equivalence-verification layer (verify/). */

#include <gtest/gtest.h>

#include <cmath>

#include "ir/circuit.h"
#include "sim/unitary_sim.h"
#include "support/rng.h"
#include "tests/test_util.h"
#include "verify/checker.h"

namespace guoq {
namespace {

using verify::CheckerRegistry;
using verify::EquivalenceChecker;
using verify::Verdict;
using verify::VerifyReport;
using verify::VerifyRequest;

/** A GHZ-style ladder with extra cancelling pairs so the pair under
 *  test has gates to disagree about. */
ir::Circuit
ladder(int n)
{
    ir::Circuit c(n);
    c.h(0);
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    c.h(n - 1);
    c.h(n - 1);
    c.cx(0, 1);
    c.cx(0, 1);
    return c;
}

// --- registry ---------------------------------------------------------

TEST(VerifyRegistry, RoundTrip)
{
    const CheckerRegistry &r = CheckerRegistry::global();
    const std::vector<std::string> names = r.names();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "dense");
    EXPECT_EQ(names[1], "sampling");
    EXPECT_EQ(names[2], "certificate");
    EXPECT_EQ(names[3], "auto");
    for (const std::string &name : names) {
        const EquivalenceChecker *c = r.find(name);
        ASSERT_NE(c, nullptr);
        EXPECT_EQ(c->info().name, name);
        EXPECT_FALSE(c->info().summary.empty());
    }
    EXPECT_EQ(r.find("exhaustive"), nullptr);
    EXPECT_EQ(r.all().size(), 4u);
}

TEST(VerifyRegistry, CheckRequestRejectsBadRequests)
{
    const EquivalenceChecker *c = CheckerRegistry::global().find("auto");
    ASSERT_NE(c, nullptr);
    const ir::Circuit a(3), b(4);
    EXPECT_NE(c->checkRequest(a, b, VerifyRequest{}), "");

    VerifyRequest req;
    req.shots = 0;
    EXPECT_NE(c->checkRequest(a, a, req), "");
    req = VerifyRequest{};
    req.confidence = 1.0;
    EXPECT_NE(c->checkRequest(a, a, req), "");
    req = VerifyRequest{};
    req.epsilon = -1;
    EXPECT_NE(c->checkRequest(a, a, req), "");
    EXPECT_EQ(c->checkRequest(a, a, VerifyRequest{}), "");
}

TEST(VerifyRegistry, DenseRefusesPastTheUnitaryCap)
{
    const EquivalenceChecker *dense =
        CheckerRegistry::global().find("dense");
    const ir::Circuit big(sim::kMaxUnitaryQubits + 1);
    EXPECT_NE(dense->checkRequest(big, big, VerifyRequest{}), "");
    const EquivalenceChecker *sampling =
        CheckerRegistry::global().find("sampling");
    EXPECT_EQ(sampling->checkRequest(big, big, VerifyRequest{}), "");
    const ir::Circuit huge(verify::kMaxSamplingQubits + 1);
    EXPECT_NE(sampling->checkRequest(huge, huge, VerifyRequest{}), "");
}

// --- dense backend ----------------------------------------------------

TEST(VerifyDense, BitForBitTheLegacyDistance)
{
    support::Rng rng(21);
    const EquivalenceChecker *dense =
        CheckerRegistry::global().find("dense");
    for (int trial = 0; trial < 5; ++trial) {
        const ir::Circuit a = testutil::randomNativeCircuit(
            ir::GateSetKind::Nam, 4, 20, rng);
        const ir::Circuit b = testutil::randomNativeCircuit(
            ir::GateSetKind::Nam, 4, 20, rng);
        const VerifyReport r = dense->run(a, b, VerifyRequest{});
        // The dense backend is the legacy oracle behind the checker
        // interface: identical doubles, not merely close ones.
        EXPECT_EQ(r.distanceEstimate, sim::circuitDistance(a, b));
        EXPECT_EQ(r.method, "dense");
        EXPECT_EQ(r.bound, 0);
        EXPECT_EQ(r.shots, 0);
        EXPECT_EQ(r.confidence, 1.0);
    }
}

TEST(VerifyDense, VerdictAgainstBudget)
{
    const EquivalenceChecker *dense =
        CheckerRegistry::global().find("dense");
    ir::Circuit a(2);
    a.cx(0, 1);
    VerifyRequest req;
    EXPECT_EQ(dense->run(a, a, req).verdict, Verdict::Equivalent);
    EXPECT_EQ(dense->run(a, ir::Circuit(2), req).verdict,
              Verdict::Inequivalent);
    req.epsilon = 2.0; // every distance fits a budget past the metric's max
    EXPECT_EQ(dense->run(a, ir::Circuit(2), req).verdict,
              Verdict::Equivalent);
}

// --- sampling backend -------------------------------------------------

TEST(VerifySampling, AgreesWithDenseWithinTheBoundOver50Trials)
{
    support::Rng rng(33);
    const EquivalenceChecker *dense =
        CheckerRegistry::global().find("dense");
    const EquivalenceChecker *sampling =
        CheckerRegistry::global().find("sampling");

    // A nontrivial 8-qubit pair at a known (dense) distance: the
    // original vs itself with a small extra rotation.
    const ir::Circuit a = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 8, 40, rng);
    ir::Circuit b = a;
    b.rz(0.2, 3);
    const double exact =
        dense->run(a, b, VerifyRequest{}).distanceEstimate;

    VerifyRequest req;
    req.shots = 96;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        req.seed = seed;
        const VerifyReport r = sampling->run(a, b, req);
        EXPECT_EQ(r.method, "sampling");
        EXPECT_EQ(r.shots, 96);
        EXPECT_TRUE(std::isfinite(r.bound));
        EXPECT_GT(r.bound, 0);
        // The exact distance must fall inside the reported interval.
        // Hoeffding is conservative, so all 50 draws at 99% per-trial
        // confidence pass with margin in practice.
        EXPECT_LE(std::abs(exact - r.distanceEstimate), r.bound)
            << "seed " << seed;
    }
}

TEST(VerifySampling, RejectsAFlippedCxAtHighConfidence)
{
    ir::Circuit a(4);
    a.h(0);
    a.cx(0, 1);
    a.cx(1, 2);
    a.cx(2, 3);
    ir::Circuit b(4);
    b.h(0);
    b.cx(0, 1);
    b.cx(2, 1); // flipped direction
    b.cx(2, 3);

    const EquivalenceChecker *dense =
        CheckerRegistry::global().find("dense");
    const double exact =
        dense->run(a, b, VerifyRequest{}).distanceEstimate;
    ASSERT_GT(exact, 0.5); // genuinely inequivalent pair

    VerifyRequest req;
    req.shots = 512;
    req.confidence = 0.999;
    const EquivalenceChecker *sampling =
        CheckerRegistry::global().find("sampling");
    const VerifyReport r = sampling->run(a, b, req);
    EXPECT_EQ(r.verdict, Verdict::Inequivalent);
    EXPECT_GT(r.distanceEstimate - r.bound, 0);
}

TEST(VerifySampling, FixedSeedIsDeterministicAcrossThreadCounts)
{
    support::Rng rng(44);
    const ir::Circuit a = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 6, 30, rng);
    ir::Circuit b = a;
    b.rz(0.1, 2);

    const EquivalenceChecker *sampling =
        CheckerRegistry::global().find("sampling");
    VerifyRequest req;
    req.shots = 101; // not a multiple of any worker count
    req.seed = 7;
    req.threads = 1;
    const VerifyReport serial = sampling->run(a, b, req);
    const VerifyReport repeat = sampling->run(a, b, req);
    EXPECT_EQ(serial.distanceEstimate, repeat.distanceEstimate);
    EXPECT_EQ(serial.bound, repeat.bound);
    for (const int threads : {2, 3, 8}) {
        req.threads = threads;
        const VerifyReport parallel = sampling->run(a, b, req);
        // Pre-drawn per-shot seeds + pairwise accumulation: the split
        // across workers cannot change a single bit of the estimate.
        EXPECT_EQ(serial.distanceEstimate, parallel.distanceEstimate)
            << threads << " threads";
        EXPECT_EQ(serial.bound, parallel.bound);
    }
    req.threads = 1;
    req.seed = 8;
    const VerifyReport other = sampling->run(a, b, req);
    EXPECT_NE(serial.distanceEstimate, other.distanceEstimate);
}

TEST(VerifySampling, MoreShotsTightenTheBound)
{
    const ir::Circuit a = ladder(5);
    const EquivalenceChecker *sampling =
        CheckerRegistry::global().find("sampling");
    VerifyRequest req;
    req.shots = 32;
    const double loose = sampling->run(a, a, req).bound;
    req.shots = 512;
    const double tight = sampling->run(a, a, req).bound;
    EXPECT_LT(tight, loose);
}

// --- the auto policy and the >10-qubit scenario -----------------------

TEST(VerifyAuto, PicksDenseSmallSamplingLarge)
{
    const EquivalenceChecker *autoc =
        CheckerRegistry::global().find("auto");
    const ir::Circuit small = ladder(4);
    EXPECT_EQ(autoc->run(small, small, VerifyRequest{}).method, "dense");

    const ir::Circuit large = ladder(verify::kDenseAutoMaxQubits + 1);
    VerifyRequest req;
    req.shots = 16;
    EXPECT_EQ(autoc->run(large, large, req).method, "sampling");
}

TEST(VerifyAuto, TwelveQubitSmokeRun)
{
    // The scenario the subsystem exists for: a width the dense oracle
    // was never allowed to touch verifies end to end.
    const ir::Circuit a = ladder(12);
    ir::Circuit b(12);
    b.h(0);
    for (int q = 0; q + 1 < 12; ++q)
        b.cx(q, q + 1);

    VerifyRequest req;
    req.shots = 64;
    req.threads = 2;
    const VerifyReport r = verify::verifyEquivalence(a, b, req);
    EXPECT_EQ(r.method, "sampling");
    EXPECT_EQ(r.verdict, Verdict::Equivalent);
    EXPECT_TRUE(std::isfinite(r.bound));
    EXPECT_GT(r.bound, 0);
    EXPECT_LT(r.distanceEstimate, 0.2); // equal circuits, tiny estimate
    EXPECT_GE(r.wallSeconds, 0);
}

TEST(VerifyAuto, VerifyEquivalenceDispatchesByName)
{
    const ir::Circuit a = ladder(3);
    VerifyRequest req;
    req.method = "dense";
    EXPECT_EQ(verify::verifyEquivalence(a, a, req).method, "dense");
    req.method = "sampling";
    req.shots = 16;
    EXPECT_EQ(verify::verifyEquivalence(a, a, req).method, "sampling");
}

// --- verdict helper ---------------------------------------------------

TEST(VerifyVerdict, IntervalAgainstBudget)
{
    VerifyRequest req;
    req.epsilon = 0.1;
    // Interval straddles the budget: not rejectable.
    EXPECT_EQ(verify::verdictFor(0.15, 0.1, req), Verdict::Equivalent);
    // Entire interval above the budget: rejected.
    EXPECT_EQ(verify::verdictFor(0.5, 0.1, req), Verdict::Inequivalent);
    // Tolerance absorbs a breach at the noise floor.
    req.tolerance = 1e-6;
    EXPECT_EQ(verify::verdictFor(0.1 + 5e-7, 0, req),
              Verdict::Equivalent);
    EXPECT_STREQ(verify::verdictName(Verdict::Equivalent), "equivalent");
    EXPECT_STREQ(verify::verdictName(Verdict::Inequivalent),
                 "inequivalent");
}

} // namespace
} // namespace guoq
