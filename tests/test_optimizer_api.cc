/**
 * @file
 * Tests for the polymorphic optimizer API (core/optimizer.h): the
 * global registry round-trip, request/param validation error paths,
 * the threads=1 guoq/optimize() identity, observer monotonicity, and
 * cooperative cancellation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/guoq.h"
#include "core/optimizer.h"
#include "support/timer.h"
#include "tests/test_util.h"

namespace guoq {
namespace {

using core::OptimizeRequest;
using core::OptimizerRegistry;

/** A 2-qubit circuit with obvious exact slack (adjacent inverses). */
ir::Circuit
slackCircuit()
{
    ir::Circuit c(2);
    for (int i = 0; i < 4; ++i)
        c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    c.x(1);
    c.x(1);
    c.h(1);
    c.cx(1, 0);
    return c;
}

OptimizeRequest
smallRequest()
{
    OptimizeRequest req;
    req.set = ir::GateSetKind::Nam;
    req.objective = core::Objective::GateCount;
    req.timeBudgetSeconds = 5.0;
    req.maxIterations = 150;
    req.seed = 11;
    return req;
}

TEST(OptimizerRegistry, ListsTheBuiltinAlgorithms)
{
    const std::vector<std::string> names =
        OptimizerRegistry::global().names();
    const char *expected[] = {
        "guoq",           "guoq-rewrite",      "guoq-resynth",
        "beam",           "qiskit-like",       "tket-like",
        "voqc-like",      "partition-resynth", "phase-poly",
        "rl-like",
    };
    EXPECT_GE(names.size(), 10u);
    for (const char *name : expected)
        EXPECT_NE(std::find(names.begin(), names.end(), name),
                  names.end())
            << name;
    for (const core::Optimizer *opt : OptimizerRegistry::global().all()) {
        EXPECT_FALSE(opt->info().name.empty());
        EXPECT_FALSE(opt->info().summary.empty());
    }
}

TEST(OptimizerRegistry, EveryAlgorithmRunsAndNeverWorsens)
{
    const ir::Circuit input = slackCircuit();
    for (const core::Optimizer *opt : OptimizerRegistry::global().all()) {
        OptimizeRequest req = smallRequest();
        // The resynthesis-centric algorithms need an ε budget (a
        // resynth-only GUOQ without one is a fatal misconfiguration),
        // and short synthesis calls keep the test fast.
        req.epsilonTotal = 1e-5;
        req.params["resynth-call-seconds"] = "0.1";
        const std::string err =
            core::checkParams(opt->info(), req.params);
        if (!err.empty())
            req.params.clear(); // algorithms without guoq's params
        req.timeBudgetSeconds = 2.0;

        const core::CostFunction cost(req.objective, req.set);
        const core::OptimizeReport report = opt->run(input, req);
        EXPECT_EQ(report.algorithm, opt->info().name);
        EXPECT_LE(report.cost, cost(input)) << opt->info().name;
        EXPECT_DOUBLE_EQ(report.cost, cost(report.circuit))
            << opt->info().name;
        EXPECT_LE(report.errorBound, req.epsilonTotal + 1e-12)
            << opt->info().name;
        EXPECT_GE(report.stats.seconds, 0.0);
    }
}

TEST(OptimizerRegistry, UnknownNameAndSuggestions)
{
    const OptimizerRegistry &reg = OptimizerRegistry::global();
    EXPECT_EQ(reg.find("qiskit"), nullptr);
    EXPECT_EQ(reg.find(""), nullptr);
    EXPECT_EQ(core::closestName("qiskit", reg.names()), "qiskit-like");
    EXPECT_EQ(core::closestName("gouq", reg.names()), "guoq");
    EXPECT_EQ(core::closestName("zzzzzz", reg.names()), "");
}

TEST(OptimizerParams, UnknownKeyFailsWithDidYouMean)
{
    const core::Optimizer *beam = OptimizerRegistry::global().find("beam");
    ASSERT_NE(beam, nullptr);
    core::ParamMap params{{"beam-widht", "32"}};
    const std::string err = core::checkParams(beam->info(), params);
    EXPECT_NE(err.find("beam-widht"), std::string::npos);
    EXPECT_NE(err.find("did you mean 'beam-width'"), std::string::npos);
}

TEST(OptimizerParams, BadValueAndNoParamAlgorithms)
{
    const core::Optimizer *beam = OptimizerRegistry::global().find("beam");
    ASSERT_NE(beam, nullptr);
    EXPECT_NE(core::checkParams(beam->info(), {{"beam-width", "abc"}}),
              "");
    // Out-of-range integers must fail validation, not silently clamp
    // (strtol ERANGE) or truncate (long -> int narrowing).
    EXPECT_NE(core::checkParams(
                  beam->info(),
                  {{"beam-width", "99999999999999999999999"}}),
              "");
    EXPECT_NE(core::checkParams(beam->info(),
                                {{"beam-width", "5000000000"}}),
              "");
    EXPECT_EQ(core::checkParams(beam->info(), {{"beam-width", "32"}}),
              "");

    const core::Optimizer *qiskit =
        OptimizerRegistry::global().find("qiskit-like");
    ASSERT_NE(qiskit, nullptr);
    const std::string err =
        core::checkParams(qiskit->info(), {{"anything", "1"}});
    EXPECT_NE(err.find("takes no parameters"), std::string::npos);

    const core::Optimizer *guoq = OptimizerRegistry::global().find("guoq");
    ASSERT_NE(guoq, nullptr);
    // Bool params parse strictly: "maybe" is rejected, "true" is not.
    EXPECT_NE(core::checkParams(guoq->info(), {{"trace", "maybe"}}), "");
    EXPECT_EQ(core::checkParams(guoq->info(),
                                {{"trace", "true"}, {"temperature", "5.5"}}),
              "");
    EXPECT_NE(
        core::checkParams(guoq->info(), {{"synth-workers", "maybe"}}),
        "");
    EXPECT_EQ(
        core::checkParams(guoq->info(), {{"synth-workers", "2"},
                                         {"temperature", "5.5"}}),
        "");
    // The removed async-resynth alias is an unknown parameter now, and
    // the diagnostic points at its replacement.
    const std::string retired =
        core::checkParams(guoq->info(), {{"async-resynth", "true"}});
    EXPECT_NE(retired.find("unknown parameter 'async-resynth'"),
              std::string::npos)
        << retired;
    EXPECT_NE(retired.find("did you mean 'synth-workers'?"),
              std::string::npos)
        << retired;
}

TEST(OptimizerParams, CheckRequestEnforcesAlgorithmPreconditions)
{
    const OptimizerRegistry &reg = OptimizerRegistry::global();

    // guoq-resynth without an eps budget is the fatal() path inside
    // optimize(); checkRequest must surface it as a plain diagnostic
    // so drivers can reject the request up front.
    const core::Optimizer *resynth = reg.find("guoq-resynth");
    ASSERT_NE(resynth, nullptr);
    OptimizeRequest req = smallRequest();
    EXPECT_NE(resynth->checkRequest(req), "");
    req.epsilonTotal = 1e-5;
    EXPECT_EQ(resynth->checkRequest(req), "");

    // A kind-valid but out-of-range beam-width must fail too, not be
    // silently clamped by the adapter.
    const core::Optimizer *beam = reg.find("beam");
    ASSERT_NE(beam, nullptr);
    OptimizeRequest zero = smallRequest();
    zero.params["beam-width"] = "0";
    EXPECT_NE(beam->checkRequest(zero), "");
    zero.params["beam-width"] = "16";
    EXPECT_EQ(beam->checkRequest(zero), "");
}

TEST(OptimizerGuoq, ThreadsOneIsBitForBitLegacyOptimize)
{
    support::Rng rng(3);
    const ir::Circuit input = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 4, 40, rng);

    OptimizeRequest req = smallRequest();
    req.objective = core::Objective::TwoQubitCount;
    req.maxIterations = 300;
    req.threads = 1;
    const core::Optimizer *guoq = OptimizerRegistry::global().find("guoq");
    ASSERT_NE(guoq, nullptr);
    const core::OptimizeReport report = guoq->run(input, req);

    core::GuoqConfig legacy;
    legacy.objective = req.objective;
    legacy.timeBudgetSeconds = req.timeBudgetSeconds;
    legacy.maxIterations = req.maxIterations;
    legacy.seed = req.seed;
    const core::GuoqResult r =
        core::optimize(input, req.set, legacy);

    EXPECT_EQ(report.circuit.toString(), r.best.toString());
    EXPECT_EQ(report.errorBound, r.errorBound);
    EXPECT_EQ(report.stats.iterations, r.stats.iterations);
    EXPECT_EQ(report.stats.accepted, r.stats.accepted);
    EXPECT_EQ(report.stats.rejected, r.stats.rejected);
}

TEST(OptimizerObserver, EventsAreStrictlyMonotone)
{
    support::Rng rng(9);
    const ir::Circuit input = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 4, 50, rng);
    const core::Optimizer *guoq = OptimizerRegistry::global().find("guoq");
    ASSERT_NE(guoq, nullptr);

    for (int threads : {1, 3}) {
        OptimizeRequest req = smallRequest();
        req.objective = core::Objective::TwoQubitCount;
        req.maxIterations = 400;
        req.threads = threads;
        std::vector<double> costs;
        req.hooks.onBest = [&costs](const core::ProgressEvent &ev) {
            costs.push_back(ev.cost);
        };
        const core::OptimizeReport report = guoq->run(input, req);
        const core::CostFunction cost(req.objective, req.set);
        ASSERT_FALSE(costs.empty()) << threads;
        for (std::size_t i = 1; i < costs.size(); ++i)
            EXPECT_LT(costs[i], costs[i - 1]) << threads;
        EXPECT_LT(costs.front(), cost(input)) << threads;
        // The run's final best is the last (lowest) reported cost.
        EXPECT_LE(report.cost, costs.back()) << threads;
    }
}

TEST(OptimizerObserver, PresetCancelTokenStopsImmediately)
{
    const ir::Circuit input = slackCircuit();
    const core::Optimizer *guoq = OptimizerRegistry::global().find("guoq");
    ASSERT_NE(guoq, nullptr);

    OptimizeRequest req = smallRequest();
    req.maxIterations = -1;
    req.timeBudgetSeconds = 60.0;
    req.hooks.cancel = core::makeCancelToken();
    req.hooks.cancel->store(true);
    support::Timer timer;
    const core::OptimizeReport report = guoq->run(input, req);
    EXPECT_LT(timer.seconds(), 30.0);
    EXPECT_EQ(report.stats.iterations, 0);
    EXPECT_EQ(report.circuit.toString(), input.toString());
}

TEST(OptimizerObserver, CallbackCancellationEndsTheRunEarly)
{
    support::Rng rng(5);
    const ir::Circuit input = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 4, 40, rng);
    const core::Optimizer *guoq = OptimizerRegistry::global().find("guoq");
    ASSERT_NE(guoq, nullptr);

    for (int threads : {1, 4}) {
        OptimizeRequest req = smallRequest();
        req.objective = core::Objective::TwoQubitCount;
        req.maxIterations = -1; // unlimited: only cancellation stops it
        req.timeBudgetSeconds = 60.0;
        req.threads = threads;
        req.params["sync-interval"] = "0.05";
        req.hooks.cancel = core::makeCancelToken();
        core::CancelToken token = req.hooks.cancel;
        req.hooks.onBest = [token](const core::ProgressEvent &) {
            token->store(true); // cancel on the first improvement
        };
        support::Timer timer;
        const core::OptimizeReport report = guoq->run(input, req);
        // Well under the 60 s budget: cancellation, not the deadline,
        // ended the run (generous bound for slow CI machines).
        EXPECT_LT(timer.seconds(), 30.0) << threads;
        EXPECT_GT(report.stats.iterations, 0) << threads;
        const core::CostFunction cost(req.objective, req.set);
        EXPECT_LE(report.cost, cost(input)) << threads;
    }
}

TEST(OptimizerBaselines, CancelledBaselineReturnsTheInput)
{
    const ir::Circuit input = slackCircuit();
    const core::Optimizer *qiskit =
        OptimizerRegistry::global().find("qiskit-like");
    ASSERT_NE(qiskit, nullptr);

    OptimizeRequest req = smallRequest();
    req.hooks.cancel = core::makeCancelToken();
    req.hooks.cancel->store(true);
    const core::OptimizeReport report = qiskit->run(input, req);
    EXPECT_EQ(report.circuit.toString(), input.toString());

    // And uncancelled, the same request reports a single final
    // improvement event.
    OptimizeRequest live = smallRequest();
    std::vector<double> costs;
    live.hooks.onBest = [&costs](const core::ProgressEvent &ev) {
        costs.push_back(ev.cost);
    };
    const core::OptimizeReport improved = qiskit->run(input, live);
    const core::CostFunction cost(live.objective, live.set);
    EXPECT_LT(improved.cost, cost(input));
    ASSERT_EQ(costs.size(), 1u);
    EXPECT_DOUBLE_EQ(costs[0], improved.cost);
}

} // namespace
} // namespace guoq
