/**
 * @file
 * End-to-end integration tests: workload generation → transpilation →
 * optimization → validation, across optimizers and gate sets — the
 * pipelines the benchmark harnesses run, at test scale.
 */

#include <gtest/gtest.h>

#include "baselines/fixed_sequence.h"
#include "baselines/partition_resynth.h"
#include "baselines/phase_poly.h"
#include "core/guoq.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "sim/unitary_sim.h"
#include "tests/test_util.h"
#include "transpile/to_gate_set.h"
#include "workloads/standard.h"
#include "workloads/suite.h"

namespace guoq {
namespace {

TEST(Integration, GuoqBeatsOrMatchesQiskitLikeOnQuickSuite)
{
    // The Q1 comparison in miniature: on a few small benchmarks GUOQ
    // must never lose to the fixed-sequence baseline given its anytime
    // guarantee (it starts from the same circuit and only accepts
    // improvements).
    const auto quick =
        workloads::quickSuiteFor(ir::GateSetKind::IbmEagle, 4);
    for (const auto &b : quick) {
        const ir::Circuit baseline = baselines::qiskitLikeOptimize(
            b.circuit, ir::GateSetKind::IbmEagle);
        core::GuoqConfig cfg;
        cfg.epsilonTotal = 1e-5;
        cfg.timeBudgetSeconds = 1.5;
        const core::GuoqResult r =
            core::optimize(b.circuit, ir::GateSetKind::IbmEagle, cfg);
        // Not a strict guarantee per-benchmark in general, but with
        // identical rule sets GUOQ subsumes the baseline's moves.
        EXPECT_LE(r.best.twoQubitGateCount() * 1.0,
                  baseline.twoQubitGateCount() * 1.0 + 1.0)
            << b.name;
        if (b.circuit.numQubits() <= 8) {
            EXPECT_LE(sim::circuitDistance(b.circuit, r.best),
                      1e-5 + testutil::kExact)
                << b.name;
        }
    }
}

TEST(Integration, PyzxThenGuoqPipeline)
{
    // The Fig. 14 pipeline: phase-poly first (T reduction), then GUOQ
    // on its output (CX reduction) without increasing T count.
    const auto quick =
        workloads::quickSuiteFor(ir::GateSetKind::CliffordT, 3);
    for (const auto &b : quick) {
        const ir::Circuit zx = baselines::phasePolyOptimize(
            b.circuit, ir::GateSetKind::CliffordT);
        core::GuoqConfig cfg;
        cfg.epsilonTotal = 1e-5;
        cfg.timeBudgetSeconds = 1.5;
        // Anytime-safe claim (the objective never worsens): cap the
        // iterations so the sweep doesn't sleep out its full budget.
        cfg.maxIterations = 2000;
        cfg.objective = core::Objective::TThenTwoQubit;
        const core::GuoqResult r =
            core::optimize(zx, ir::GateSetKind::CliffordT, cfg);
        // 2·#T + #CX never worsens, so T cannot increase while CX
        // drops (the weighted objective enforces the Fig. 14 claim).
        EXPECT_LE(2.0 * r.best.tGateCount() +
                      r.best.twoQubitGateCount(),
                  2.0 * zx.tGateCount() + zx.twoQubitGateCount() + 1e-9)
            << b.name;
    }
}

TEST(Integration, QasmExportReimportOptimize)
{
    // Export a suite circuit to QASM, reparse, optimize, validate.
    const auto quick = workloads::quickSuiteFor(ir::GateSetKind::Nam, 1);
    ASSERT_FALSE(quick.empty());
    const qasm::ParseResult pr =
        qasm::parseSource(qasm::toQasm(quick[0].circuit));
    ASSERT_TRUE(pr.ok) << pr.error.str();
    const ir::Circuit &back = pr.circuit;
    core::GuoqConfig cfg;
    cfg.epsilonTotal = 0;
    cfg.timeBudgetSeconds = 1.0;
    cfg.maxIterations = 2000;
    const core::GuoqResult r =
        core::optimize(back, ir::GateSetKind::Nam, cfg);
    if (back.numQubits() <= 8) {
        EXPECT_LT(sim::circuitDistance(quick[0].circuit, r.best),
                  testutil::kExact);
    }
}

TEST(Integration, GuoqSubsumesPartitionResynthOnRedundantCircuit)
{
    // Fully redundant entanglers: both approaches find them; GUOQ must
    // end at least as small.
    ir::Circuit c(3);
    for (int rep = 0; rep < 3; ++rep) {
        c.cx(0, 1);
        c.cx(0, 1);
        c.cx(1, 2);
        c.cx(1, 2);
    }
    const auto pr = baselines::partitionResynth(
        c, ir::GateSetKind::Nam, core::Objective::TwoQubitCount, 1e-5,
        2.0, 1);
    core::GuoqConfig cfg;
    cfg.epsilonTotal = 1e-5;
    cfg.timeBudgetSeconds = 3.0;
    cfg.maxIterations = 5000;
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Nam, cfg);
    EXPECT_LE(r.best.twoQubitGateCount(),
              pr.circuit.twoQubitGateCount());
    EXPECT_EQ(r.best.twoQubitGateCount(), 0u);
}

TEST(Integration, FtqcObjectiveReducesTCount)
{
    // Q4 in miniature: on a Toffoli ladder, GUOQ with the T-count
    // objective must reduce T gates (t_t_to_s merges exposed by
    // commutation).
    const ir::Circuit c = transpile::toGateSet(
        workloads::barencoTof(3), ir::GateSetKind::CliffordT);
    core::GuoqConfig cfg;
    cfg.epsilonTotal = 1e-5;
    cfg.timeBudgetSeconds = 4.0;
    cfg.maxIterations = 4000;
    cfg.objective = core::Objective::TCount;
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::CliffordT, cfg);
    EXPECT_LE(r.best.tGateCount(), c.tGateCount());
    EXPECT_LE(sim::circuitDistance(c, r.best),
              1e-5 + testutil::kExact);
}

TEST(Integration, AllGateSetsEndToEnd)
{
    // One small benchmark per gate set, full pipeline, semantic check.
    for (ir::GateSetKind set : ir::allGateSets()) {
        const auto quick = workloads::quickSuiteFor(set, 1);
        ASSERT_FALSE(quick.empty()) << ir::gateSetName(set);
        const ir::Circuit &c = quick[0].circuit;
        core::GuoqConfig cfg;
        cfg.epsilonTotal = 1e-5;
        cfg.timeBudgetSeconds = 1.0;
        cfg.maxIterations = 1500;
        const core::GuoqResult r = core::optimize(c, set, cfg);
        EXPECT_LE(r.best.gateCount(), c.gateCount())
            << ir::gateSetName(set);
        if (c.numQubits() <= 8) {
            EXPECT_LE(sim::circuitDistance(c, r.best),
                      1e-5 + testutil::kExact)
                << ir::gateSetName(set);
        }
    }
}

} // namespace
} // namespace guoq
