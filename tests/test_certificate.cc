/**
 * @file
 * The `certificate` checker (verify/certificate.cc) and the derivation
 * GUOQ records for it (ir/derivation.h):
 *
 *  - recorded runs certify, with a distance no smaller than the true
 *    one, for synchronous and asynchronous resynthesis alike;
 *  - recording never changes a fixed-seed run;
 *  - forged derivations are rejected: a nudged replacement angle, a
 *    dropped step, an edited output, a non-convex block and a
 *    misordered pair of blocks (the shared-wire rule-pass defect,
 *    rebuilt by hand);
 *  - serve verifies through the certificate at any width, and falls
 *    back to the width-based check for portfolio (threads > 1) runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/guoq.h"
#include "core/optimizer.h"
#include "ir/derivation.h"
#include "linalg/unitary.h"
#include "qasm/printer.h"
#include "serve/server.h"
#include "sim/unitary_sim.h"
#include "transpile/to_gate_set.h"
#include "verify/checker.h"
#include "workloads/standard.h"
#include "workloads/variational.h"

namespace guoq {
namespace {

constexpr double kEps = 1e-5;

/** The whole-circuit distance, without hsDistance's ~1e-8 floor. */
double
preciseDistance(const ir::Circuit &a, const ir::Circuit &b)
{
    const linalg::ComplexMatrix u = sim::circuitUnitary(a);
    const linalg::ComplexMatrix v = sim::circuitUnitary(b);
    return linalg::phaseAlignedDistance(u.data(), v.data(), u.rows());
}

verify::VerifyRequest
budget()
{
    verify::VerifyRequest req;
    req.epsilon = kEps;
    req.tolerance = 1e-6;
    return req;
}

core::GuoqConfig
recordingConfig(std::uint64_t seed)
{
    core::GuoqConfig cfg;
    cfg.epsilonTotal = kEps;
    cfg.timeBudgetSeconds = 1e6;
    cfg.maxIterations = 150;
    cfg.maxSubcircuitQubits = 2;
    cfg.resynthProbability = 0.1;
    cfg.seed = seed;
    cfg.recordDerivation = true;
    return cfg;
}

std::vector<ir::Circuit>
panel()
{
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    return {transpile::toGateSet(workloads::qft(4), set),
            transpile::toGateSet(workloads::barencoTof(3), set),
            transpile::toGateSet(workloads::randomCircuit(5, 60, 7), set)};
}

/** A recorded run whose best step has a block with an angle. */
struct Recorded
{
    ir::Circuit input;
    core::GuoqResult run;
};

Recorded
recordedRun()
{
    Recorded r;
    r.input = transpile::toGateSet(workloads::randomCircuit(4, 50, 3),
                                   ir::GateSetKind::Nam);
    r.run = core::optimize(r.input, ir::GateSetKind::Nam,
                           recordingConfig(2));
    return r;
}

/** Post-step position of replacement gate @p j of block @p b. */
std::size_t
postIndex(const ir::DerivationStep &st, std::size_t b, std::size_t j)
{
    std::size_t at = 0;
    for (const ir::DerivationRun &r : st.order) {
        if (r.block == static_cast<std::int32_t>(b) && j >= r.first &&
            j < r.first + r.count)
            return at + (j - r.first);
        at += r.count;
    }
    ADD_FAILURE() << "replacement gate not in the order";
    return 0;
}

// --- recorded runs ---------------------------------------------------

TEST(Certificate, RecordedRunsCertifyWithAnUpperBound)
{
    std::uint64_t seed = 1;
    for (const ir::Circuit &c : panel()) {
        const core::GuoqResult r =
            core::optimize(c, ir::GateSetKind::Nam, recordingConfig(seed++));
        ASSERT_TRUE(r.derivation.recorded());
        std::string why;
        const verify::VerifyReport rep =
            verify::certify(c, r.best, r.derivation, budget(), &why);
        EXPECT_EQ(why, "");
        EXPECT_EQ(rep.method, "certificate");
        EXPECT_EQ(rep.verdict, verify::Verdict::Equivalent);
        EXPECT_EQ(rep.bound, 0);
        EXPECT_EQ(rep.confidence, 1);
        EXPECT_EQ(rep.shots, 0);
        EXPECT_GE(rep.distanceEstimate, preciseDistance(c, r.best) - 1e-9);
    }
}

TEST(Certificate, RecordingNeverChangesTheRun)
{
    for (core::Objective obj :
         {core::Objective::TwoQubitCount, core::Objective::Fidelity}) {
        for (const ir::Circuit &c : panel()) {
            core::GuoqConfig cfg = recordingConfig(5);
            cfg.objective = obj;
            cfg.recordTrace = true;
            const core::GuoqResult on =
                core::optimize(c, ir::GateSetKind::Nam, cfg);
            cfg.recordDerivation = false;
            const core::GuoqResult off =
                core::optimize(c, ir::GateSetKind::Nam, cfg);
            EXPECT_FALSE(off.derivation.recorded());
            EXPECT_EQ(on.best.gates(), off.best.gates());
            EXPECT_EQ(on.errorBound, off.errorBound);
            EXPECT_EQ(on.stats.accepted, off.stats.accepted);
            EXPECT_EQ(on.stats.resynthAccepted, off.stats.resynthAccepted);
            EXPECT_EQ(on.trace.size(), off.trace.size());
            EXPECT_EQ(verify::certify(c, on.best, on.derivation, budget())
                          .verdict,
                      verify::Verdict::Equivalent);
        }
    }
}

TEST(Certificate, AsyncResynthesisRunsCertify)
{
    const core::Optimizer *guoq =
        core::OptimizerRegistry::global().find("guoq");
    ASSERT_NE(guoq, nullptr);
    std::vector<ir::Circuit> circuits = panel();
    for (int layers : {1, 2})
        circuits.push_back(transpile::toGateSet(
            workloads::qaoaMaxCut(6, layers, 1000), ir::GateSetKind::Nam));
    for (const ir::Circuit &c : circuits) {
        core::OptimizeRequest req;
        req.epsilonTotal = kEps;
        req.timeBudgetSeconds = 1e6;
        req.maxIterations = 300;
        req.seed = 9;
        req.recordDerivation = true;
        req.params = {{"synth-workers", "2"},
                      {"max-subcircuit-qubits", "2"},
                      {"resynth-prob", "0.2"}};
        const core::OptimizeReport rep = guoq->run(c, req);
        ASSERT_TRUE(rep.derivation.recorded());
        std::string why;
        const verify::VerifyReport v =
            verify::certify(c, rep.circuit, rep.derivation, budget(), &why);
        EXPECT_EQ(why, "");
        EXPECT_EQ(v.verdict, verify::Verdict::Equivalent);
        EXPECT_GE(v.distanceEstimate, preciseDistance(c, rep.circuit) - 1e-9);
    }
}

// --- forged derivations ----------------------------------------------

TEST(CertificateRejects, NudgedReplacementAngle)
{
    Recorded r = recordedRun();
    ir::Derivation d = r.run.derivation;
    ir::Circuit out = r.run.best;
    ir::DerivationStep &st = d.steps[d.best];
    bool nudged = false;
    for (std::size_t b = 0; b < st.blocks.size() && !nudged; ++b)
        for (std::size_t j = 0; j < st.blocks[b].replacement.size(); ++j) {
            ir::Gate &g = st.blocks[b].replacement[j];
            if (g.params.empty())
                continue;
            // The output carries the nudge too, so only the block's
            // own local distance can give it away.
            g.params[0] += 0.1;
            out.gates()[postIndex(st, b, j)] = g;
            nudged = true;
            break;
        }
    ASSERT_TRUE(nudged);
    std::string why;
    const verify::VerifyReport rep =
        verify::certify(r.input, out, d, budget(), &why);
    EXPECT_EQ(why, "");
    EXPECT_GT(rep.distanceEstimate, 0.01);
    EXPECT_EQ(rep.verdict, verify::Verdict::Inequivalent);
}

TEST(CertificateRejects, DroppedStep)
{
    Recorded r = recordedRun();
    ir::Derivation d = r.run.derivation;
    const std::size_t parent = d.steps[d.best].parent;
    ASSERT_NE(parent, 0u);
    d.steps[d.best].parent = d.steps[parent].parent;
    std::string why;
    const verify::VerifyReport rep =
        verify::certify(r.input, r.run.best, d, budget(), &why);
    EXPECT_NE(why, "");
    EXPECT_EQ(rep.distanceEstimate, 1);
    EXPECT_EQ(rep.verdict, verify::Verdict::Inequivalent);
}

TEST(CertificateRejects, EditedOutput)
{
    Recorded r = recordedRun();
    ir::Circuit out = r.run.best;
    out.h(0);
    std::string why;
    EXPECT_EQ(verify::certify(r.input, out, r.run.derivation, budget(), &why)
                  .verdict,
              verify::Verdict::Inequivalent);
    EXPECT_NE(why.find("differs from the output"), std::string::npos) << why;
}

TEST(CertificateRejects, NonConvexBlock)
{
    // cx; h q1; cx — the two CX cancel as a pair (Δ = 0), but not
    // around the H between them on q1.
    ir::Circuit a(2);
    a.cx(0, 1);
    a.h(1);
    a.cx(0, 1);
    ir::Circuit b(2);
    b.h(1);
    ir::Derivation d;
    d.steps.resize(2);
    ir::DerivationStep &st = d.steps[1];
    st.blocks.push_back({{0, 2}, {}});
    st.emit(ir::DerivationRun::kKept, 1);
    d.best = 1;
    std::string why;
    EXPECT_EQ(verify::certify(a, b, d, budget(), &why).verdict,
              verify::Verdict::Inequivalent);
    EXPECT_NE(why.find("not convex"), std::string::npos) << why;
    EXPECT_GT(preciseDistance(a, b), 0.5);
}

TEST(CertificateRejects, MisorderedBlocks)
{
    // The shared-wire rule-pass defect, rebuilt by hand: a pass of
    // cx_commute_shared_control matched {0, 2} and {3, 4}, which share
    // q1, and emitted the second one's replacement first.
    ir::Circuit a(8);
    a.cx(3, 1);
    a.cx(7, 2);
    a.cx(3, 2);
    a.cx(1, 5);
    a.cx(1, 0);
    ir::Derivation d;
    d.steps.resize(2);
    ir::DerivationStep &st = d.steps[1];
    st.blocks.push_back(
        {{0, 2}, {ir::Gate(ir::GateKind::CX, {3, 2}),
                  ir::Gate(ir::GateKind::CX, {3, 1})}});
    st.blocks.push_back(
        {{3, 4}, {ir::Gate(ir::GateKind::CX, {1, 0}),
                  ir::Gate(ir::GateKind::CX, {1, 5})}});
    st.emitBlock(1);
    st.emit(ir::DerivationRun::kKept, 1);
    st.emitBlock(0);
    d.best = 1;
    ir::Circuit b(8);
    b.cx(1, 0);
    b.cx(1, 5);
    b.cx(7, 2);
    b.cx(3, 2);
    b.cx(3, 1);
    std::string why;
    EXPECT_EQ(verify::certify(a, b, d, budget(), &why).verdict,
              verify::Verdict::Inequivalent);
    EXPECT_NE(why.find("wire's gate order"), std::string::npos) << why;
    EXPECT_GT(verify::verifyEquivalence(a, b, budget()).distanceEstimate,
              0.5);

    // Emitted in wire order, the same two blocks certify at ~0.
    d.steps[1].order.clear();
    d.steps[1].emit(ir::DerivationRun::kKept, 1);
    d.steps[1].emitBlock(0);
    d.steps[1].emitBlock(1);
    ir::Circuit good(8);
    good.cx(7, 2);
    good.cx(3, 2);
    good.cx(3, 1);
    good.cx(1, 0);
    good.cx(1, 5);
    const verify::VerifyReport ok = verify::certify(a, good, d, budget(), &why);
    EXPECT_EQ(why, "");
    EXPECT_LT(ok.distanceEstimate, 1e-12);
}

TEST(Certificate, ReplaysOnlyThePathToTheBest)
{
    // Step 2 branches off step 1 like an asynchronous resynthesis
    // accept from its launch snapshot; step 3 (on step 2's circuit) is
    // off the path and must not be replayed.
    ir::Circuit a(1);
    a.h(0);
    a.h(0);
    a.t(0);
    ir::Derivation d;
    d.steps.resize(4);
    d.steps[1].parent = 0; // drop the H pair
    d.steps[1].blocks.push_back({{0, 1}, {}});
    d.steps[1].emit(ir::DerivationRun::kKept, 2);
    d.steps[2].parent = 1; // T -> T (the branch the run kept)
    d.steps[2].blocks.push_back({{0}, {ir::Gate(ir::GateKind::T, {0})}});
    d.steps[2].emitBlock(0);
    d.steps[3].parent = 1; // dropping T would be wrong
    d.steps[3].blocks.push_back({{0}, {}});
    d.best = 2;
    ir::Circuit b(1);
    b.t(0);
    std::string why;
    const verify::VerifyReport rep = verify::certify(a, b, d, budget(), &why);
    EXPECT_EQ(why, "");
    EXPECT_EQ(rep.verdict, verify::Verdict::Equivalent);
    d.best = 3;
    EXPECT_EQ(verify::certify(a, ir::Circuit(1), d, budget(), &why).verdict,
              verify::Verdict::Inequivalent);
}

// --- the checker API and serve ---------------------------------------

TEST(Certificate, CheckerNeedsADerivationButNotAWidth)
{
    const verify::CheckerRegistry &reg = verify::CheckerRegistry::global();
    const verify::EquivalenceChecker *cert = reg.find("certificate");
    const verify::EquivalenceChecker *autoc = reg.find("auto");
    ASSERT_NE(cert, nullptr);
    ASSERT_NE(autoc, nullptr);
    const ir::Circuit wide = workloads::ghz(30);
    verify::VerifyRequest req = budget();
    EXPECT_NE(cert->checkRequest(wide, wide, req), "");
    EXPECT_NE(autoc->checkRequest(wide, wide, req), "");
    ir::Derivation d;
    d.steps.resize(1);
    req.derivation = &d;
    EXPECT_EQ(cert->checkRequest(wide, wide, req), "");
    EXPECT_EQ(autoc->checkRequest(wide, wide, req), "");
    const verify::VerifyReport rep = autoc->run(wide, wide, req);
    EXPECT_EQ(rep.method, "certificate");
    EXPECT_EQ(rep.distanceEstimate, 0);
}

TEST(Certificate, AutoFallsBackWhenTheDerivationFails)
{
    const ir::Circuit a = workloads::ghz(4);
    ir::Derivation d;
    d.steps.resize(1);
    ir::Circuit b = a;
    b.x(3); // not what the (empty) derivation produces
    verify::VerifyRequest req = budget();
    req.derivation = &d;
    const verify::VerifyReport rep =
        verify::CheckerRegistry::global().find("auto")->run(a, b, req);
    EXPECT_EQ(rep.method, "dense");
    EXPECT_EQ(rep.verdict, verify::Verdict::Inequivalent);
}

serve::Config
serveConfig(int threads)
{
    serve::Config cfg;
    cfg.optimizer = core::OptimizerRegistry::global().find("guoq");
    cfg.base.timeBudgetSeconds = 1e6;
    cfg.base.maxIterations = 100;
    cfg.base.seed = 3;
    cfg.base.threads = threads;
    cfg.verify = true;
    cfg.checker = verify::CheckerRegistry::global().find("auto");
    cfg.verifyBase.tolerance = 1e-6;
    return cfg;
}

/** A @p n-qubit GHZ preparation with a redundant CX pair. */
std::string
redundantGhz(int n)
{
    ir::Circuit c = transpile::toGateSet(workloads::ghz(n),
                                         ir::GateSetKind::Nam);
    c.cx(0, 1);
    c.cx(0, 1);
    return qasm::toQasm(c, qasm::Dialect::Qasm2);
}

TEST(CertificateServe, WideRequestIsCertifiedNotSkipped)
{
    const serve::Outcome o =
        serve::processSource("wide", redundantGhz(30), serveConfig(1));
    EXPECT_EQ(o.entry.status, serve::Status::Ok) << o.entry.message;
    EXPECT_EQ(o.entry.verify.method, "certificate");
    EXPECT_EQ(o.entry.verify.verdict, verify::Verdict::Equivalent);
    EXPECT_LT(o.entry.gatesAfter, o.entry.gatesBefore);
}

TEST(CertificateServe, PortfolioRowsFallBackToDense)
{
    const serve::Outcome o =
        serve::processSource("narrow", redundantGhz(5), serveConfig(2));
    EXPECT_EQ(o.entry.status, serve::Status::Ok) << o.entry.message;
    EXPECT_FALSE(o.report.derivation.recorded());
    EXPECT_EQ(o.entry.verify.method, "dense");
    EXPECT_EQ(o.entry.verify.verdict, verify::Verdict::Equivalent);
}

} // namespace
} // namespace guoq
