/**
 * @file
 * The ε-soundness sweep, fast tier (paper Thm. 5.3 checked against the
 * actual outputs, not the optimizers' own bookkeeping): every registry
 * optimizer × the five gate sets × seeded small workload circuits,
 * the unstructured `random` family included, at ε = 0 and ε = 1e-5.
 *
 *  - the dense distance between input and output is within the
 *    reported errorBound (+1e-6, the dense checker's noise floor);
 *  - at ε = 0 it is within 1e-6 outright, and every optimizer
 *    reports errorBound == 0 (none spends budget it was not given);
 *  - for every optimizer whose info() says it records a derivation
 *    (the guoq family), the certificate checks and its distance is an
 *    upper bound of the true distance (measured without hsDistance's
 *    ~1e-8 cancellation floor).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/optimizer.h"
#include "linalg/unitary.h"
#include "sim/unitary_sim.h"
#include "transpile/to_gate_set.h"
#include "verify/checker.h"
#include "workloads/suite.h"
#include "workloads/variational.h"

namespace guoq {
namespace {

const ir::GateSetKind kSets[] = {
    ir::GateSetKind::Nam,      ir::GateSetKind::Ibmq20,
    ir::GateSetKind::IbmEagle, ir::GateSetKind::IonQ,
    ir::GateSetKind::CliffordT,
};

/** A seeded `random`-family circuit on @p n qubits, lowered to @p set
 *  (Clifford+T keeps only its exactly representable gates). */
ir::Circuit
randomFor(ir::GateSetKind set, int n, std::uint64_t seed)
{
    const ir::Circuit raw = workloads::randomCircuit(n, 10 * n, seed);
    if (set != ir::GateSetKind::CliffordT)
        return transpile::toGateSet(raw, set);
    ir::Circuit exact(n);
    for (const ir::Gate &g : raw.gates())
        if (g.kind != ir::GateKind::Rz)
            exact.add(g);
    return transpile::toGateSet(exact, set);
}

/** The sweep's inputs for @p set: two random circuits and the two
 *  smallest structured ones. */
std::vector<ir::Circuit>
inputsFor(ir::GateSetKind set)
{
    std::vector<ir::Circuit> out = {randomFor(set, 3, 11),
                                    randomFor(set, 5, 12)};
    for (workloads::Benchmark &b : workloads::quickSuiteFor(set, 2))
        if (b.circuit.numQubits() <= 8)
            out.push_back(std::move(b.circuit));
    return out;
}

double
preciseDistance(const ir::Circuit &a, const ir::Circuit &b)
{
    const linalg::ComplexMatrix u = sim::circuitUnitary(a);
    const linalg::ComplexMatrix v = sim::circuitUnitary(b);
    return linalg::phaseAlignedDistance(u.data(), v.data(), u.rows());
}

TEST(EpsilonSoundness, EveryOptimizerStaysWithinItsBoundOnItsOutputs)
{
    const verify::EquivalenceChecker *dense =
        verify::CheckerRegistry::global().find("dense");
    ASSERT_NE(dense, nullptr);
    int runs = 0, certified = 0;
    for (ir::GateSetKind set : kSets) {
        const std::vector<ir::Circuit> inputs = inputsFor(set);
        for (const core::Optimizer *opt :
             core::OptimizerRegistry::global().all()) {
            const bool guoq = opt->info().name.rfind("guoq", 0) == 0;
            for (double eps : {0.0, 1e-5}) {
                core::OptimizeRequest req;
                req.set = set;
                req.epsilonTotal = eps;
                req.timeBudgetSeconds = 0.1; // beam, partition-resynth
                req.maxIterations = 60;
                req.seed = 3;
                req.recordDerivation = true;
                if (guoq)
                    req.params = {{"resynth-prob", "0.2"},
                                  {"max-subcircuit-qubits", "2"},
                                  {"resynth-call-seconds", "0.05"}};
                if (!opt->checkRequest(req).empty())
                    continue; // guoq-resynth without a budget
                for (const ir::Circuit &in : inputs) {
                    const core::OptimizeReport rep = opt->run(in, req);
                    const std::string what =
                        opt->info().name + " on " + ir::gateSetName(set) +
                        " at eps " + std::to_string(eps);
                    verify::VerifyRequest vreq;
                    vreq.epsilon = eps;
                    const double d = dense->run(in, rep.circuit, vreq)
                                         .distanceEstimate;
                    EXPECT_LE(d, rep.errorBound + 1e-6) << what;
                    if (eps == 0) {
                        EXPECT_LE(d, 1e-6) << what;
                        EXPECT_EQ(rep.errorBound, 0.0) << what;
                    } else {
                        EXPECT_LE(rep.errorBound, eps + 1e-12) << what;
                    }
                    ++runs;
                    if (!opt->info().recordsDerivation)
                        continue;
                    ASSERT_TRUE(rep.derivation.recorded()) << what;
                    vreq.tolerance = 1e-6;
                    std::string why;
                    const verify::VerifyReport cert = verify::certify(
                        in, rep.circuit, rep.derivation, vreq, &why);
                    EXPECT_EQ(why, "") << what;
                    EXPECT_EQ(cert.verdict, verify::Verdict::Equivalent)
                        << what;
                    EXPECT_GE(cert.distanceEstimate,
                              preciseDistance(in, rep.circuit) - 1e-9)
                        << what;
                    ++certified;
                }
            }
        }
    }
    EXPECT_GT(runs, 150);
    EXPECT_GT(certified, 40);
}

} // namespace
} // namespace guoq
