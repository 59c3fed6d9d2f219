/**
 * @file
 * The legacy dense instantiation kernel, kept as the reference oracle
 * for the allocation-free one (synth::AnsatzEvaluator over
 * sim::BoundGate), and the legacy first-order solver, kept as the
 * old-solver row of the `instantiate` bench case.
 *
 * This is not production code: it lives in the guoq_reference
 * library, which only the tests and guoq_bench link. It is the
 * pre-BoundGate sim::applyGate and synth::hsCostAndGrad verbatim:
 * every gate application allocates its matrix and index tables, every
 * slot builds an ir::Gate, B absorbs each gate through a dense
 * O(dim^3) product, and each gradient entry copies its prefix.
 * tests/test_instantiate.cc and tests/test_unitary_sim.cc hold the
 * production kernel to bit equality (==, not NEAR) with these, and
 * the `instantiate` bench case times the two side by side.
 *
 * instantiateAdam() is synth::instantiate as it was before
 * Levenberg–Marquardt: multi-start Adam over
 * synth::AnsatzEvaluator::costAndGrad.
 */

#pragma once

#include <vector>

#include "ir/gate.h"
#include "linalg/complex_matrix.h"
#include "support/rng.h"
#include "support/timer.h"
#include "synth/instantiate.h"
#include "synth/templates.h"

namespace guoq {
namespace reference {

/** u <- G_full * u: the legacy sim::applyGate. */
void applyGate(linalg::ComplexMatrix &u, const ir::Gate &gate,
               int num_qubits);

/** The legacy synth::hsCostAndGrad (dense absorb, prefix copies). */
double hsCostAndGrad(const synth::Ansatz &ansatz,
                     const linalg::ComplexMatrix &target,
                     const std::vector<double> &params,
                     std::vector<double> *grad);

/**
 * The legacy synth::instantiate: the same start draws, restart rule and
 * success test, but each start runs Adam (learning rate 0.1, at most
 * 600 cost+gradient calls, plateau and stall stops). `jacobians`
 * counts its gradient calls.
 */
synth::InstantiateResult
instantiateAdam(const synth::Ansatz &ansatz,
                const linalg::ComplexMatrix &target, double eps,
                int restarts, support::Rng &rng,
                const support::Deadline &deadline,
                const std::vector<double> *hint = nullptr);

} // namespace reference
} // namespace guoq
