/**
 * @file
 * The legacy dense instantiation kernel, kept as the reference oracle
 * for the allocation-free one (synth::AnsatzEvaluator over
 * sim::BoundGate).
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
 */

#pragma once

#include <vector>

#include "ir/gate.h"
#include "linalg/complex_matrix.h"
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

} // namespace reference
} // namespace guoq
