/**
 * @file
 * Extending the framework (paper §4): circuit transformations are
 * closed boxes, so user code can compose them directly. This example
 * applies the production τ_ε's one at a time — rule passes, 1q
 * fusion, and resynthesis of a random convex subcircuit — while
 * tracking the Thm. 4.2 additive error bound by hand.
 *
 * Run: ./examples/custom_transform
 */

#include <cstdio>

#include "core/transformation.h"
#include "rewrite/rule.h"
#include "sim/unitary_sim.h"
#include "transpile/to_gate_set.h"
#include "workloads/simulation.h"

int
main()
{
    using namespace guoq;

    const ir::GateSetKind set = ir::GateSetKind::Nam;
    ir::Circuit circuit =
        transpile::toGateSet(workloads::trotterIsing(4, 2), set);
    const ir::Circuit original = circuit;
    double error_bound = 0;

    std::printf("trotter ising, 4 qubits x 2 steps on %s: %zu gates\n",
                ir::gateSetName(set).c_str(), circuit.size());

    // Transformation 1 (ε = 0): one full pass of every library rule.
    support::Rng rng(5);
    for (const rewrite::RewriteRule &rule : rewrite::rulesFor(set)) {
        const core::Transformation tau =
            core::Transformation::fromRule(&rule);
        if (auto out = tau.apply(circuit, rng))
            circuit = std::move(out->circuit);
    }
    std::printf("after rule passes:        %zu gates (error bound "
                "%.1e)\n",
                circuit.size(), error_bound);

    // Transformation 2 (ε = 0): exact 1q-run fusion.
    if (auto out = core::Transformation::fusion(set).apply(circuit, rng))
        circuit = std::move(out->circuit);
    std::printf("after 1q fusion:          %zu gates (error bound "
                "%.1e)\n",
                circuit.size(), error_bound);

    // Transformation 3 (ε > 0): resynthesize a random convex subcircuit
    // of at most 3 qubits within ε = 1e-6, 3 s per call. The measured
    // distance is charged against the budget (Thm. 4.2: the final
    // error is at most the sum of the step errors).
    const core::Transformation resynth =
        core::Transformation::resynthesis(set, 1e-6, 3.0, 3);
    for (int attempt = 0; attempt < 30; ++attempt) {
        auto out = resynth.apply(circuit, rng);
        if (!out)
            continue;
        circuit = std::move(out->circuit);
        error_bound += out->epsilonSpent;
        std::printf("after resynthesis splice: %zu gates (error bound "
                    "%.1e)\n",
                    circuit.size(), error_bound);
        break;
    }

    // Validate the composed bound against ground truth.
    const double actual = sim::circuitDistance(original, circuit);
    std::printf("\nThm 4.2 check: measured distance %.2e <= summed "
                "bound %.2e (+ metric noise)\n",
                actual, error_bound);
    std::printf("2q count: %zu -> %zu\n", original.twoQubitGateCount(),
                circuit.twoQubitGateCount());
    return 0;
}
