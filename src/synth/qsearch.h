/**
 * @file
 * QSearch/LEAP-style bottom-up unitary synthesis for continuous gate
 * sets (the BQSKit substitute, paper §6 "Instantiation of guoq").
 *
 * The search explores circuit *structures* — sequences of entangler
 * placements dressed with 1q rotations — ordered by instantiation
 * quality, expanding the most promising structure with one more
 * entangler block until the target distance is met or the budget runs
 * out. For 1 qubit the ZYZ decomposition is exact and immediate.
 */

#pragma once

#include "linalg/complex_matrix.h"
#include "support/rng.h"
#include "support/timer.h"
#include "synth/templates.h"

namespace guoq {
namespace synth {

/** Result shared by the unitary synthesizers. */
struct SynthResult
{
    bool success = false;
    ir::Circuit circuit;     //!< Rz/Ry/CX (or Rxx) gates
    double distance = 1.0;   //!< achieved Hilbert–Schmidt distance
    int nodesExpanded = 0;   //!< structures instantiated
};

/** Options for qsearch(). */
struct QSearchOptions
{
    double epsilon = 1e-8;       //!< target HS distance
    int maxEntanglers = 10;      //!< structure depth cap
    int restartsPerNode = 4;     //!< instantiation starts per structure
    bool useRxx = false;         //!< IonQ: parameterized Rxx entangler
    support::Deadline deadline;  //!< wall-clock budget

    /**
     * Optional seed: the entangler pair sequence of the circuit being
     * resynthesized. When given, the search first instantiates the
     * seed structure and greedily deletes entanglers from it (the
     * QUEST/BQSKit gate-deletion strategy) before falling back to
     * bottom-up A*. Ignored when longer than maxSeedEntanglers.
     */
    std::vector<std::pair<int, int>> seedEntanglers;
    int maxSeedEntanglers = 12;
};

/**
 * Synthesize a circuit for @p target (2^n x 2^n, n = @p num_qubits,
 * n ≤ 4) within @p opts.epsilon. On failure returns the best attempt
 * with success = false.
 */
SynthResult qsearch(const linalg::ComplexMatrix &target, int num_qubits,
                    const QSearchOptions &opts, support::Rng &rng);

} // namespace synth
} // namespace guoq
