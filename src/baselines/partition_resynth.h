/**
 * @file
 * The partition-and-resynthesize superoptimizer — the BQSKit/QUEST
 * baseline of Table 3 and the "our implementation of a BQSKit-style
 * partitioning optimizer" of Q4.
 *
 * One pass: partition the circuit into disjoint convex blocks of at
 * most 3 qubits, resynthesize each block with an equal share of the
 * error budget, and keep each block's result only when it improves the
 * objective. Rigid by construction: optimizations that straddle block
 * boundaries are invisible to it (the weakness GUOQ's free subcircuit
 * choice removes).
 */

#pragma once

#include <cstdint>

#include "core/cost.h"
#include "ir/circuit.h"
#include "ir/gate_set.h"
#include "synth/resynth.h"

namespace guoq {

namespace synth {
class SynthService;
} // namespace synth

namespace baselines {

/** Result of a partition+resynthesize run. */
struct PartitionResynthResult
{
    ir::Circuit circuit;
    double errorSpent = 0;   //!< Σ measured block distances
    int blocks = 0;
    int blocksImproved = 0;
    synth::ResynthCounters synthCache; //!< per-block cache traffic
};

/**
 * Run the one-pass partition+resynthesize optimizer. Block synthesis
 * routes through @p service (the process-wide synth::SynthService
 * when null), so batch runs share its cache.
 * @param epsilon_total ε_f, divided equally across blocks. At 0 the
 *        input is returned unchanged, with no blocks partitioned.
 * @param time_budget_seconds wall clock, divided across blocks.
 */
PartitionResynthResult
partitionResynth(const ir::Circuit &c, ir::GateSetKind set,
                 core::Objective objective, double epsilon_total,
                 double time_budget_seconds, std::uint64_t seed,
                 synth::SynthService *service = nullptr);

} // namespace baselines
} // namespace guoq
