/**
 * @file
 * Framework instantiation (paper §4): build the transformation set T
 * for a gate set — every library rewrite rule as a τ_0, the 1q-fusion
 * τ_0 for continuous sets, and the resynthesis τ_ε — plus the weighted
 * sampler that picks resynthesis 1.5% of the time (§5.3).
 */

#pragma once

#include <vector>

#include "core/transformation.h"
#include "ir/gate_set.h"
#include "support/rng.h"

namespace guoq {
namespace core {

/**
 * Nominal ε of one resynthesis call: @p requested when positive, else
 * max(ε_f/16, 3e-7). Several calls fit ε_f because the searches charge
 * each call's measured distance (TransformOutcome::epsilonSpent). Below
 * the 3e-7 floor the HS metric's machine-epsilon noise (~1e-8 after
 * the sqrt) dominates and validation gets flaky.
 */
double perCallEpsilon(double epsilon_total, double requested = -1.0);

/** Which transformation classes to instantiate (Q2/Q3 ablations). */
enum class TransformSelection
{
    Combined,    //!< rewrite rules + fusion + resynthesis (GUOQ)
    RewriteOnly, //!< GUOQ-REWRITE
    ResynthOnly, //!< GUOQ-RESYNTH
};

/** The instantiated set T plus sampling weights. */
class TransformationSet
{
  public:
    /**
     * Build T for @p set.
     * @param selection   ablation switch.
     * @param epsilon     nominal ε for the resynthesis τ_ε (0 disables
     *                    approximate transformations entirely).
     * @param resynth_prob probability of sampling resynthesis
     *                    (paper: 0.015).
     * @param per_call_seconds wall-clock cap per synthesis call.
     * @param max_qubits  subcircuit qubit cap (paper: 3).
     * @param service     synthesis service the resynthesis τ_ε routes
     *                    through (process-wide service when null).
     * @param counters    optional per-run cache-traffic tally.
     */
    TransformationSet(ir::GateSetKind set, TransformSelection selection,
                      double epsilon, double resynth_prob,
                      double per_call_seconds, int max_qubits,
                      synth::SynthService *service = nullptr,
                      synth::ResynthCounters *counters = nullptr);

    /** All transformations (fast first, then resynthesis). */
    const std::vector<Transformation> &all() const { return transforms_; }

    /** True when the set contains at least one fast (ε=0) transform. */
    bool hasFast() const { return fastCount_ > 0; }

    /** True when the set contains a resynthesis transform. */
    bool hasResynth() const { return resynthCount_ > 0; }

    /**
     * Sample per §5.3: resynthesis with probability resynth_prob (when
     * present), otherwise uniform over the fast transformations.
     * Returns an index into all().
     */
    std::size_t sample(support::Rng &rng) const;

  private:
    std::vector<Transformation> transforms_;
    std::size_t fastCount_ = 0;
    std::size_t resynthCount_ = 0;
    double resynthProb_ = 0.015;
};

} // namespace core
} // namespace guoq
