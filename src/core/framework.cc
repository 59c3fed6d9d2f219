#include "core/framework.h"

#include <algorithm>

#include "rewrite/rule.h"
#include "support/logging.h"

namespace guoq {
namespace core {

double
perCallEpsilon(double epsilon_total, double requested)
{
    if (requested > 0)
        return requested;
    return std::max(epsilon_total / 16.0, 3e-7);
}

TransformationSet::TransformationSet(ir::GateSetKind set,
                                     TransformSelection selection,
                                     double epsilon, double resynth_prob,
                                     double per_call_seconds, int max_qubits,
                                     synth::SynthService *service,
                                     synth::ResynthCounters *counters)
    : resynthProb_(resynth_prob)
{
    if (selection != TransformSelection::ResynthOnly) {
        for (const rewrite::RewriteRule &rule : rewrite::rulesFor(set))
            transforms_.push_back(Transformation::fromRule(&rule));
        if (!ir::isFinite(set))
            transforms_.push_back(Transformation::fusion(set));
        fastCount_ = transforms_.size();
    }
    if (selection != TransformSelection::RewriteOnly) {
        transforms_.push_back(Transformation::resynthesis(
            set, epsilon, per_call_seconds, max_qubits, service,
            counters));
        resynthCount_ = 1;
    }
    if (transforms_.empty())
        support::panic("TransformationSet: empty selection");
}

std::size_t
TransformationSet::sample(support::Rng &rng) const
{
    if (resynthCount_ > 0 &&
        (fastCount_ == 0 || rng.chance(resynthProb_))) {
        // Resynthesis transformations sit after the fast block.
        return fastCount_ + rng.index(resynthCount_);
    }
    return rng.index(fastCount_);
}

} // namespace core
} // namespace guoq
