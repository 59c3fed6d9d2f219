#include "baselines/partition_resynth.h"

#include <algorithm>

#include "dag/subcircuit.h"
#include "support/rng.h"
#include "support/timer.h"
#include "synth/service.h"

namespace guoq {
namespace baselines {

PartitionResynthResult
partitionResynth(const ir::Circuit &c, ir::GateSetKind set,
                 core::Objective objective, double epsilon_total,
                 double time_budget_seconds, std::uint64_t seed,
                 synth::SynthService *service)
{
    synth::SynthService *svc =
        service != nullptr ? service : &synth::SynthService::global();
    const core::CostFunction cost(objective, set);
    support::Rng rng(seed);
    const support::Deadline deadline =
        support::Deadline::in(time_budget_seconds);

    PartitionResynthResult result;
    result.circuit = c;
    // At ε_f = 0 no resynthesized block is exact (instantiation stops
    // at a ~1e-8 distance), so resynthesis is skipped, as in GUOQ.
    if (!(epsilon_total > 0))
        return result;

    const std::vector<dag::SubcircuitSelection> blocks =
        dag::partitionConvex(c, 3, 48);
    result.blocks = static_cast<int>(blocks.size());
    if (blocks.empty())
        return result;

    const double eps_per_block =
        epsilon_total / static_cast<double>(blocks.size());
    const double seconds_per_block =
        time_budget_seconds / static_cast<double>(blocks.size());

    // Resynthesize blocks independently, then rebuild the circuit in
    // one pass: each improved block's replacement is emitted at its
    // seed position (valid by the partitioner's dirty-wall rule) and
    // its original gates are dropped.
    std::vector<const ir::Circuit *> replacement(blocks.size(), nullptr);
    std::vector<ir::Circuit> storage(blocks.size());

    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (deadline.expired())
            break;
        const ir::Circuit sub = dag::extract(c, blocks[i]);
        if (sub.size() < 2)
            continue;
        synth::ResynthOptions opts;
        opts.targetSet = set;
        opts.epsilon = eps_per_block;
        opts.deadline = deadline.slice(seconds_per_block);
        const synth::SynthOutcome so = svc->resynthesize(sub, opts, rng);
        result.synthCache.add(so);
        const synth::ResynthResult &r = so.result;
        if (!r.success)
            continue;
        if (cost(r.circuit) < cost(sub)) {
            storage[i] = r.circuit;
            replacement[i] = &storage[i];
            result.errorSpent += r.distance;
            ++result.blocksImproved;
        }
    }

    std::vector<bool> removed(c.size(), false);
    std::vector<int> block_at_seed(c.size(), -1);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (!replacement[i])
            continue;
        block_at_seed[blocks[i].indices.front()] = static_cast<int>(i);
        for (std::size_t idx : blocks[i].indices)
            removed[idx] = true;
    }

    ir::Circuit out(c.numQubits());
    for (std::size_t i = 0; i < c.size(); ++i) {
        const int bi = block_at_seed[i];
        if (bi >= 0) {
            const dag::SubcircuitSelection &sel =
                blocks[static_cast<std::size_t>(bi)];
            for (const ir::Gate &g :
                 replacement[static_cast<std::size_t>(bi)]->gates()) {
                ir::Gate ng = g;
                for (auto &q : ng.qubits)
                    q = sel.qubits[static_cast<std::size_t>(q)];
                out.add(std::move(ng));
            }
        }
        if (!removed[i])
            out.add(c.gate(i));
    }
    result.circuit = std::move(out);
    return result;
}

} // namespace baselines
} // namespace guoq
