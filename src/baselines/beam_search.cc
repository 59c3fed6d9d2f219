#include "baselines/beam_search.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "support/rng.h"
#include "support/timer.h"

namespace guoq {
namespace baselines {

namespace {

/** A queued candidate: circuit + accumulated approximation error. */
struct Candidate
{
    ir::Circuit circuit;
    double cost = 0;
    double error = 0;
};

/** Structural hash for duplicate suppression. */
std::size_t
circuitHash(const ir::Circuit &c)
{
    std::size_t h = std::hash<std::size_t>{}(c.size());
    for (const ir::Gate &g : c.gates()) {
        h = h * 1000003u + static_cast<std::size_t>(g.kind);
        for (int q : g.qubits)
            h = h * 1000003u + static_cast<std::size_t>(q) + 17u;
        for (double p : g.params)
            h = h * 1000003u +
                std::hash<long long>{}(
                    static_cast<long long>(p * 1e9));
    }
    return h;
}

} // namespace

BeamResult
beamSearchOptimize(const ir::Circuit &c, ir::GateSetKind set,
                   const BeamOptions &opts)
{
    const support::Deadline deadline =
        support::Deadline::in(opts.timeBudgetSeconds);
    support::Rng rng(opts.seed);
    const core::CostFunction cost(opts.objective, set);

    const core::TransformSelection sel =
        opts.epsilonTotal > 0 ? core::TransformSelection::Combined
                              : core::TransformSelection::RewriteOnly;
    const core::TransformationSet transforms(
        set, sel, core::perCallEpsilon(opts.epsilonTotal), 0.015, 0.25,
        3);

    BeamResult result;
    result.best = c;
    double best_cost = cost(c);

    // Beam kept sorted ascending by cost; worst trimmed at capacity.
    std::vector<Candidate> beam;
    beam.push_back({c, best_cost, 0.0});
    std::unordered_set<std::size_t> seen{circuitHash(c)};

    while (!beam.empty() && !deadline.expired() &&
           (opts.maxIterations < 0 ||
            result.iterations < opts.maxIterations)) {
        ++result.iterations;
        const Candidate cur = beam.front();
        beam.erase(beam.begin());

        for (const core::Transformation &tau : transforms.all()) {
            if (deadline.expired())
                break;
            if (tau.epsilon() > 0 &&
                cur.error + tau.epsilon() > opts.epsilonTotal)
                continue;
            auto outcome = tau.apply(cur.circuit, rng);
            if (!outcome)
                continue;
            if (outcome->epsilonSpent > 0 &&
                cur.error + outcome->epsilonSpent > opts.epsilonTotal)
                continue;
            ++result.candidatesGenerated;
            const std::size_t h = circuitHash(outcome->circuit);
            if (!seen.insert(h).second) {
                ++result.candidatesPruned;
                continue;
            }
            Candidate child;
            child.cost = cost(outcome->circuit);
            child.error = cur.error + outcome->epsilonSpent;
            child.circuit = std::move(outcome->circuit);
            if (child.cost < best_cost) {
                best_cost = child.cost;
                result.best = child.circuit;
                result.errorBound = child.error;
            }
            const auto pos = std::lower_bound(
                beam.begin(), beam.end(), child,
                [](const Candidate &a, const Candidate &b) {
                    return a.cost < b.cost;
                });
            beam.insert(pos, std::move(child));
            if (beam.size() > opts.beamWidth) {
                beam.pop_back();
                ++result.candidatesPruned;
            }
        }
    }
    return result;
}

} // namespace baselines
} // namespace guoq
