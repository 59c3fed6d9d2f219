#include "baselines/passes.h"

#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "transpile/to_gate_set.h"

namespace guoq {
namespace baselines {

namespace {

/** @p set's size-preserving rules (the commutations). */
std::vector<rewrite::RewriteRule>
commutationRules(ir::GateSetKind set)
{
    std::vector<rewrite::RewriteRule> out;
    for (const rewrite::RewriteRule &r : rewrite::rulesFor(set))
        if (r.sizeDelta() == 0)
            out.push_back(r);
    return out;
}

} // namespace

ir::Circuit
reduceFixpoint(const ir::Circuit &c, ir::GateSetKind set)
{
    return rewrite::applyRulesToFixpoint(c,
                                         rewrite::sizeReducingRulesFor(set));
}

ir::Circuit
commuteAndReduce(const ir::Circuit &c, ir::GateSetKind set, int rounds)
{
    const std::vector<rewrite::RewriteRule> commutes =
        commutationRules(set);
    const std::vector<rewrite::RewriteRule> &reducing =
        rewrite::sizeReducingRulesFor(set);
    // One engine carries the current circuit across every sweep.
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    rewrite::applyRulesToFixpoint(engine, reducing);
    ir::Circuit best = engine.circuit();
    for (int round = 0; round < rounds; ++round) {
        // One sweep of each commutation (staggered anchors so
        // successive rounds explore different shuffles); reduce after
        // every sweep so a forward/reverse commutation pair cannot
        // undo each other before cancellations are harvested.
        for (std::size_t i = 0; i < commutes.size(); ++i) {
            const std::size_t n = engine.circuit().size();
            const std::size_t anchor =
                n == 0 ? 0
                       : (static_cast<std::size_t>(round) * 7 + i) % n;
            if (!engine.preparePass(commutes[i], anchor))
                continue;
            engine.commit();
            rewrite::applyRulesToFixpoint(engine, reducing);
            if (engine.counts().gates < best.gateCount())
                best = engine.circuit();
        }
    }
    return best;
}

ir::Circuit
fusionPass(const ir::Circuit &c, ir::GateSetKind set)
{
    return transpile::fuseOneQubitRuns(c, set);
}

} // namespace baselines
} // namespace guoq
