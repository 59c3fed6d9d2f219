/** @file The legacy rule pass, kept as the engine's reference oracle. */

#include "reference/applier.h"

#include <map>
#include <vector>

namespace guoq {
namespace rewrite {

Matcher::Matcher(const ir::Circuit &c) : circuit_(c), dag_(c) {}

std::optional<Match>
Matcher::matchAt(const RewriteRule &rule, std::size_t anchor) const
{
    if (!rewrite::matchAt(circuit_, dag_, rule, anchor, scratch_))
        return std::nullopt;
    return scratch_.match;
}

PassResult
applyRulePass(const ir::Circuit &c, const RewriteRule &rule,
              std::size_t start_anchor)
{
    const std::size_t n = c.size();
    PassResult result;
    if (n == 0) {
        result.circuit = c;
        return result;
    }

    Matcher matcher(c);
    std::vector<bool> used(n, false);
    // Per accepted match: its insertPos and its first gate per wire.
    struct Accepted
    {
        std::size_t insertPos;
        std::map<int, std::size_t> firstOn;
    };
    std::vector<Accepted> accepted;
    // insertPos -> replacement gate lists to emit at that position.
    std::multimap<std::size_t, std::vector<ir::Gate>> insertions;

    for (std::size_t off = 0; off < n; ++off) {
        const std::size_t anchor = (start_anchor + off) % n;
        if (used[anchor])
            continue;
        auto m = matcher.matchAt(rule, anchor);
        if (!m)
            continue;
        bool overlap = false;
        for (std::size_t gi : m->gateIndices) {
            if (used[gi]) {
                overlap = true;
                break;
            }
        }
        if (overlap)
            continue;
        // Replacements are emitted by (insertPos, discovery order), so
        // on every shared wire the match that comes first must be
        // emitted first, or the pass reorders that wire.
        Accepted mine{m->insertPos, {}};
        for (std::size_t gi : m->gateIndices)
            for (int q : c.gate(gi).qubits) {
                auto [it, fresh] = mine.firstOn.emplace(q, gi);
                if (!fresh && gi < it->second)
                    it->second = gi;
            }
        bool misordered = false;
        for (const Accepted &a : accepted)
            for (const auto &[q, first] : mine.firstOn) {
                const auto it = a.firstOn.find(q);
                if (it == a.firstOn.end())
                    continue;
                misordered |= it->second < first
                                  ? a.insertPos > mine.insertPos
                                  : a.insertPos <= mine.insertPos;
            }
        if (misordered)
            continue;
        accepted.push_back(std::move(mine));
        for (std::size_t gi : m->gateIndices)
            used[gi] = true;
        rule.instantiateReplacement(
            m->qubitBinding, m->angleBinding,
            insertions.emplace(m->insertPos, std::vector<ir::Gate>())
                ->second);
        ++result.applications;
    }

    ir::Circuit out(c.numQubits());
    for (std::size_t i = 0; i <= n; ++i) {
        auto [lo, hi] = insertions.equal_range(i);
        for (auto it = lo; it != hi; ++it)
            for (ir::Gate &g : it->second)
                out.add(g);
        if (i < n && !used[i])
            out.add(c.gate(i));
    }
    result.circuit = std::move(out);
    return result;
}

PassResult
applyRulePassRandom(const ir::Circuit &c, const RewriteRule &rule,
                    support::Rng &rng)
{
    const std::size_t anchor = c.empty() ? 0 : rng.index(c.size());
    return applyRulePass(c, rule, anchor);
}

} // namespace rewrite
} // namespace guoq
