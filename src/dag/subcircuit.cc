#include "dag/subcircuit.h"

#include <algorithm>
#include <set>

#include "support/logging.h"

namespace guoq {
namespace dag {

/*
 * Convexity & splice-position argument.
 *
 * Selection scans gates in list order starting at the seed. A gate is
 * selected iff (a) none of its qubits is dirty and (b) the union of
 * its qubits with the selection's qubit set fits the budget. A skipped
 * gate marks all of its qubits dirty.
 *
 * Convexity: suppose s1, s2 are selected and some path s1 -> v -> s2
 * exists with v unselected. The gate list is a topological order, so
 * v lies between s1 and s2 in list order, i.e. v was scanned and
 * skipped, dirtying its qubits. Follow the path from v to s2: each hop
 * shares a wire; the first selected gate w on that path was scanned
 * after v yet selected with a dirty wire — contradiction.
 *
 * Splice position: the seed is the earliest selected gate. Every
 * skipped gate appears after the seed in list order, so inserting the
 * replacement block at the seed's position keeps every wire's order:
 * on any selection wire q, selected gates on q all precede the first
 * skipped gate on q (dirty rule), so the replacement (which stands for
 * them) may sit at the seed position ahead of all skipped gates.
 */

SubcircuitSelection
growConvex(const ir::Circuit &c, std::size_t seed, int max_qubits,
           std::size_t max_gates, int max_two_qubit)
{
    SubcircuitSelection sel;
    if (seed >= c.size() || max_gates == 0)
        return sel;
    const ir::Gate &sg = c.gate(seed);
    if (static_cast<int>(sg.qubits.size()) > max_qubits)
        return sel;

    std::set<int> qubits(sg.qubits.begin(), sg.qubits.end());
    std::vector<bool> dirty(static_cast<std::size_t>(c.numQubits()), false);
    sel.indices.push_back(seed);
    int two_qubit = sg.qubits.size() == 2 ? 1 : 0;

    for (std::size_t i = seed + 1;
         i < c.size() && sel.indices.size() < max_gates; ++i) {
        const ir::Gate &g = c.gate(i);
        bool blocked = false;
        for (int q : g.qubits)
            blocked |= dirty[static_cast<std::size_t>(q)];
        if (g.qubits.size() == 2 && max_two_qubit >= 0 &&
            two_qubit >= max_two_qubit)
            blocked = true;
        std::set<int> merged = qubits;
        merged.insert(g.qubits.begin(), g.qubits.end());
        if (!blocked && static_cast<int>(merged.size()) <= max_qubits) {
            sel.indices.push_back(i);
            qubits.swap(merged);
            if (g.qubits.size() == 2)
                ++two_qubit;
        } else {
            for (int q : g.qubits)
                dirty[static_cast<std::size_t>(q)] = true;
        }
    }
    sel.qubits.assign(qubits.begin(), qubits.end());
    return sel;
}

SubcircuitSelection
randomConvex(const ir::Circuit &c, support::Rng &rng, int max_qubits,
             std::size_t max_gates, int max_two_qubit)
{
    if (c.empty())
        return {};
    return growConvex(c, rng.index(c.size()), max_qubits, max_gates,
                      max_two_qubit);
}

ir::Circuit
extract(const ir::Circuit &c, const SubcircuitSelection &sel)
{
    // Global qubit -> local rank.
    std::vector<int> rank(static_cast<std::size_t>(c.numQubits()), -1);
    for (std::size_t k = 0; k < sel.qubits.size(); ++k)
        rank[static_cast<std::size_t>(sel.qubits[k])] =
            static_cast<int>(k);

    ir::Circuit sub(static_cast<int>(sel.qubits.size()));
    for (std::size_t idx : sel.indices) {
        ir::Gate g = c.gate(idx);
        for (auto &q : g.qubits) {
            const int r = rank[static_cast<std::size_t>(q)];
            if (r < 0)
                support::panic("extract: gate outside selection qubits");
            q = r;
        }
        sub.add(std::move(g));
    }
    return sub;
}

ir::Circuit
splice(const ir::Circuit &c, const SubcircuitSelection &sel,
       const ir::Circuit &replacement)
{
    if (sel.empty())
        support::panic("splice with empty selection");
    if (replacement.numQubits() !=
        static_cast<int>(sel.qubits.size()))
        support::panic("splice: replacement qubit count mismatch");

    std::vector<bool> removed(c.size(), false);
    for (std::size_t idx : sel.indices)
        removed[idx] = true;
    const std::size_t at = sel.indices.front();

    ir::Circuit out(c.numQubits());
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (i == at) {
            for (const ir::Gate &g : replacement.gates()) {
                ir::Gate ng = g;
                for (auto &q : ng.qubits)
                    q = sel.qubits[static_cast<std::size_t>(q)];
                out.add(std::move(ng));
            }
        }
        if (!removed[i])
            out.add(c.gate(i));
    }
    // Degenerate case: selection at the very end with empty replacement
    // still handled above because at < c.size() always.
    return out;
}

ir::DerivationStep
spliceStep(std::size_t num_gates, const SubcircuitSelection &sel,
           const ir::Circuit &replacement)
{
    if (sel.empty())
        support::panic("spliceStep with empty selection");
    ir::DerivationStep step;
    ir::DerivationBlock b;
    b.gates.assign(sel.indices.begin(), sel.indices.end());
    b.replacement = replacement.gates();
    for (ir::Gate &g : b.replacement)
        for (auto &q : g.qubits)
            q = sel.qubits[static_cast<std::size_t>(q)];
    step.blocks.push_back(std::move(b));

    // splice()'s order: the replacement at the first selected gate.
    std::size_t k = 0;
    for (std::size_t i = 0; i < num_gates; ++i) {
        if (i == sel.indices.front())
            step.emitBlock(0);
        if (k < sel.indices.size() && sel.indices[k] == i)
            ++k;
        else
            step.emit(ir::DerivationRun::kKept,
                      static_cast<std::uint32_t>(i));
    }
    return step;
}

std::vector<SubcircuitSelection>
partitionConvex(const ir::Circuit &c, int max_qubits, std::size_t max_gates)
{
    std::vector<SubcircuitSelection> blocks;
    std::vector<bool> assigned(c.size(), false);

    for (std::size_t start = 0; start < c.size(); ++start) {
        if (assigned[start])
            continue;
        // Grow from the earliest unassigned gate, skipping gates that
        // already belong to an earlier block (they are "dirty" walls).
        SubcircuitSelection sel;
        const ir::Gate &sg = c.gate(start);
        std::set<int> qubits(sg.qubits.begin(), sg.qubits.end());
        if (static_cast<int>(qubits.size()) > max_qubits) {
            // Oversized gate gets a singleton block.
            sel.indices.push_back(start);
            sel.qubits.assign(sg.qubits.begin(), sg.qubits.end());
            std::sort(sel.qubits.begin(), sel.qubits.end());
            assigned[start] = true;
            blocks.push_back(std::move(sel));
            continue;
        }
        std::vector<bool> dirty(static_cast<std::size_t>(c.numQubits()),
                                false);
        sel.indices.push_back(start);
        assigned[start] = true;
        for (std::size_t i = start + 1;
             i < c.size() && sel.indices.size() < max_gates; ++i) {
            const ir::Gate &g = c.gate(i);
            if (assigned[i]) {
                // A gate already owned by an earlier block is a wall:
                // growing past it on a shared wire would let this
                // block's seed-position splice reorder across it.
                for (int q : g.qubits)
                    dirty[static_cast<std::size_t>(q)] = true;
                continue;
            }
            bool blocked = false;
            for (int q : g.qubits)
                blocked |= dirty[static_cast<std::size_t>(q)];
            std::set<int> merged = qubits;
            merged.insert(g.qubits.begin(), g.qubits.end());
            if (!blocked &&
                static_cast<int>(merged.size()) <= max_qubits) {
                sel.indices.push_back(i);
                assigned[i] = true;
                qubits.swap(merged);
            } else {
                for (int q : g.qubits)
                    dirty[static_cast<std::size_t>(q)] = true;
            }
        }
        sel.qubits.assign(qubits.begin(), qubits.end());
        blocks.push_back(std::move(sel));
    }
    return blocks;
}

} // namespace dag
} // namespace guoq
