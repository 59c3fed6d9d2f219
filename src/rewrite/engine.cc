#include "rewrite/engine.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <utility>

#include "support/logging.h"
#include "transpile/to_gate_set.h"

namespace guoq {
namespace rewrite {

namespace {

/**
 * Call @p on_run(run) for each maximal run of two or more native 1q
 * gates on wire @p q of @p c, in time order: the runs that
 * transpile::fuseOneQubitRuns refits. @p run is caller-owned scratch.
 */
template <typename OnRun>
void
forEachRun(const ir::Circuit &c, const dag::CircuitDag &dag, int q,
           ir::GateSetKind set, std::vector<const ir::Gate *> &run,
           OnRun &&on_run)
{
    run.clear();
    for (std::size_t i = dag.firstOnWire(q);; i = dag.next(i, q)) {
        const ir::Gate *g = i == dag::kNoGate ? nullptr : &c.gate(i);
        if (g != nullptr && g->arity() == 1 && ir::isNative(set, g->kind)) {
            run.push_back(g);
            continue;
        }
        if (run.size() >= 2)
            on_run(std::span<const ir::Gate *const>(run));
        run.clear();
        if (g == nullptr)
            return;
    }
}

} // namespace

RewriteEngine::RewriteEngine(ir::Circuit c) : circuit_(std::move(c))
{
    candidate_ = ir::Circuit(circuit_.numQubits());
    reindex();
    recount();
    clearFusionMarks();
}

void
RewriteEngine::setGateLogCost(std::function<double(const ir::Gate &)> fn)
{
    gateLogCost_ = std::move(fn);
    fidLogCost_ = 0;
    if (gateLogCost_)
        for (const ir::Gate &g : circuit_.gates())
            fidLogCost_ += gateLogCost_(g);
}

void
RewriteEngine::assign(ir::Circuit c)
{
    if (pending())
        support::panic("RewriteEngine::assign: a pass is pending");
    if (c.numQubits() != circuit_.numQubits())
        candidate_ = ir::Circuit(c.numQubits());
    circuit_ = std::move(c);
    reindex();
    recount();
    clearFusionMarks();
}

ir::Circuit
RewriteEngine::release()
{
    if (pending())
        support::panic("RewriteEngine::release: a pass is pending");
    clearFusionMarks();
    return std::move(circuit_);
}

std::optional<RewriteEngine::Attempt>
RewriteEngine::preparePass(const RewriteRule &rule,
                           std::size_t start_anchor)
{
    if (pending())
        support::panic("RewriteEngine::preparePass: a pass is pending");
    const std::size_t n = circuit_.size();
    if (n == 0 || memoizedNoMatch(rule))
        return std::nullopt;

    candidateReady_ = false;
    pendingCounts_ = counts_;
    pendingFidLogCost_ = fidLogCost_;
    usedStamp_.resize(n, 0);
    ++passEpoch_;
    gateMatch_.resize(n, 0);

    // The legacy pass visits anchors (start + off) % n for off 0..n-1
    // and lets matchAt reject every anchor whose kind differs from the
    // rule's first pattern gate. Restricted to the kind bucket, that
    // cyclic order is: bucket entries >= start ascending, then the
    // wrapped prefix.
    const auto &bucket =
        buckets_[static_cast<std::size_t>(rule.pattern().front().kind)];
    const auto split = static_cast<std::size_t>(
        std::lower_bound(bucket.begin(), bucket.end(), start_anchor) -
        bucket.begin());

    for (std::size_t off = 0; off < bucket.size(); ++off) {
        const std::size_t pos = split + off;
        const std::size_t anchor =
            bucket[pos < bucket.size() ? pos : pos - bucket.size()];
        if (usedStamp_[anchor] == passEpoch_ ||
            !secondGateAdmits(circuit_, dag_, rule, anchor))
            continue;
        auto m = matchAt(circuit_, dag_, rule, anchor, scratch_);
        if (!m)
            continue;
        bool overlap = false;
        for (std::size_t gi : m->gateIndices) {
            if (usedStamp_[gi] == passEpoch_) {
                overlap = true;
                break;
            }
        }
        if (overlap)
            continue;
        if (!admitOnWires(*m))
            continue;
        PendingMatch pm;
        pm.insertPos = m->insertPos;
        pm.gateIndices = std::move(m->gateIndices);
        pm.replacement =
            rule.instantiateReplacement(m->qubitBinding, m->angleBinding);
        for (std::size_t gi : pm.gateIndices) {
            usedStamp_[gi] = passEpoch_;
            gateMatch_[gi] = pendingMatches_.size();
            const ir::Gate &g = circuit_.gate(gi);
            --pendingCounts_.gates;
            if (g.arity() == 2)
                --pendingCounts_.twoQubit;
            if (ir::isTGate(g.kind))
                --pendingCounts_.tGates;
            if (gateLogCost_)
                pendingFidLogCost_ -= gateLogCost_(g);
        }
        for (const ir::Gate &g : pm.replacement) {
            ++pendingCounts_.gates;
            if (g.arity() == 2)
                ++pendingCounts_.twoQubit;
            if (ir::isTGate(g.kind))
                ++pendingCounts_.tGates;
            if (gateLogCost_)
                pendingFidLogCost_ += gateLogCost_(g);
        }
        pendingMatches_.push_back(std::move(pm));
    }

    if (pendingMatches_.empty()) {
        // With nothing pending, the first anchor matchAt accepted
        // would have been taken: the rule matches nowhere, from any
        // start anchor, until the circuit changes.
        const auto id = static_cast<std::size_t>(rule.id());
        if (id >= noMatchStamp_.size())
            noMatchStamp_.resize(id + 1, 0);
        noMatchStamp_[id] = indexEpoch_;
        noMatchRules_.push_back(&rule);
        return std::nullopt;
    }

    // Emission order: ascending insertPos, discovery order within a
    // position — the legacy multimap semantics.
    emitOrder_.resize(pendingMatches_.size());
    for (std::size_t i = 0; i < emitOrder_.size(); ++i)
        emitOrder_[i] = i;
    std::stable_sort(emitOrder_.begin(), emitOrder_.end(),
                     [this](std::size_t a, std::size_t b) {
                         return pendingMatches_[a].insertPos <
                                pendingMatches_[b].insertPos;
                     });

    Attempt a;
    a.applications = static_cast<int>(pendingMatches_.size());
    a.startAnchor = start_anchor;
    a.counts = pendingCounts_;
    a.fidelityLogCost = pendingFidLogCost_;
    return a;
}

bool
RewriteEngine::admitOnWires(const Match &m)
{
    // The match's first and last gate on each of its wires.
    matchWires_.clear();
    for (std::size_t gi : m.gateIndices) {
        for (int q : circuit_.gate(gi).qubits) {
            auto it = std::find_if(
                matchWires_.begin(), matchWires_.end(),
                [q](const WireSpan &w) { return w.wire == q; });
            if (it == matchWires_.end()) {
                matchWires_.push_back({q, gi, gi});
            } else {
                it->first = std::min(it->first, gi);
                it->last = std::max(it->last, gi);
            }
        }
    }
    // The accepted match holding gate g, if any.
    auto owner = [this](std::size_t g) -> const PendingMatch * {
        if (g == dag::kNoGate || usedStamp_[g] != passEpoch_)
            return nullptr;
        return &pendingMatches_[gateMatch_[g]];
    };
    for (const WireSpan &w : matchWires_) {
        // An earlier-discovered match at the same insertPos is emitted
        // first, so it may only precede this one on the wire.
        const PendingMatch *before = owner(dag_.prev(w.first, w.wire));
        if (before != nullptr && before->insertPos > m.insertPos)
            return false;
        const PendingMatch *after = owner(dag_.next(w.last, w.wire));
        if (after != nullptr && after->insertPos <= m.insertPos)
            return false;
    }
    return true;
}

std::optional<RewriteEngine::Attempt>
RewriteEngine::preparePassRandom(const RewriteRule &rule,
                                 support::Rng &rng)
{
    // Draw-for-draw the legacy applyRulePassRandom: one index draw on
    // a non-empty circuit, none on an empty one.
    const std::size_t anchor =
        circuit_.empty() ? 0 : rng.index(circuit_.size());
    return preparePass(rule, anchor);
}

std::optional<RewriteEngine::Attempt>
RewriteEngine::prepareFusion(ir::GateSetKind set)
{
    if (pending())
        support::panic("RewriteEngine::prepareFusion: a pass is pending");
    if (set == ir::GateSetKind::CliffordT || circuit_.empty())
        return std::nullopt; // finite basis: fuseRun never fires
    if (set != fusionSet_) {
        clearFusionMarks();
        fusionSet_ = set;
    }

    Attempt a;
    a.counts = counts_;
    a.fidelityLogCost = fidLogCost_;
    transpile::OneQubitSeq fused;
    for (int q = 0; q < circuit_.numQubits(); ++q) {
        std::uint8_t &clean = fusionClean_[static_cast<std::size_t>(q)];
        if (clean != 0)
            continue;
        bool shrinks = false;
        forEachRun(circuit_, dag_, q, set, runScratch_,
                   [&](std::span<const ir::Gate *const> run) {
                       if (!transpile::fuseRun(run, set, fused))
                           return;
                       // The rare firing path: deltas for the counts,
                       // allocation is fine here.
                       shrinks = true;
                       ++a.applications;
                       for (const ir::Gate *g : run) {
                           --a.counts.gates;
                           if (ir::isTGate(g->kind))
                               --a.counts.tGates;
                           if (gateLogCost_)
                               a.fidelityLogCost -= gateLogCost_(*g);
                       }
                       for (const ir::Gate &g : fused.gates(q)) {
                           ++a.counts.gates;
                           if (ir::isTGate(g.kind))
                               ++a.counts.tGates;
                           if (gateLogCost_)
                               a.fidelityLogCost += gateLogCost_(g);
                       }
                   });
        clean = shrinks ? 0 : 1;
    }
    if (a.applications == 0)
        return std::nullopt;

    pendingFusion_ = true;
    candidateReady_ = false;
    pendingCounts_ = a.counts;
    pendingFidLogCost_ = a.fidelityLogCost;
    return a;
}

void
RewriteEngine::materializeInto(std::vector<ir::Gate> &out, bool move_gates)
{
    auto &gates = circuit_.gates();
    const std::size_t n = gates.size();
    // resize + element-wise assignment (not clear + push_back) so the
    // buffer and each gate's qubit/param storage are reused when warm.
    out.resize(pendingCounts_.gates);
    std::size_t w = 0;
    std::size_t j = 0;
    for (std::size_t i = 0; i <= n; ++i) {
        while (j < emitOrder_.size() &&
               pendingMatches_[emitOrder_[j]].insertPos == i) {
            for (ir::Gate &g : pendingMatches_[emitOrder_[j]].replacement)
                out[w++] = move_gates ? std::move(g) : g;
            ++j;
        }
        if (i < n && usedStamp_[i] != passEpoch_)
            out[w++] = move_gates ? std::move(gates[i]) : gates[i];
    }
    if (w != out.size())
        support::panic("RewriteEngine: pending gate count mismatch");
}

void
RewriteEngine::describePending(ir::DerivationStep &step)
{
    if (!pending())
        support::panic("RewriteEngine::describePending: no pass is "
                       "pending");
    step.blocks.clear();
    step.order.clear();
    if (pendingFusion_) {
        candidate_ = transpile::fuseOneQubitRuns(circuit_, fusionSet_, &step);
        if (candidate_.counts() != pendingCounts_)
            support::panic("RewriteEngine: fusion verdict diverges "
                           "from fuseOneQubitRuns");
        candidateReady_ = true;
        return;
    }
    step.blocks.reserve(pendingMatches_.size());
    for (const PendingMatch &pm : pendingMatches_) {
        ir::DerivationBlock b;
        b.gates.assign(pm.gateIndices.begin(), pm.gateIndices.end());
        b.replacement = pm.replacement;
        step.blocks.push_back(std::move(b));
    }
    // The emission order of materializeInto, as references.
    const std::size_t n = circuit_.size();
    std::size_t j = 0;
    for (std::size_t i = 0; i <= n; ++i) {
        while (j < emitOrder_.size() &&
               pendingMatches_[emitOrder_[j]].insertPos == i)
            step.emitBlock(emitOrder_[j++]);
        if (i < n && usedStamp_[i] != passEpoch_)
            step.emit(ir::DerivationRun::kKept,
                      static_cast<std::uint32_t>(i));
    }
}

const ir::Circuit &
RewriteEngine::candidate()
{
    if (!pending())
        support::panic("RewriteEngine::candidate: no pass is pending");
    if (!candidateReady_) {
        if (pendingFusion_) {
            candidate_ = transpile::fuseOneQubitRuns(circuit_, fusionSet_);
            if (candidate_.counts() != pendingCounts_)
                support::panic("RewriteEngine: fusion verdict diverges "
                               "from fuseOneQubitRuns");
        } else {
            materializeInto(candidate_.gates(), /*move_gates=*/false);
        }
        candidateReady_ = true;
    }
    return candidate_;
}

void
RewriteEngine::commit()
{
    if (!pending())
        support::panic("RewriteEngine::commit: no pass is pending");
    if (pendingFusion_) {
        // A fusion commits fuseOneQubitRuns' output; the wires it
        // changes are exactly the unmarked ones whose runs shrank. The
        // old gate list is freed, as assign() frees it: the next
        // fusion candidate is built whole, so nothing would reuse it.
        candidate();
        circuit_.gates() = std::move(candidate_.gates());
        candidate_.gates().clear();
    } else {
        // Only the wires a removed or inserted gate touches change
        // their gate sequence; every other fusion mark stays exact.
        for (const PendingMatch &pm : pendingMatches_) {
            for (std::size_t gi : pm.gateIndices)
                for (int q : circuit_.gate(gi).qubits)
                    fusionClean_[static_cast<std::size_t>(q)] = 0;
            for (const ir::Gate &g : pm.replacement)
                for (int q : g.qubits)
                    fusionClean_[static_cast<std::size_t>(q)] = 0;
        }
        if (candidateReady_) {
            // The pass was already materialized for a cost
            // evaluation: adopt it wholesale instead of re-emitting.
            circuit_.gates().swap(candidate_.gates());
        } else {
            materializeInto(gateScratch_, /*move_gates=*/true);
            circuit_.gates().swap(gateScratch_);
        }
    }
    counts_ = pendingCounts_;
    fidLogCost_ = pendingFidLogCost_;
    clearPending();
    reindex();
}

void
RewriteEngine::discard()
{
    clearPending();
}

void
RewriteEngine::clearPending()
{
    pendingMatches_.clear();
    emitOrder_.clear();
    candidateReady_ = false;
    pendingFusion_ = false;
}

void
RewriteEngine::clearFusionMarks()
{
    fusionClean_.assign(static_cast<std::size_t>(circuit_.numQubits()), 0);
}

bool
RewriteEngine::memoizedNoMatch(const RewriteRule &rule) const
{
    const auto id = static_cast<std::size_t>(rule.id());
    return id < noMatchStamp_.size() && noMatchStamp_[id] == indexEpoch_;
}

void
RewriteEngine::forgetNoMatches()
{
    ++indexEpoch_;
    noMatchRules_.clear();
}

void
RewriteEngine::reindex()
{
    forgetNoMatches();
    dag_.rebuild(circuit_);
    for (auto &b : buckets_)
        b.clear();
    const auto &gates = circuit_.gates();
    for (std::size_t i = 0; i < gates.size(); ++i)
        buckets_[static_cast<std::size_t>(gates[i].kind)].push_back(i);
    usedStamp_.resize(gates.size(), 0);
}

void
RewriteEngine::recount()
{
    counts_ = circuit_.counts();
    fidLogCost_ = 0;
    if (gateLogCost_)
        for (const ir::Gate &g : circuit_.gates())
            fidLogCost_ += gateLogCost_(g);
}

void
RewriteEngine::checkInvariants() const
{
    const auto &gates = circuit_.gates();

    if (counts_ != circuit_.counts())
        support::panic("RewriteEngine: cached counts diverge from the "
                       "working circuit");

    if (gateLogCost_) {
        double fresh = 0;
        for (const ir::Gate &g : gates)
            fresh += gateLogCost_(g);
        // Delta-maintained fp sum: allow ulp-scale drift only.
        if (std::abs(fresh - fidLogCost_) >
            1e-9 * std::max(1.0, std::abs(fresh)))
            support::panic("RewriteEngine: cached fidelity log-cost "
                           "diverges from a fresh scan");
    }

    std::size_t bucketed = 0;
    for (std::size_t k = 0; k < buckets_.size(); ++k) {
        std::size_t prev_idx = 0;
        bool first = true;
        for (std::size_t gi : buckets_[k]) {
            if (gi >= gates.size() ||
                gates[gi].kind != static_cast<ir::GateKind>(k))
                support::panic("RewriteEngine: kind bucket entry does "
                               "not match its gate");
            if (!first && gi <= prev_idx)
                support::panic("RewriteEngine: kind bucket not in "
                               "ascending order");
            prev_idx = gi;
            first = false;
            ++bucketed;
        }
    }
    if (bucketed != gates.size())
        support::panic("RewriteEngine: kind buckets do not cover the "
                       "gate list");

    const dag::CircuitDag fresh(circuit_);
    if (dag_.numGates() != fresh.numGates() ||
        dag_.numQubits() != fresh.numQubits())
        support::panic("RewriteEngine: stale wire index shape");
    for (std::size_t i = 0; i < gates.size(); ++i) {
        for (int q : gates[i].qubits) {
            if (dag_.next(i, q) != fresh.next(i, q) ||
                dag_.prev(i, q) != fresh.prev(i, q))
                support::panic("RewriteEngine: stale wire link");
        }
    }

    // A no-match memo is a claim that the rule matches nowhere:
    // re-check it at every anchor.
    MatchScratch scratch;
    for (const RewriteRule *rule : noMatchRules_)
        for (std::size_t gi = 0; gi < gates.size(); ++gi)
            if (matchAt(circuit_, fresh, *rule, gi, scratch))
                support::panic(support::strcat(
                    "RewriteEngine: rule ", rule->name(),
                    " is memoized as matchless but matches at gate ", gi));

    // A clean mark is a claim that no run on the wire shrinks: re-check
    // it from scratch. (Unmarked wires claim nothing.)
    if (fusionClean_.size() != static_cast<std::size_t>(circuit_.numQubits()))
        support::panic("RewriteEngine: fusion marks sized for another "
                       "circuit");
    std::vector<const ir::Gate *> run;
    transpile::OneQubitSeq fused;
    for (int q = 0; q < circuit_.numQubits(); ++q) {
        if (fusionClean_[static_cast<std::size_t>(q)] == 0)
            continue;
        forEachRun(circuit_, fresh, q, fusionSet_, run,
                   [&](std::span<const ir::Gate *const> r) {
                       if (transpile::fuseRun(r, fusionSet_, fused))
                           support::panic(support::strcat(
                               "RewriteEngine: wire ", q,
                               " is marked fusion-clean but holds a "
                               "shrinkable 1q run"));
                   });
    }
}

void
applyRulesToFixpoint(RewriteEngine &engine,
                     const std::vector<RewriteRule> &rules, int max_rounds)
{
    for (int round = 0; round < max_rounds; ++round) {
        int fired = 0;
        for (const RewriteRule &rule : rules) {
            if (engine.preparePass(rule, 0)) {
                fired += 1;
                engine.commit();
            }
        }
        if (fired == 0)
            break;
    }
}

ir::Circuit
applyRulesToFixpoint(const ir::Circuit &c,
                     const std::vector<RewriteRule> &rules, int max_rounds)
{
    RewriteEngine engine{ir::Circuit(c)};
    applyRulesToFixpoint(engine, rules, max_rounds);
    return engine.release();
}

} // namespace rewrite
} // namespace guoq
