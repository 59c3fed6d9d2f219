#include "rewrite/engine.h"

#include <algorithm>
#include <bit>
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

/** One step of the fusion memo's key hash. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t w)
{
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 29);
}

} // namespace

bool
FusionMemo::shrinks(std::span<const ir::Gate *const> run,
                    ir::GateSetKind set, transpile::OneQubitSeq &fused)
{
    std::size_t words = 1 + run.size();
    for (const ir::Gate *g : run)
        words += g->params.size();
    if (words > kMaxKeyWords)
        return transpile::fuseRun(run, set, fused);
    if (slots_.empty()) {
        slots_.resize(kSlots);
        keys_.reserve(kMaxKeyWords);
        probe_.reserve(kMaxKeyWords);
    }
    probe_.clear();
    probe_.push_back(static_cast<std::uint64_t>(set) |
                     (static_cast<std::uint64_t>(run.size()) << 8));
    for (const ir::Gate *g : run) {
        probe_.push_back(static_cast<std::uint64_t>(g->kind));
        for (const double p : g->params)
            probe_.push_back(std::bit_cast<std::uint64_t>(p));
    }
    std::uint64_t h = 0;
    for (const std::uint64_t w : probe_)
        h = mix(h, w);

    std::size_t i = h & (kSlots - 1);
    for (; slots_[i].keyWords != 0; i = (i + 1) & (kSlots - 1)) {
        const Slot &s = slots_[i];
        if (s.hash == h && s.keyWords == words &&
            std::equal(probe_.begin(), probe_.end(),
                       keys_.begin() + s.keyBegin))
            // Only a shrinking run needs the refit itself.
            return s.shrinks && transpile::fuseRun(run, set, fused);
    }

    const bool verdict = transpile::fuseRun(run, set, fused);
    if (size_ == kMaxEntries || keys_.size() + words > kMaxKeyWords) {
        clear();
        i = h & (kSlots - 1);
    }
    slots_[i] = {h, static_cast<std::uint32_t>(keys_.size()),
                 static_cast<std::uint32_t>(words), verdict};
    keys_.insert(keys_.end(), probe_.begin(), probe_.end());
    ++size_;
    return verdict;
}

void
FusionMemo::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    keys_.clear();
    size_ = 0;
}

void
FusionMemo::checkInvariants() const
{
    std::size_t stored = 0;
    std::vector<ir::Gate> gates;
    std::vector<const ir::Gate *> run;
    transpile::OneQubitSeq fused;
    for (const Slot &s : slots_) {
        if (s.keyWords == 0)
            continue;
        ++stored;
        const std::uint64_t *k = keys_.data() + s.keyBegin;
        const std::uint64_t *end = k + s.keyWords;
        const auto set = static_cast<ir::GateSetKind>(*k & 0xff);
        const std::size_t length = *k++ >> 8;
        gates.clear();
        for (std::size_t j = 0; j < length; ++j) {
            const auto kind = static_cast<ir::GateKind>(*k++);
            std::array<double, ir::kMaxGateArgs> params{};
            const auto np = static_cast<std::size_t>(
                ir::gateParamCount(kind));
            for (std::size_t p = 0; p < np; ++p)
                params[p] = std::bit_cast<double>(*k++);
            gates.emplace_back(kind, std::initializer_list<int>{0},
                               std::span<const double>(params.data(), np));
        }
        if (k != end)
            support::panic("FusionMemo: a key's length disagrees with "
                           "its gates");
        run.clear();
        for (const ir::Gate &g : gates)
            run.push_back(&g);
        if (transpile::fuseRun(run, set, fused) != s.shrinks)
            support::panic("FusionMemo: a stored verdict diverges from "
                           "fuseRun");
    }
    if (stored != size_)
        support::panic("FusionMemo: entry count diverges from the table");
}

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
    const std::span<const std::size_t> anchors =
        bucket(rule.pattern().front().kind);
    const auto split = static_cast<std::size_t>(
        std::lower_bound(anchors.begin(), anchors.end(), start_anchor) -
        anchors.begin());

    const Match &m = scratch_.match;
    for (std::size_t off = 0; off < anchors.size(); ++off) {
        const std::size_t pos = split + off;
        const std::size_t anchor =
            anchors[pos < anchors.size() ? pos : pos - anchors.size()];
        if (usedStamp_[anchor] == passEpoch_ ||
            !secondGateAdmits(circuit_, dag_, rule, anchor))
            continue;
        if (!matchAt(circuit_, dag_, rule, anchor, scratch_))
            continue;
        bool overlap = false;
        for (std::size_t gi : m.gateIndices) {
            if (usedStamp_[gi] == passEpoch_) {
                overlap = true;
                break;
            }
        }
        if (overlap)
            continue;
        if (!admitOnWires(m))
            continue;
        PendingMatch pm;
        pm.insertPos = m.insertPos;
        pm.gatesBegin = pendingGates_.size();
        pendingGates_.insert(pendingGates_.end(), m.gateIndices.begin(),
                             m.gateIndices.end());
        pm.gatesEnd = pendingGates_.size();
        pm.replBegin = pendingRepl_.size();
        rule.instantiateReplacement(m.qubitBinding, m.angleBinding,
                                    pendingRepl_);
        pm.replEnd = pendingRepl_.size();
        for (std::size_t gi : gatesOf(pm)) {
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
        for (const ir::Gate &g : replacementOf(pm)) {
            ++pendingCounts_.gates;
            if (g.arity() == 2)
                ++pendingCounts_.twoQubit;
            if (ir::isTGate(g.kind))
                ++pendingCounts_.tGates;
            if (gateLogCost_)
                pendingFidLogCost_ += gateLogCost_(g);
        }
        pendingMatches_.push_back(pm);
    }

    if (pendingMatches_.empty()) {
        // With nothing pending, the first anchor matchAt accepted
        // would have been taken: the rule matches nowhere, from any
        // start anchor, until the circuit changes.
        const auto id = static_cast<std::size_t>(rule.id());
        if (id >= noMatchStamp_.size()) {
            noMatchStamp_.resize(id + 1, 0);
            // Each rule id is listed at most once per epoch.
            noMatchRules_.reserve(noMatchStamp_.size());
        }
        noMatchStamp_[id] = indexEpoch_;
        noMatchRules_.push_back(&rule);
        return std::nullopt;
    }

    // Emission order: ascending insertPos, discovery order within a
    // position — the legacy multimap semantics. (std::sort on the pair
    // is std::stable_sort's order without its temporary buffer.)
    emitOrder_.resize(pendingMatches_.size());
    for (std::size_t i = 0; i < emitOrder_.size(); ++i)
        emitOrder_[i] = i;
    std::sort(emitOrder_.begin(), emitOrder_.end(),
              [this](std::size_t a, std::size_t b) {
                  const std::size_t pa = pendingMatches_[a].insertPos;
                  const std::size_t pb = pendingMatches_[b].insertPos;
                  return pa < pb || (pa == pb && a < b);
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
    runScratch_.reserve(circuit_.size());
    transpile::OneQubitSeq fused;
    for (int q = 0; q < circuit_.numQubits(); ++q) {
        std::uint8_t &clean = fusionClean_[static_cast<std::size_t>(q)];
        if (clean != 0)
            continue;
        bool shrinks = false;
        forEachRun(circuit_, dag_, q, set, runScratch_,
                   [&](std::span<const ir::Gate *const> run) {
                       if (!fusionMemo_.shrinks(run, set, fused))
                           return;
                       // The rare firing path: deltas for the counts.
                       shrinks = true;
                       ++a.applications;
                       for (const ir::Gate *g : run) {
                           --a.counts.gates;
                           if (ir::isTGate(g->kind))
                               --a.counts.tGates;
                           if (gateLogCost_)
                               a.fidelityLogCost -= gateLogCost_(*g);
                       }
                       for (std::size_t k = 0; k < fused.size; ++k) {
                           const ir::Gate g = fused.gate(k, q);
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
RewriteEngine::materializeInto(std::vector<ir::Gate> &out) const
{
    const auto &gates = circuit_.gates();
    const std::size_t n = gates.size();
    out.resize(pendingCounts_.gates);
    std::size_t w = 0;
    std::size_t j = 0;
    for (std::size_t i = 0; i <= n; ++i) {
        while (j < emitOrder_.size() &&
               pendingMatches_[emitOrder_[j]].insertPos == i) {
            for (const ir::Gate &g :
                 replacementOf(pendingMatches_[emitOrder_[j]]))
                out[w++] = g;
            ++j;
        }
        if (i < n && usedStamp_[i] != passEpoch_)
            out[w++] = gates[i];
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
        b.gates.assign(gatesOf(pm).begin(), gatesOf(pm).end());
        b.replacement.assign(replacementOf(pm).begin(),
                             replacementOf(pm).end());
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
            materializeInto(candidate_.gates());
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
        for (std::size_t gi : pendingGates_)
            for (int q : circuit_.gate(gi).qubits)
                fusionClean_[static_cast<std::size_t>(q)] = 0;
        for (const ir::Gate &g : pendingRepl_)
            for (int q : g.qubits)
                fusionClean_[static_cast<std::size_t>(q)] = 0;
        if (candidateReady_) {
            // The pass was already materialized for a cost
            // evaluation: adopt it wholesale instead of re-emitting.
            circuit_.gates().swap(candidate_.gates());
        } else {
            materializeInto(gateScratch_);
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
    pendingGates_.clear();
    pendingRepl_.clear();
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
    // Counting sort into the flat buckets: ascending within each kind.
    const auto &gates = circuit_.gates();
    bucketStart_.fill(0);
    for (const ir::Gate &g : gates)
        ++bucketStart_[static_cast<std::size_t>(g.kind) + 1];
    for (std::size_t k = 0; k < kNumKinds; ++k)
        bucketStart_[k + 1] += bucketStart_[k];
    bucketGates_.resize(gates.size());
    std::array<std::size_t, kNumKinds> fill{};
    std::copy(bucketStart_.begin(), bucketStart_.end() - 1, fill.begin());
    for (std::size_t i = 0; i < gates.size(); ++i)
        bucketGates_[fill[static_cast<std::size_t>(gates[i].kind)]++] = i;
    usedStamp_.resize(gates.size(), 0);
    // A pass consumes each gate at most once, so the pending-pass
    // arenas hold at most n entries (and n replacement gates unless a
    // rule grows the circuit; no library rule does): reserving them
    // here keeps passes on a circuit that does not grow allocation-free.
    pendingMatches_.reserve(gates.size());
    pendingGates_.reserve(gates.size());
    pendingRepl_.reserve(gates.size());
    emitOrder_.reserve(gates.size());
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

    if (bucketStart_[0] != 0 || bucketStart_[kNumKinds] != gates.size() ||
        bucketGates_.size() != gates.size())
        support::panic("RewriteEngine: kind buckets do not cover the "
                       "gate list");
    for (std::size_t k = 0; k < kNumKinds; ++k) {
        std::size_t prev_idx = 0;
        bool first = true;
        for (std::size_t gi : bucket(static_cast<ir::GateKind>(k))) {
            if (gi >= gates.size() ||
                gates[gi].kind != static_cast<ir::GateKind>(k))
                support::panic("RewriteEngine: kind bucket entry does "
                               "not match its gate");
            if (!first && gi <= prev_idx)
                support::panic("RewriteEngine: kind bucket not in "
                               "ascending order");
            prev_idx = gi;
            first = false;
        }
    }

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

    fusionMemo_.checkInvariants();

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
