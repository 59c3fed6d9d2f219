/**
 * @file
 * The incremental rewrite engine: the one production rule pass (paper
 * §5.3: a full pass from an anchor, replacing every disjoint match),
 * behind the GUOQ loop, Transformation::apply, applyRulesToFixpoint,
 * and the baselines.
 *
 * The legacy pass (reference/applier.cc, a test/bench-only oracle)
 * pays O(n) several times per *attempt*: it builds a fresh Matcher
 * (full CircuitDag), probes all n anchors even when the gate kind
 * cannot match the rule's first pattern gate, and rebuilds the whole
 * circuit through a std::multimap. The engine instead owns the
 * working circuit together with a persistent wire index and
 * per-GateKind anchor buckets:
 *
 *   circuit_  ──┬── dag_         (CircuitDag, rebuilt in place)
 *               ├── buckets      (GateKind -> ascending gate indices,
 *               │                 one flat counting-sorted array)
 *               ├── fusionClean_ (per wire: "no 1q run here shrinks")
 *               └── fusionMemo_  (run content -> fuseRun verdict;
 *                                 outlives the circuit)
 *
 *   preparePass(rule)  O(1) when the rule's last pass since the
 *                      last reindex() found no match (the no-match
 *                      memo); otherwise probe the bucket of
 *                      pattern[0].kind in the legacy cyclic anchor
 *                      order, calling matchAt only on anchors that
 *                      pass the O(1) second-gate check (matcher.h
 *                      secondGateAdmits)            — O(bucket) +
 *                                                     O(admitted·|pat|)
 *   prepareFusion(set) look up the 1q runs on wires not marked clean
 *                      in the fusion memo; refit only runs never seen
 *                      or known to shrink           — O(dirty wires)
 *   commit()           one compaction sweep + a full reindex() of
 *                      dag_ and the buckets — O(n), accepted moves
 *                      only; clears the fusion mark of every wire a
 *                      removed or inserted gate touches
 *   discard()          drop the pending move        — O(1)
 *
 * so a *rejected* attempt (the overwhelming majority in a Metropolis
 * search) costs bucket probes instead of several full-circuit passes,
 * and a pass that fires nowhere costs one lookup until a commit or
 * assign changes the circuit,
 * and gate/2q/T counters (plus the fidelity log-cost sum, when
 * configured) are maintained as deltas from the removed/inserted gate
 * lists instead of re-scanned.
 *
 * None of this allocates once warm, on a circuit that does not grow:
 * ir::Gate holds its qubits and params inline, matchAt builds its
 * match in MatchScratch, a pass's matched gate indices and
 * replacement gates go to two arenas reused by every pass, and every
 * index buffer only grows (tests/test_engine_alloc.cc counts the
 * calls to operator new). Only committing a fusion builds a new
 * gate list.
 *
 * Measured on the ε = 0 GUOQ loop (perfbench exact_rewrite, seed 1,
 * gprof): 89% of passes find no match, and the two filters cut
 * matchAt calls from 49.9M to 6.1M over the same 2.0M passes. They
 * are exact, not heuristic: the second-gate check rejects only
 * anchors where matchAt's own search for pattern gate 1 fails, and a
 * pass with nothing pending has seen matchAt fail at every anchor,
 * which no start anchor changes. A Rete-style index of matching
 * anchors, repaired after each commit, was tried and dropped: its
 * repairs cost more matchAt calls than it saved. With the filters
 * and the flat loop in place, commit() (the compaction sweep,
 * CircuitDag::rebuild and the bucket sort) is the largest remaining
 * share of the loop; a commit that splices the index locally instead
 * was tried too, but wire-adjacent gates lie far apart in the gate
 * list, so its windows span most of the circuit.
 *
 * The fusion marks are exact rather than heuristic: a wire's 1q runs,
 * and so their fusion verdicts (transpile::fuseRun), depend only on
 * the gate sequence of that wire, and a commit leaves the sequence of
 * every wire it does not touch unchanged. assign() and release()
 * clear every mark, and so does a prepareFusion for another gate set.
 * The fusion memo is exact for the same reason: a verdict depends
 * only on the run's gate set, kinds and param bits, which form its
 * key, so it stays valid across commits and assign(). GUOQ draws the
 * same few hundred distinct runs millions of times, so almost every
 * lookup hits.
 *
 * Equivalence contract: for any (circuit, rule, anchor), a
 * preparePass + commit yields bit-for-bit the gate list of the legacy
 * applyRulePass, and preparePassRandom consumes exactly the same RNG
 * draws as applyRulePassRandom — tests/test_rewrite_engine.cc holds
 * the two implementations to that differentially. For fusion, a
 * prepareFusion fires exactly when transpile::fuseOneQubitRuns shrinks
 * the circuit, and its candidate is that function's output.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "dag/circuit_dag.h"
#include "ir/circuit.h"
#include "ir/derivation.h"
#include "ir/gate_set.h"
#include "rewrite/matcher.h"
#include "rewrite/rule.h"
#include "support/rng.h"
#include "transpile/decompose.h"

namespace guoq {
namespace rewrite {

/**
 * Memoized transpile::fuseRun verdicts. The key is a run's exact
 * content: the gate set, the length, each gate's kind and the bit
 * pattern of each param. A verdict does not depend on the wire, so
 * equal runs on any wire or circuit share one entry. Every hit
 * compares the full key. The table and the key store have a fixed
 * capacity, reserved on first use, and the memo is cleared when
 * either is full, so it never allocates after that first use.
 */
class FusionMemo
{
  public:
    /** Verdicts held before the memo clears itself. */
    static constexpr std::size_t kMaxEntries = 512;

    /**
     * fuseRun(@p run, @p set, @p fused), memoized: a stored "does not
     * shrink" verdict returns false without refitting (and leaves
     * @p fused unspecified); a stored "shrinks" verdict recomputes
     * fuseRun to fill @p fused.
     */
    bool shrinks(std::span<const ir::Gate *const> run, ir::GateSetKind set,
                 transpile::OneQubitSeq &fused);

    /** Verdicts currently stored. */
    std::size_t size() const { return size_; }

    /**
     * Re-derive every stored verdict through fuseRun from its key;
     * panics (support::panic) on any disagreement.
     */
    void checkInvariants() const;

  private:
    static constexpr std::size_t kSlots = 2 * kMaxEntries; // power of 2
    static constexpr std::size_t kMaxKeyWords = 16 * kMaxEntries;

    struct Slot
    {
        std::uint64_t hash = 0;
        std::uint32_t keyBegin = 0; //!< into keys_
        std::uint32_t keyWords = 0; //!< 0: the slot is empty
        bool shrinks = false;
    };

    void clear();

    // Open addressing with linear probing over slots_; each slot's key
    // is a range of keys_. A key is the word (set | length << 8), then
    // per gate its kind and the bits of its params.
    std::vector<Slot> slots_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> probe_; //!< the key being looked up
    std::size_t size_ = 0;
};

/** The incremental pass applier (see file comment). */
class RewriteEngine
{
  public:
    /** Take ownership of @p c and index it. */
    explicit RewriteEngine(ir::Circuit c);

    /** The working circuit (always index-consistent). */
    const ir::Circuit &circuit() const { return circuit_; }

    /** Cached count metrics of circuit() — O(1). */
    const ir::CircuitCounts &counts() const { return counts_; }

    /**
     * Cached Σ -log(1-err) over circuit() (0 unless setGateLogCost was
     * called). Maintained by floating-point deltas, so it can drift by
     * ulps from a fresh scan over a long run — informational, not used
     * for accept decisions.
     */
    double fidelityLogCost() const { return fidLogCost_; }

    /**
     * Configure the per-gate -log(1-err) weight for the cached
     * fidelity log-cost sum, and (re)initialize the sum by one scan.
     */
    void setGateLogCost(std::function<double(const ir::Gate &)> fn);

    /** Replace the working circuit wholesale (resynthesis accepts). */
    void assign(ir::Circuit c);

    /** Move the working circuit out; the engine is then empty. */
    ir::Circuit release();

    /** A prepared (not yet applied) rule pass or fusion move. */
    struct Attempt
    {
        int applications = 0;       //!< matches (fusion: runs) replaced
        std::size_t startAnchor = 0; //!< anchor the pass started from
        ir::CircuitCounts counts;   //!< counts *after* the move
        double fidelityLogCost = 0; //!< cached sum after the move
    };

    /**
     * Run one full rule pass from @p start_anchor in the legacy cyclic
     * anchor order, recording every non-overlapping match, without
     * touching the working circuit. Returns std::nullopt (and leaves
     * nothing pending) when no match fires. The pass must then be
     * resolved with commit() or discard() before the next one.
     */
    std::optional<Attempt> preparePass(const RewriteRule &rule,
                                       std::size_t start_anchor);

    /**
     * preparePass from a random anchor, consuming exactly the RNG
     * draws of the legacy applyRulePassRandom (one index draw when the
     * circuit is non-empty, none when empty).
     */
    std::optional<Attempt> preparePassRandom(const RewriteRule &rule,
                                             support::Rng &rng);

    /**
     * The 1q-fusion move (transpile::fuseOneQubitRuns) as a prepared
     * attempt: refits the 1q runs of every wire not marked clean, marks
     * the wires where no run shrinks, and returns std::nullopt (nothing
     * pending) when no run anywhere shrinks — exactly when
     * fuseOneQubitRuns would not shrink the circuit. Otherwise the
     * move is pending like a rule pass; its candidate() is
     * fuseOneQubitRuns' output. Clifford+T never fires.
     */
    std::optional<Attempt> prepareFusion(ir::GateSetKind set);

    /** True while a prepared move awaits commit()/discard(). */
    bool pending() const
    {
        return !pendingMatches_.empty() || pendingFusion_;
    }

    /** The fusion-verdict memo (survives assign()). */
    const FusionMemo &fusionMemo() const { return fusionMemo_; }

    /**
     * Describe the pending move as a derivation step (its blocks and
     * post-step gate order; the caller sets the parent), before
     * commit() moves the replacement gates away. A fusion move also
     * materializes candidate() on the way.
     */
    void describePending(ir::DerivationStep &step);

    /**
     * The circuit the pending move would produce, materialized lazily
     * (count-based objectives never need it). Valid until the move is
     * resolved.
     */
    const ir::Circuit &candidate();

    /** Apply the pending move to the working circuit and reindex. */
    void commit();

    /** Drop the pending move; the working circuit is untouched. */
    void discard();

    /**
     * Revalidate every cached structure — wire links, kind buckets,
     * counters, fusion marks, the no-match memo — against a fresh scan
     * of the working circuit. Panics (support::panic) on any
     * corruption; used by the test suite after splices and by
     * debugging sessions. Every rule memoized as matchless since the
     * last reindex is matched again, so those rules must still be
     * alive.
     */
    void checkInvariants() const;

  private:
    static constexpr std::size_t kNumKinds =
        static_cast<std::size_t>(ir::GateKind::NumKinds);

    /** Ascending indices of the gates of kind @p k. */
    std::span<const std::size_t>
    bucket(ir::GateKind k) const
    {
        const auto i = static_cast<std::size_t>(k);
        return {bucketGates_.data() + bucketStart_[i],
                bucketStart_[i + 1] - bucketStart_[i]};
    }

    /** True when @p rule's last pass since reindex() matched nothing. */
    bool memoizedNoMatch(const RewriteRule &rule) const;
    void forgetNoMatches();
    void reindex();
    void recount();
    void clearFusionMarks();
    /**
     * Emit the pending pass into @p out, replicating the legacy
     * rebuild: at each original position, first the replacement blocks
     * whose insertPos equals it (in discovery order), then the
     * original gate when unmatched.
     */
    void materializeInto(std::vector<ir::Gate> &out) const;
    void clearPending();
    /**
     * The pass's wire-order guard. The pass emits its replacements by
     * (insertPos, discovery order), so match @p m keeps every wire's
     * order only if each accepted match it shares a wire with is
     * emitted before it exactly when it comes first on that wire. Only
     * the gates right before and after @p m on each wire need a look:
     * the accepted matches already agree among themselves, and one
     * separated from @p m by a gate of no accepted match is ordered by
     * the splice windows (matcher.h), which put that gate between the
     * two insertPos values. True when @p m passes.
     */
    bool admitOnWires(const Match &m);

    ir::Circuit circuit_;
    dag::CircuitDag dag_;
    // Kind buckets, flat: the gates of kind k are
    // bucketGates_[bucketStart_[k] .. bucketStart_[k + 1]).
    std::vector<std::size_t> bucketGates_;
    std::array<std::size_t, kNumKinds + 1> bucketStart_{};
    ir::CircuitCounts counts_;
    double fidLogCost_ = 0;
    std::function<double(const ir::Gate &)> gateLogCost_;

    MatchScratch scratch_;

    // No-match memo: noMatchStamp_[rule.id()] == indexEpoch_ marks a
    // rule whose pass found no match since the last reindex(), which
    // bumps indexEpoch_. noMatchRules_ lists those rules for
    // checkInvariants.
    std::vector<std::uint64_t> noMatchStamp_;
    std::uint64_t indexEpoch_ = 0;
    std::vector<const RewriteRule *> noMatchRules_;

    // Pending pass state. usedStamp_[i] == passEpoch_ marks gate i as
    // consumed by the pending (or most recent) pass. Each match's gate
    // indices and replacement gates are ranges of two arenas that
    // every pass reuses.
    struct PendingMatch
    {
        std::size_t insertPos = 0;
        std::size_t gatesBegin = 0; //!< into pendingGates_
        std::size_t gatesEnd = 0;
        std::size_t replBegin = 0;  //!< into pendingRepl_
        std::size_t replEnd = 0;
    };
    std::span<const std::size_t>
    gatesOf(const PendingMatch &pm) const
    {
        return {pendingGates_.data() + pm.gatesBegin,
                pm.gatesEnd - pm.gatesBegin};
    }
    std::span<const ir::Gate>
    replacementOf(const PendingMatch &pm) const
    {
        return {pendingRepl_.data() + pm.replBegin,
                pm.replEnd - pm.replBegin};
    }
    std::vector<PendingMatch> pendingMatches_;
    std::vector<std::size_t> pendingGates_;
    std::vector<ir::Gate> pendingRepl_;
    std::vector<std::uint64_t> usedStamp_;
    std::uint64_t passEpoch_ = 0;
    ir::CircuitCounts pendingCounts_;
    double pendingFidLogCost_ = 0;
    std::vector<std::size_t> emitOrder_; // pending sorted by insertPos
    std::vector<std::size_t> gateMatch_; // used gate -> pendingMatches_ index
    // The match being admitted: its first and last gate on each wire.
    struct WireSpan
    {
        int wire = 0;
        std::size_t first = 0;
        std::size_t last = 0;
    };
    std::vector<WireSpan> matchWires_;
    ir::Circuit candidate_;
    bool candidateReady_ = false;
    std::vector<ir::Gate> gateScratch_; // commit compaction buffer

    // Fusion state. fusionClean_[q] != 0 marks wire q as holding no 1q
    // run that shrinks under fusionSet_.
    std::vector<std::uint8_t> fusionClean_;
    ir::GateSetKind fusionSet_ = ir::GateSetKind::Nam;
    bool pendingFusion_ = false;
    std::vector<const ir::Gate *> runScratch_;
    FusionMemo fusionMemo_;
};

/**
 * Repeatedly sweep all of @p rules (in order, anchor 0) over the
 * engine's working circuit, committing every pass that fires, until
 * a sweep fires nothing or @p max_rounds is hit — the fixed-sequence
 * baseline engine. No pass may be pending on entry.
 */
void applyRulesToFixpoint(RewriteEngine &engine,
                          const std::vector<RewriteRule> &rules,
                          int max_rounds = 64);

/** applyRulesToFixpoint on a fresh engine over a copy of @p c. */
ir::Circuit applyRulesToFixpoint(const ir::Circuit &c,
                                 const std::vector<RewriteRule> &rules,
                                 int max_rounds = 64);

} // namespace rewrite
} // namespace guoq
