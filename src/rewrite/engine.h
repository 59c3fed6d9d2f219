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
 *   circuit_  ──┬── dag_      (CircuitDag, rebuilt in place, no alloc)
 *               └── buckets_  (GateKind -> ascending gate indices)
 *
 *   preparePass(rule)  probe only buckets_[pattern[0].kind], in the
 *                      legacy cyclic anchor order   — O(bucket·|pat|)
 *   commit()           one compaction sweep + reindex — O(n), accepted
 *                      passes only
 *   discard()          drop the pending pass          — O(matches)
 *
 * so a *rejected* attempt (the overwhelming majority in a Metropolis
 * search) costs bucket probes instead of several full-circuit passes,
 * and gate/2q/T counters (plus the fidelity log-cost sum, when
 * configured) are maintained as deltas from the removed/inserted gate
 * lists instead of re-scanned.
 *
 * Equivalence contract: for any (circuit, rule, anchor), a
 * preparePass + commit yields bit-for-bit the gate list of the legacy
 * applyRulePass, and preparePassRandom consumes exactly the same RNG
 * draws as applyRulePassRandom — tests/test_rewrite_engine.cc holds
 * the two implementations to that differentially.
 */

#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "dag/circuit_dag.h"
#include "ir/circuit.h"
#include "rewrite/matcher.h"
#include "rewrite/rule.h"
#include "support/rng.h"

namespace guoq {
namespace rewrite {

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

    /** Replace the working circuit wholesale (fusion/resynth accepts). */
    void assign(ir::Circuit c);

    /** Move the working circuit out; the engine is then empty. */
    ir::Circuit release();

    /** A prepared (not yet applied) rule pass. */
    struct Attempt
    {
        int applications = 0;       //!< matches recorded by the pass
        std::size_t startAnchor = 0; //!< anchor the pass started from
        ir::CircuitCounts counts;   //!< counts *after* the pass
        double fidelityLogCost = 0; //!< cached sum after the pass
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

    /** True while a prepared pass awaits commit()/discard(). */
    bool pending() const { return !pendingMatches_.empty(); }

    /**
     * The circuit the pending pass would produce, materialized lazily
     * (count-based objectives never need it). Valid until the pass is
     * resolved.
     */
    const ir::Circuit &candidate();

    /** Apply the pending pass to the working circuit and reindex. */
    void commit();

    /** Drop the pending pass; the working circuit is untouched. */
    void discard();

    /**
     * Revalidate every cached structure — wire links, kind buckets,
     * counters — against a fresh scan of the working circuit. Panics
     * (support::panic) on any corruption; used by the test suite after
     * splices and by debugging sessions.
     */
    void checkInvariants() const;

  private:
    void reindex();
    void recount();
    /**
     * Emit the pending pass into @p out, replicating the legacy
     * rebuild: at each original position, first the replacement blocks
     * whose insertPos equals it (in discovery order), then the
     * original gate when unmatched. @p move_gates moves rather than
     * copies both sources (commit path).
     */
    void materializeInto(std::vector<ir::Gate> &out, bool move_gates);
    void clearPending();

    ir::Circuit circuit_;
    dag::CircuitDag dag_;
    std::array<std::vector<std::size_t>,
               static_cast<std::size_t>(ir::GateKind::NumKinds)>
        buckets_;
    ir::CircuitCounts counts_;
    double fidLogCost_ = 0;
    std::function<double(const ir::Gate &)> gateLogCost_;

    MatchScratch scratch_;

    // Pending pass state. usedStamp_[i] == passEpoch_ marks gate i as
    // consumed by the pending (or most recent) pass.
    struct PendingMatch
    {
        std::size_t insertPos = 0;
        std::vector<std::size_t> gateIndices;
        std::vector<ir::Gate> replacement;
    };
    std::vector<PendingMatch> pendingMatches_;
    std::vector<std::uint64_t> usedStamp_;
    std::uint64_t passEpoch_ = 0;
    ir::CircuitCounts pendingCounts_;
    double pendingFidLogCost_ = 0;
    std::vector<std::size_t> emitOrder_; // pending sorted by insertPos
    ir::Circuit candidate_;
    bool candidateReady_ = false;
    std::vector<ir::Gate> gateScratch_; // commit compaction buffer
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
