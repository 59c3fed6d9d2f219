/**
 * @file
 * The incremental rewrite engine's contract (PR-010):
 *
 *  - differential: for randomized circuits over all five rule
 *    libraries, every (rule, anchor) pass through the engine produces
 *    gate-for-gate the legacy applyRulePass result, both committed
 *    and as a materialized-but-uncommitted candidate;
 *  - RNG equivalence: preparePassRandom and the production
 *    Transformation::apply rule pass consume exactly the draws of
 *    applyRulePassRandom and produce its circuit;
 *  - invariants: wire links, kind buckets, and cached counters are
 *    revalidated after every splice (checkInvariants death tests
 *    cover corruption);
 *  - determinism pins: fixed-seed single-thread core::optimize()
 *    fingerprints captured on the pre-engine implementation — the
 *    engine swap must be bit-for-bit invisible;
 *  - fixpoint: the engine-backed applyRulesToFixpoint equals a local
 *    replica of the legacy round-robin loop;
 *  - fusion: under random interleavings of rule passes, fusion moves
 *    and wholesale assigns, every prepareFusion verdict equals
 *    transpile::fuseOneQubitRuns, and the per-wire fusion marks
 *    survive a from-scratch re-check after every step;
 *  - skipped probes: the compiled second-gate check admits every
 *    anchor where matchAt succeeds, and the per-rule no-match memo
 *    lasts exactly until the circuit changes.
 */

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/guoq.h"
#include "core/transformation.h"
#include "fidelity/error_model.h"
#include "reference/applier.h"
#include "rewrite/engine.h"
#include "rewrite/rule.h"
#include "sim/statevector.h"
#include "support/rng.h"
#include "tests/test_util.h"
#include "transpile/to_gate_set.h"
#include "workloads/suite.h"
#include "workloads/variational.h"

namespace {

using namespace guoq;

const std::vector<ir::GateSetKind> kAllSets = {
    ir::GateSetKind::Nam,      ir::GateSetKind::Ibmq20,
    ir::GateSetKind::IbmEagle, ir::GateSetKind::IonQ,
    ir::GateSetKind::CliffordT,
};

/** Gate-list equality with a readable failure message. */
::testing::AssertionResult
sameGates(const ir::Circuit &a, const ir::Circuit &b)
{
    if (a.gates() == b.gates())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "circuits differ:\n"
           << a.toString() << "--- vs ---\n"
           << b.toString();
}

// ---------------------------------------------------------------------
// Differential: engine pass == legacy pass, per accepted application.
// ---------------------------------------------------------------------

TEST(RewriteEngineDifferential, EveryPassMatchesLegacyAcrossAllSets)
{
    for (const ir::GateSetKind set : kAllSets) {
        const auto &rules = rewrite::rulesFor(set);
        support::Rng rng(42 + static_cast<std::uint64_t>(set));
        for (int round = 0; round < 3; ++round) {
            ir::Circuit c = testutil::randomNativeCircuit(
                set, 5, 60 + 20 * round, rng);
            rewrite::RewriteEngine engine{ir::Circuit(c)};
            int committed = 0;
            for (int step = 0; step < 200; ++step) {
                const rewrite::RewriteRule &rule =
                    rules[rng.index(rules.size())];
                const std::size_t anchor =
                    c.empty() ? 0 : rng.index(c.size());
                rewrite::PassResult legacy =
                    rewrite::applyRulePass(c, rule, anchor);
                auto att = engine.preparePass(rule, anchor);
                if (legacy.applications == 0) {
                    ASSERT_FALSE(att.has_value())
                        << rule.name() << " anchor " << anchor;
                    continue;
                }
                ASSERT_TRUE(att.has_value())
                    << rule.name() << " anchor " << anchor;
                EXPECT_EQ(att->applications, legacy.applications);
                // The lazily materialized candidate is the legacy
                // circuit, and committing adopts it.
                EXPECT_TRUE(sameGates(engine.candidate(),
                                      legacy.circuit));
                EXPECT_EQ(att->counts, legacy.circuit.counts());
                engine.commit();
                ++committed;
                c = legacy.circuit;
                ASSERT_TRUE(sameGates(engine.circuit(), c));
                if (committed % 8 == 0)
                    engine.checkInvariants();
            }
            engine.checkInvariants();
            EXPECT_GT(committed, 0) << "no rule ever fired for set "
                                    << ir::gateSetName(set);
        }
    }
}

TEST(RewriteEngineDifferential, RandomAnchorConsumesSameDraws)
{
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    const auto &rules = rewrite::rulesFor(set);
    support::Rng build(7);
    ir::Circuit c = testutil::randomNativeCircuit(set, 6, 80, build);

    // Three inputs in lockstep: the legacy pass, the engine, and the
    // production Transformation::apply (a fresh engine per pass).
    support::Rng rng_legacy(99);
    support::Rng rng_engine(99);
    support::Rng rng_apply(99);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    for (int step = 0; step < 300; ++step) {
        const std::size_t ri = rng_legacy.index(rules.size());
        ASSERT_EQ(ri, rng_engine.index(rules.size()));
        ASSERT_EQ(ri, rng_apply.index(rules.size()));
        rewrite::PassResult legacy =
            rewrite::applyRulePassRandom(c, rules[ri], rng_legacy);
        auto att = engine.preparePassRandom(rules[ri], rng_engine);
        auto applied = core::Transformation::fromRule(&rules[ri])
                           .apply(c, rng_apply);
        if (legacy.applications == 0) {
            ASSERT_FALSE(att.has_value());
            ASSERT_FALSE(applied.has_value());
        } else {
            ASSERT_TRUE(att.has_value());
            ASSERT_TRUE(applied.has_value());
            EXPECT_EQ(applied->epsilonSpent, 0.0);
            ASSERT_TRUE(sameGates(applied->circuit, legacy.circuit));
            engine.commit();
            c = std::move(legacy.circuit);
            ASSERT_TRUE(sameGates(engine.circuit(), c));
        }
        // Identical draw counts => the streams stay in lockstep.
        const std::uint64_t next = rng_legacy();
        ASSERT_EQ(next, rng_engine());
        ASSERT_EQ(next, rng_apply());
    }
}

TEST(RewriteEngineDifferential, DiscardLeavesCircuitAndIndexUntouched)
{
    const ir::GateSetKind set = ir::GateSetKind::IbmEagle;
    const auto &rules = rewrite::rulesFor(set);
    support::Rng rng(5);
    const ir::Circuit c = testutil::randomNativeCircuit(set, 5, 60, rng);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    int discarded = 0;
    for (int step = 0; step < 120; ++step) {
        const rewrite::RewriteRule &rule = rules[rng.index(rules.size())];
        auto att = engine.preparePassRandom(rule, rng);
        if (!att)
            continue;
        if (step % 2 == 0)
            (void)engine.candidate(); // materialize, then throw away
        engine.discard();
        ++discarded;
        ASSERT_TRUE(sameGates(engine.circuit(), c));
    }
    engine.checkInvariants();
    EXPECT_EQ(engine.counts(), c.counts());
    EXPECT_GT(discarded, 0);
}

TEST(RewriteEngineDifferential, FixpointMatchesLegacyRoundRobin)
{
    for (const ir::GateSetKind set : kAllSets) {
        const auto &rules = rewrite::rulesFor(set);
        support::Rng rng(31 + static_cast<std::uint64_t>(set));
        const ir::Circuit c =
            testutil::randomNativeCircuit(set, 5, 80, rng);

        // The legacy loop, verbatim from the pre-engine applier.
        ir::Circuit expect = c;
        for (int round = 0; round < 64; ++round) {
            int fired = 0;
            for (const rewrite::RewriteRule &rule : rules) {
                rewrite::PassResult r =
                    rewrite::applyRulePass(expect, rule, 0);
                if (r.applications > 0) {
                    expect = std::move(r.circuit);
                    fired += r.applications;
                }
            }
            if (fired == 0)
                break;
        }

        EXPECT_TRUE(sameGates(
            rewrite::applyRulesToFixpoint(c, rules), expect))
            << "set " << ir::gateSetName(set);
    }
}

// ---------------------------------------------------------------------
// Fusion: prepareFusion == fuseOneQubitRuns, marks re-checked each step.
// ---------------------------------------------------------------------

/** @p c with two random native 1q gates appended on one random wire. */
ir::Circuit
withFreshRun(const ir::Circuit &c, ir::GateSetKind set, support::Rng &rng)
{
    std::vector<ir::GateKind> oneq;
    for (const ir::GateKind k : ir::nativeGates(set))
        if (ir::gateArity(k) == 1)
            oneq.push_back(k);
    ir::Circuit out = c;
    const int q =
        static_cast<int>(rng.index(static_cast<std::size_t>(c.numQubits())));
    for (int i = 0; i < 2; ++i) {
        const ir::GateKind k = oneq[rng.index(oneq.size())];
        std::vector<double> params;
        for (int p = 0; p < ir::gateParamCount(k); ++p)
            params.push_back(rng.uniform(-M_PI, M_PI));
        out.add(k, {q}, std::move(params));
    }
    return out;
}

TEST(RewriteEngineFusion, VerdictMatchesFuseOneQubitRunsUnderInterleavings)
{
    for (const ir::GateSetKind set : kAllSets) {
        const auto &rules = rewrite::rulesFor(set);
        support::Rng rng(61 + static_cast<std::uint64_t>(set));
        int fired = 0;
        int quiet = 0;
        // One engine over several circuits: its fusion-verdict memo
        // survives assign(), so later circuits hit verdicts stored for
        // earlier ones. Each later circuit repeats the first one on
        // reversed wires, so those hits are certain.
        rewrite::RewriteEngine engine{ir::Circuit(1)};
        ir::Circuit first;
        for (int round = 0; round < 3; ++round) {
            ir::Circuit c = testutil::randomNativeCircuit(
                set, 5, 60 + 30 * round, rng);
            if (round == 0)
                first = c;
            else
                c.append(first.remapped({4, 3, 2, 1, 0}, 5));
            const std::size_t memo = engine.fusionMemo().size();
            engine.assign(ir::Circuit(c));
            EXPECT_EQ(engine.fusionMemo().size(), memo);
            for (int step = 0; step < 300; ++step) {
                const std::size_t action = rng.index(10);
                if (action < 4) {
                    // A rule pass, committed or discarded.
                    const rewrite::RewriteRule &rule =
                        rules[rng.index(rules.size())];
                    if (engine.preparePassRandom(rule, rng)) {
                        if (rng.chance(0.7)) {
                            engine.commit();
                            c = engine.circuit();
                        } else {
                            engine.discard();
                        }
                    }
                } else if (action < 9) {
                    const ir::Circuit want =
                        transpile::fuseOneQubitRuns(c, set);
                    const bool shrinks = want.size() < c.size();
                    auto att = engine.prepareFusion(set);
                    ASSERT_EQ(att.has_value(), shrinks)
                        << ir::gateSetName(set) << " step " << step;
                    if (!att) {
                        ++quiet;
                    } else {
                        ++fired;
                        EXPECT_EQ(att->counts, want.counts());
                        if (rng.chance(0.5)) {
                            ASSERT_TRUE(
                                sameGates(engine.candidate(), want));
                        }
                        if (rng.chance(0.6)) {
                            engine.commit();
                            c = want;
                        } else {
                            engine.discard();
                        }
                    }
                } else {
                    c = withFreshRun(c, set, rng);
                    engine.assign(ir::Circuit(c));
                }
                ASSERT_TRUE(sameGates(engine.circuit(), c))
                    << ir::gateSetName(set) << " step " << step;
                EXPECT_EQ(engine.counts(), c.counts());
                engine.checkInvariants();
            }
        }
        EXPECT_GT(quiet, 0) << ir::gateSetName(set);
        if (set == ir::GateSetKind::CliffordT) {
            EXPECT_EQ(fired, 0);
        } else {
            EXPECT_GT(fired, 0) << ir::gateSetName(set);
            EXPECT_GT(engine.fusionMemo().size(), 0u);
        }
    }
}

/** A run of @p gates on wire 0, as fuseRun takes it. */
std::vector<const ir::Gate *>
runOf(const std::vector<ir::Gate> &gates)
{
    std::vector<const ir::Gate *> run;
    for (const ir::Gate &g : gates)
        run.push_back(&g);
    return run;
}

TEST(RewriteEngineFusion, FullMemoClearsAndStaysExact)
{
    using ir::GateKind;
    rewrite::FusionMemo memo;
    transpile::OneQubitSeq want;
    transpile::OneQubitSeq got;
    support::Rng rng(5);
    // Each pass stores more distinct runs than the memo holds, so it
    // clears at least once; a shrinking run (Rz Rz) every few entries
    // checks that hits on either verdict still refit exactly.
    std::vector<std::vector<ir::Gate>> runs;
    for (std::size_t i = 0; i < rewrite::FusionMemo::kMaxEntries + 40; ++i) {
        const double a = rng.uniform(-M_PI, M_PI);
        if (i % 5 == 0)
            runs.push_back({ir::Gate(GateKind::Rz, {0}, {a}),
                            ir::Gate(GateKind::Rz, {0}, {0.25})});
        else
            runs.push_back({ir::Gate(GateKind::H, {0}),
                            ir::Gate(GateKind::Rz, {0}, {a}),
                            ir::Gate(GateKind::H, {0})});
    }
    // Long runs fill the key store before the entry table.
    for (int i = 0; i < 60; ++i) {
        std::vector<ir::Gate> run;
        for (int j = 0; j < 200; ++j)
            run.emplace_back(GateKind::Rz, std::initializer_list<int>{0},
                             std::initializer_list<double>{
                                 rng.uniform(-M_PI, M_PI)});
        runs.push_back(std::move(run));
    }

    for (const ir::GateSetKind set :
         {ir::GateSetKind::Nam, ir::GateSetKind::Ibmq20}) {
        bool cleared = false;
        std::size_t last = memo.size();
        for (int pass = 0; pass < 2; ++pass) {
            for (const std::vector<ir::Gate> &gates : runs) {
                const auto run = runOf(gates);
                const bool verdict = transpile::fuseRun(run, set, want);
                ASSERT_EQ(memo.shrinks(run, set, got), verdict);
                if (verdict) {
                    ASSERT_EQ(got.size, want.size);
                    for (std::size_t k = 0; k < want.size; ++k)
                        EXPECT_TRUE(got.gate(k, 0) == want.gate(k, 0));
                }
                ASSERT_LE(memo.size(), rewrite::FusionMemo::kMaxEntries);
                cleared |= memo.size() < last;
                last = memo.size();
            }
            memo.checkInvariants();
        }
        EXPECT_TRUE(cleared) << ir::gateSetName(set);
    }
}

TEST(RewriteEngineFusion, CliffordTNeverFires)
{
    const ir::GateSetKind set = ir::GateSetKind::CliffordT;
    ir::Circuit c(1);
    for (int i = 0; i < 8; ++i)
        c.t(0); // T^8 = I: a finite basis still has no Euler refit
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    EXPECT_FALSE(engine.prepareFusion(set).has_value());
    EXPECT_FALSE(engine.pending());
    EXPECT_TRUE(sameGates(transpile::fuseOneQubitRuns(c, set), c));
}

TEST(RewriteEngineFusion, CommitsFuseOneQubitRunsOutputThenStaysQuiet)
{
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    ir::Circuit c(2);
    c.rz(0.3, 0);
    c.rz(0.4, 0); // shrinks to one Rz
    c.cx(0, 1);
    c.h(1);
    c.h(1); // shrinks to nothing
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    auto att = engine.prepareFusion(set);
    ASSERT_TRUE(att.has_value());
    EXPECT_EQ(att->applications, 2);
    EXPECT_EQ(att->counts.gates, 2u);
    engine.commit();
    engine.checkInvariants();
    EXPECT_TRUE(sameGates(engine.circuit(),
                          transpile::fuseOneQubitRuns(c, set)));
    EXPECT_FALSE(engine.prepareFusion(set).has_value());
    engine.checkInvariants();
}

TEST(RewriteEngineFusion, RuleCommitReopensOnlyTheWiresItTouched)
{
    // Each wire alone holds no shrinkable run until cx_cancel removes
    // the CX pair between two Rz on wire 0. The commit inserts nothing,
    // so only its removed gates can clear wire 0's mark.
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    ir::Circuit c(3);
    c.rz(0.3, 0);
    c.cx(0, 1);
    c.cx(0, 1);
    c.rz(0.4, 0);
    c.h(2);
    c.rz(0.5, 2);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    ASSERT_FALSE(engine.prepareFusion(set).has_value());

    const rewrite::RewriteRule *cancel = nullptr;
    for (const rewrite::RewriteRule &rule : rewrite::rulesFor(set))
        if (rule.name() == "cx_cancel")
            cancel = &rule;
    ASSERT_NE(cancel, nullptr);
    ASSERT_TRUE(engine.preparePass(*cancel, 0).has_value());
    engine.commit();
    engine.checkInvariants();
    const ir::Circuit cancelled = engine.circuit();

    auto att = engine.prepareFusion(set);
    ASSERT_TRUE(att.has_value());
    EXPECT_EQ(att->applications, 1); // wire 0's Rz pair, not wire 2
    engine.commit();
    EXPECT_TRUE(sameGates(engine.circuit(),
                          transpile::fuseOneQubitRuns(cancelled, set)));
    engine.checkInvariants();
}

// ---------------------------------------------------------------------
// Soundness of a pass: two matches that share a wire.
// ---------------------------------------------------------------------

/** |<ψ|ψ'>| for ψ, ψ' = @p a, @p b applied to one random product
 *  state: 1 for circuits equal up to phase, well below it otherwise. */
double
probeOverlap(const ir::Circuit &a, const ir::Circuit &b, std::uint64_t seed)
{
    auto run = [seed](const ir::Circuit &c) {
        support::Rng r(seed);
        sim::StateVector v(c.numQubits());
        for (int q = 0; q < c.numQubits(); ++q)
            v.apply(ir::Gate(ir::GateKind::U3, {q},
                             {r.uniform(0, 3), r.uniform(0, 3),
                              r.uniform(0, 3)}));
        v.apply(c);
        return v;
    };
    return std::abs(run(a).innerProduct(run(b)));
}

TEST(RewriteEngineSoundness, SharedWireMatchesKeepTheirWireOrder)
{
    // Each match's insertPos is computed against the original circuit,
    // so two matches on one wire could be emitted in the opposite
    // order from their order on it: on this corpus 6 committed passes
    // (cx_commute_shared_{control,target}, >= 2 applications) changed
    // the unitary before the pass learned to skip such a match.
    const auto &rules = rewrite::rulesFor(ir::GateSetKind::Nam);
    long committed = 0;
    for (std::uint64_t s = 0; s < 300; ++s) {
        rewrite::RewriteEngine engine{transpile::toGateSet(
            workloads::randomCircuit(8, 60, s), ir::GateSetKind::Nam)};
        support::Rng rng(s * 7919 + 1);
        for (int k = 0; k < 200; ++k) {
            const rewrite::RewriteRule &rule =
                rules[rng.index(rules.size())];
            const ir::Circuit before = engine.circuit();
            if (!engine.preparePassRandom(rule, rng))
                continue;
            engine.commit();
            ++committed;
            ASSERT_GT(probeOverlap(before, engine.circuit(), s), 1 - 1e-9)
                << "seed " << s << ", pass " << k << ", " << rule.name();
        }
    }
    EXPECT_GT(committed, 10000);
}

TEST(RewriteEngineSoundness, MisorderedSecondMatchIsSkipped)
{
    // The smallest such case of the corpus above. From anchor 0,
    // cx_commute_shared_control matches {0, 2} (control q3, insertPos
    // 2) and then {3, 4} (control q1, insertPos 1). Both touch q1, the
    // first one earlier, yet the second would be emitted first; the
    // pass must leave the second match alone.
    ir::Circuit c(8);
    c.cx(3, 1);
    c.cx(7, 2);
    c.cx(3, 2);
    c.cx(1, 5);
    c.cx(1, 0);
    const rewrite::RewriteRule *rule = nullptr;
    for (const rewrite::RewriteRule &r :
         rewrite::rulesFor(ir::GateSetKind::Nam))
        if (r.name() == "cx_commute_shared_control")
            rule = &r;
    ASSERT_NE(rule, nullptr);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    const auto att = engine.preparePass(*rule, 0);
    ASSERT_TRUE(att.has_value());
    EXPECT_EQ(att->applications, 1);
    engine.commit();
    EXPECT_GT(probeOverlap(c, engine.circuit(), 5), 1 - 1e-9);
    const rewrite::PassResult legacy = rewrite::applyRulePass(c, *rule, 0);
    EXPECT_EQ(legacy.applications, 1);
    EXPECT_TRUE(sameGates(engine.circuit(), legacy.circuit));
}

// ---------------------------------------------------------------------
// Skipped probes: the second-gate check and the no-match memo.
// ---------------------------------------------------------------------

/** The rule named @p name in @p set's library. */
const rewrite::RewriteRule &
ruleNamed(ir::GateSetKind set, const std::string &name)
{
    for (const rewrite::RewriteRule &r : rewrite::rulesFor(set))
        if (r.name() == name)
            return r;
    ADD_FAILURE() << "no rule " << name;
    return rewrite::rulesFor(set).front();
}

TEST(RewriteEngineSkips, SecondGateCheckAdmitsEveryMatch)
{
    long matches = 0;
    long rejected = 0;
    for (const ir::GateSetKind set : kAllSets) {
        std::vector<ir::Circuit> circuits;
        for (std::uint64_t s = 0; s < 4; ++s) {
            ir::Circuit raw = workloads::randomCircuit(6, 80, 500 + s);
            if (set == ir::GateSetKind::CliffordT) {
                // Only the exactly representable gates lower to it.
                ir::Circuit exact(raw.numQubits());
                for (const ir::Gate &g : raw.gates())
                    if (g.kind != ir::GateKind::Rz)
                        exact.add(g);
                raw = std::move(exact);
            }
            circuits.push_back(transpile::toGateSet(raw, set));
        }
        support::Rng rng(17 + static_cast<std::uint64_t>(set));
        for (int k = 0; k < 4; ++k)
            circuits.push_back(
                testutil::randomNativeCircuit(set, 5, 80, rng));
        for (workloads::Benchmark &b : workloads::suiteFor(set))
            circuits.push_back(std::move(b.circuit));

        rewrite::MatchScratch scratch;
        for (const ir::Circuit &c : circuits) {
            const dag::CircuitDag dag(c);
            for (const rewrite::RewriteRule &rule : rewrite::rulesFor(set)) {
                for (std::size_t a = 0; a < c.size(); ++a) {
                    if (c.gate(a).kind != rule.pattern().front().kind)
                        continue;
                    const bool admits =
                        rewrite::secondGateAdmits(c, dag, rule, a);
                    rejected += admits ? 0 : 1;
                    if (!rewrite::matchAt(c, dag, rule, a, scratch))
                        continue;
                    ++matches;
                    ASSERT_TRUE(admits) << ir::gateSetName(set) << " "
                                        << rule.name() << " anchor " << a;
                }
            }
        }
    }
    // Neither side of the implication is vacuous.
    EXPECT_GT(matches, 1000);
    EXPECT_GT(rejected, matches);
}

TEST(RewriteEngineSkips, RuleWhoseSecondGateIsUnlinkedNeverProbes)
{
    // Gate 1 of hh_cx_hh_flip, H(1), shares no wire with gate 0, H(0):
    // matchAt can never locate it, and the check says so up front.
    const rewrite::RewriteRule &rule =
        ruleNamed(ir::GateSetKind::Nam, "hh_cx_hh_flip");
    EXPECT_TRUE(rule.secondGate().present);
    EXPECT_EQ(rule.secondGate().numLinks, 0);
    ir::Circuit c(2);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    c.h(0);
    c.h(1);
    const dag::CircuitDag dag(c);
    EXPECT_FALSE(rewrite::secondGateAdmits(c, dag, rule, 0));
}

TEST(RewriteEngineSkips, NoMatchMemoLastsUntilTheCircuitChanges)
{
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    const rewrite::RewriteRule &hh = ruleNamed(set, "h_h_cancel");
    const rewrite::RewriteRule &xx = ruleNamed(set, "x_x_cancel");
    ir::Circuit c(1);
    c.h(0);
    c.x(0);
    c.x(0);
    c.h(0);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    for (std::size_t anchor = 0; anchor < c.size(); ++anchor)
        EXPECT_FALSE(engine.preparePass(hh, anchor).has_value());
    // A copy shares the rule's id, so it shares the memo too.
    const rewrite::RewriteRule copy = hh;
    EXPECT_FALSE(engine.preparePass(copy, 0).has_value());
    engine.checkInvariants();

    ASSERT_TRUE(engine.preparePass(xx, 0).has_value());
    engine.commit();
    const auto att = engine.preparePass(hh, 1);
    ASSERT_TRUE(att.has_value());
    EXPECT_EQ(att->applications, 1);
    engine.commit();
    EXPECT_TRUE(engine.circuit().empty());
    engine.checkInvariants();
}

TEST(RewriteEngineSkips, AssignForgetsTheNoMatchMemo)
{
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    const rewrite::RewriteRule &xx = ruleNamed(set, "x_x_cancel");
    ir::Circuit quiet(1);
    quiet.x(0);
    quiet.h(0);
    ir::Circuit busy(1);
    busy.x(0);
    busy.x(0);
    rewrite::RewriteEngine engine{ir::Circuit(quiet)};
    EXPECT_FALSE(engine.preparePass(xx, 0).has_value());
    engine.assign(ir::Circuit(busy));
    ASSERT_TRUE(engine.preparePass(xx, 0).has_value());
    engine.discard();
    engine.checkInvariants();
}

// ---------------------------------------------------------------------
// Cached counters.
// ---------------------------------------------------------------------

TEST(RewriteEngineCounts, DeltaCountersTrackScansAcrossCommits)
{
    const ir::GateSetKind set = ir::GateSetKind::CliffordT;
    const auto &rules = rewrite::rulesFor(set);
    const fidelity::ErrorModel &model = fidelity::errorModelFor(set);
    support::Rng rng(13);
    ir::Circuit c = testutil::randomNativeCircuit(set, 5, 70, rng);

    rewrite::RewriteEngine engine{ir::Circuit(c)};
    engine.setGateLogCost([&model](const ir::Gate &g) {
        return -std::log1p(-model.gateError(g));
    });
    int committed = 0;
    for (int step = 0; step < 250 && committed < 40; ++step) {
        const rewrite::RewriteRule &rule = rules[rng.index(rules.size())];
        auto att = engine.preparePassRandom(rule, rng);
        if (!att)
            continue;
        engine.commit();
        ++committed;
        ASSERT_EQ(engine.counts(), engine.circuit().counts());
        double fresh = 0;
        for (const ir::Gate &g : engine.circuit().gates())
            fresh += -std::log1p(-model.gateError(g));
        ASSERT_NEAR(engine.fidelityLogCost(), fresh, 1e-12);
    }
    engine.checkInvariants();
    EXPECT_GT(committed, 0);
}

TEST(RewriteEngineCounts, AssignReindexesWholesale)
{
    support::Rng rng(3);
    const ir::Circuit a = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 4, 30, rng);
    const ir::Circuit b = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 6, 50, rng);
    rewrite::RewriteEngine engine{ir::Circuit(a)};
    engine.assign(ir::Circuit(b));
    EXPECT_TRUE(sameGates(engine.circuit(), b));
    EXPECT_EQ(engine.counts(), b.counts());
    engine.checkInvariants();
}

// ---------------------------------------------------------------------
// Invariant death tests: corruption must be loud.
// ---------------------------------------------------------------------

TEST(RewriteEngineDeath, CheckInvariantsCatchesTamperedGateList)
{
    support::Rng rng(8);
    const ir::Circuit c = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 4, 20, rng);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    engine.checkInvariants(); // sanity: clean engine passes
    // Mutating the working circuit behind the engine's back stales
    // counters, buckets, and wire links at once.
    const_cast<ir::Circuit &>(engine.circuit()).gates().pop_back();
    EXPECT_DEATH(engine.checkInvariants(), "RewriteEngine");
}

TEST(RewriteEngineDeath, CheckInvariantsCatchesRewiredGate)
{
    ir::Circuit c(3);
    c.cx(0, 1);
    c.cx(1, 2);
    c.h(0);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    // Same kind and counts, different wires: only the DAG/bucket
    // revalidation can see it.
    const_cast<ir::Circuit &>(engine.circuit()).gates()[1] =
        ir::Gate(ir::GateKind::CX, {0, 2});
    EXPECT_DEATH(engine.checkInvariants(), "RewriteEngine");
}

/** A Nam ZXZ run on wire 0 whose refit is no shorter (five gates). */
ir::Circuit
zxzRun()
{
    ir::Circuit c(2);
    c.cx(0, 1);
    c.rz(0.5, 0);
    c.h(0);
    c.rz(0.7, 0);
    c.h(0);
    c.rz(0.3, 0);
    return c;
}

TEST(RewriteEngineDeath, CheckInvariantsCatchesStaleFusionMark)
{
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    // Zeroing the middle Rz turns the run into Rz(0.8): it now
    // shrinks, yet kinds, counts and wires are all unchanged, so only
    // the fusion-mark re-check can see it.
    const auto tamper = [](rewrite::RewriteEngine &engine) {
        const_cast<ir::Circuit &>(engine.circuit()).gates()[3].params[0] =
            0.0;
    };

    rewrite::RewriteEngine unmarked{zxzRun()};
    tamper(unmarked);
    unmarked.checkInvariants(); // no mark, no claim to check

    rewrite::RewriteEngine engine{zxzRun()};
    ASSERT_FALSE(engine.prepareFusion(set).has_value());
    engine.checkInvariants(); // wire 0 is now marked clean
    tamper(engine);
    EXPECT_DEATH(engine.checkInvariants(), "fusion-clean");
}

TEST(RewriteEngineDeath, CheckInvariantsCatchesStaleNoMatchMemo)
{
    // Zeroing the Rz angle makes rz_zero_drop match, yet kinds, counts
    // and wires are all unchanged, so only the memo re-check can see
    // it.
    const rewrite::RewriteRule &drop =
        ruleNamed(ir::GateSetKind::Nam, "rz_zero_drop");
    ir::Circuit c(2);
    c.cx(0, 1);
    c.rz(0.5, 0);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    ASSERT_FALSE(engine.preparePass(drop, 0).has_value());
    engine.checkInvariants(); // the memo holds
    const_cast<ir::Circuit &>(engine.circuit()).gates()[1].params[0] = 0.0;
    EXPECT_DEATH(engine.checkInvariants(), "memoized as matchless");
}

TEST(RewriteEngineDeath, UnresolvedPassRefusesNextPass)
{
    const ir::GateSetKind set = ir::GateSetKind::Nam;
    const auto &rules = rewrite::rulesFor(set);
    support::Rng rng(21);
    const ir::Circuit c = testutil::randomNativeCircuit(set, 5, 60, rng);
    rewrite::RewriteEngine engine{ir::Circuit(c)};
    support::Rng draws(4);
    for (int step = 0; step < 400; ++step) {
        const rewrite::RewriteRule &rule =
            rules[draws.index(rules.size())];
        if (engine.preparePassRandom(rule, draws)) {
            EXPECT_DEATH(engine.preparePass(rule, 0), "pending");
            return;
        }
    }
    FAIL() << "no rule ever fired";
}

// ---------------------------------------------------------------------
// Fixed-seed determinism pins: fingerprints of core::optimize() runs
// captured on the pre-engine implementation. The engine swap (and any
// future engine change) must keep these bit-for-bit.
// ---------------------------------------------------------------------

std::uint64_t
fingerprint(const core::GuoqResult &r)
{
    const std::string sig =
        r.best.toString() + "|a=" + std::to_string(r.stats.accepted) +
        "|u=" + std::to_string(r.stats.uphillAccepted) +
        "|r=" + std::to_string(r.stats.rejected) +
        "|n=" + std::to_string(r.stats.noops) +
        "|w=" + std::to_string(r.stats.rewriteApplications);
    std::uint64_t h = 1469598103934665603ull;
    for (const char ch : sig) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ull;
    }
    return h;
}

struct GoldenRun
{
    const char *tag;
    ir::GateSetKind set;
    core::Objective objective;
    std::uint64_t circuitSeed;
    int qubits;
    int gates;
    std::uint64_t seed;
    long iterations;
    std::uint64_t want;
};

TEST(RewriteEngineGolden, FixedSeedOptimizeUnchangedSincePreEngine)
{
    const std::vector<GoldenRun> runs = {
        {"nam_gate", ir::GateSetKind::Nam, core::Objective::GateCount,
         101, 6, 40, 11, 4000, 0x1a7b2b53d2e1c1b9ull},
        {"eagle_2q", ir::GateSetKind::IbmEagle,
         core::Objective::TwoQubitCount, 102, 5, 60, 3, 4000,
         0x85d84a6e7b28d6f9ull},
        {"ct_t", ir::GateSetKind::CliffordT, core::Objective::TCount,
         103, 4, 50, 5, 3000, 0xec99d7fa6e21bb07ull},
        {"ionq_fid", ir::GateSetKind::IonQ, core::Objective::Fidelity,
         104, 4, 40, 9, 2000, 0x56df2a77306b0d0dull},
        {"ibmq20_depth", ir::GateSetKind::Ibmq20, core::Objective::Depth,
         105, 5, 40, 13, 2000, 0x5b7c41ec5e4f7a76ull},
    };
    for (const GoldenRun &g : runs) {
        support::Rng crng(g.circuitSeed);
        const ir::Circuit c = testutil::randomNativeCircuit(
            g.set, g.qubits, g.gates, crng);
        core::GuoqConfig cfg;
        cfg.objective = g.objective;
        cfg.seed = g.seed;
        cfg.maxIterations = g.iterations;
        cfg.timeBudgetSeconds = 60.0;
        cfg.epsilonTotal = 0;
        cfg.synthWorkers = 0;
        const core::GuoqResult r = core::optimize(c, g.set, cfg);
        EXPECT_EQ(fingerprint(r), g.want) << g.tag;
    }
}

// The lazy best-copy must preserve report semantics exactly: best is
// frozen at the last *strict* improvement even when later equal-cost
// moves are accepted.
TEST(RewriteEngineGolden, LazyBestMatchesTraceAndCost)
{
    support::Rng crng(77);
    const ir::Circuit c = testutil::randomNativeCircuit(
        ir::GateSetKind::Nam, 6, 60, crng);
    core::GuoqConfig cfg;
    cfg.objective = core::Objective::GateCount;
    cfg.seed = 19;
    cfg.maxIterations = 3000;
    cfg.timeBudgetSeconds = 60.0;
    cfg.recordTrace = true;
    const core::CostFunction cost(cfg.objective, ir::GateSetKind::Nam);
    const core::GuoqResult r =
        core::optimize(c, ir::GateSetKind::Nam, cfg);
    ASSERT_FALSE(r.trace.empty());
    const core::TracePoint &last = r.trace.back();
    EXPECT_EQ(cost(r.best), last.cost);
    EXPECT_EQ(r.best.gateCount(), last.gateCount);
    EXPECT_EQ(r.best.twoQubitGateCount(), last.twoQubitCount);
    EXPECT_EQ(r.best.tGateCount(), last.tCount);
    EXPECT_LE(cost(r.best), cost(c));
}

} // namespace
