/**
 * @file
 * The transpiler: lower any circuit into one of the five target gate
 * sets of Table 2, exactly (modulo global phase). This is how the
 * benchmark suite produces per-gate-set inputs ("the input circuit is
 * always already decomposed into the target gate set", paper §6) and
 * how resynthesis results are re-expressed natively.
 */

#pragma once

#include <span>

#include "ir/circuit.h"
#include "ir/derivation.h"
#include "ir/gate_set.h"
#include "transpile/decompose.h"

namespace guoq {
namespace transpile {

/**
 * Lower @p c into the native gates of @p set.
 *
 * The pipeline expands ≥2-qubit non-CX gates into {CX + 1q}, converts
 * the entangler (CX → Rxx for IonQ), and re-expresses every non-native
 * 1q gate in the set's native 1q basis. For Clifford+T the circuit
 * must be exactly representable (rotation angles at π/4 multiples);
 * otherwise the transpiler calls fatal() rather than approximating.
 */
ir::Circuit toGateSet(const ir::Circuit &c, ir::GateSetKind set);

/** True when every gate of @p c is native to @p set. */
bool allNative(const ir::Circuit &c, ir::GateSetKind set);

/**
 * Fuse maximal runs of adjacent 1-qubit gates on each wire into the
 * minimal native 1q form for @p set (via the run's 2x2 product and the
 * set's Euler decomposition). Runs whose fused form is no shorter are
 * left untouched. Not applicable to Clifford+T (returns the input).
 *
 * This is the "1q fusion" transformation GUOQ uses alongside rewrite
 * rules: exact (ε = 0) and cheap, but — unlike a pattern rule — able
 * to collapse arbitrarily long 1q runs.
 *
 * When @p step is given, it is filled with the move as a derivation
 * step (ir/derivation.h): one block per refit run, and the output's
 * gate order, which also records the move of every 1q gate to just
 * before the next multi-qubit gate on its wire.
 */
ir::Circuit fuseOneQubitRuns(const ir::Circuit &c, ir::GateSetKind set,
                             ir::DerivationStep *step = nullptr);

/**
 * The fusion verdict for one run, shared by fuseOneQubitRuns and the
 * rewrite engine's fusion move. @p run is a maximal run of native 1q
 * gates on one wire, in time order. Writes the run's native refit
 * into @p fused and returns true exactly when the refit is strictly
 * shorter, i.e. when fuseOneQubitRuns replaces the run; always false
 * for Clifford+T and for runs of fewer than two gates. Allocates
 * nothing.
 */
bool fuseRun(std::span<const ir::Gate *const> run, ir::GateSetKind set,
             OneQubitSeq &fused);

} // namespace transpile
} // namespace guoq
