/**
 * @file
 * The resynthesis front end: the paper's resynth : (C × R) → C
 * function (§4.1) — a thin wrapper that computes a subcircuit's
 * unitary, dispatches to the right synthesizer for the target gate
 * set, and re-expresses the result natively.
 */

#pragma once

#include "ir/circuit.h"
#include "ir/gate_set.h"
#include "support/rng.h"
#include "support/timer.h"

namespace guoq {
namespace synth {

/** Options for resynthesize(). */
struct ResynthOptions
{
    ir::GateSetKind targetSet = ir::GateSetKind::Nam;
    double epsilon = 0;          //!< allowed HS distance (0 = exact)
    int maxQubits = 3;           //!< refuse wider subcircuits
    support::Deadline deadline;  //!< per-call wall-clock budget
    int maxEntanglers = 10;      //!< continuous-search depth cap
    int finiteMaxGates = 24;     //!< finite-search length cap
};

/** Result of one resynthesis call. */
struct ResynthResult
{
    bool success = false;
    ir::Circuit circuit;   //!< native to targetSet when success
    double distance = 1.0; //!< achieved HS distance to the input
};

/** One service-mediated resynthesis outcome, with cache attribution
 *  (synth::SynthService in synth/service.h produces these). */
struct SynthOutcome
{
    ResynthResult result;
    bool cacheHit = false;
    bool cacheMiss = false;
    bool cacheStore = false;
};

/** A run's synthesis-cache traffic, tallied from its outcomes. */
struct ResynthCounters
{
    long hits = 0;   //!< requests served from the cache
    long misses = 0; //!< cache probes that ran a search
    long stores = 0; //!< fresh results inserted

    /** Count one outcome. */
    void
    add(const SynthOutcome &o)
    {
        hits += o.cacheHit ? 1 : 0;
        misses += o.cacheMiss ? 1 : 0;
        stores += o.cacheStore ? 1 : 0;
    }

    /** Add another tally. */
    void
    add(const ResynthCounters &o)
    {
        hits += o.hits;
        misses += o.misses;
        stores += o.stores;
    }
};

/**
 * Resynthesize @p sub (a standalone subcircuit) into a new circuit
 * whose unitary is within @p opts.epsilon of the original, expressed
 * in opts.targetSet's native gates. Fails (success = false) when the
 * synthesizer cannot meet the threshold within the deadline or the
 * subcircuit exceeds opts.maxQubits.
 */
ResynthResult resynthesize(const ir::Circuit &sub,
                           const ResynthOptions &opts, support::Rng &rng);

} // namespace synth
} // namespace guoq
