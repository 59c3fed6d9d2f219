/**
 * @file
 * GUOQ (Alg. 1): the simulated-annealing-inspired randomized search
 * over circuit transformations, plus its configuration, statistics,
 * trace, and result types.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cost.h"
#include "core/framework.h"
#include "core/observer.h"
#include "ir/circuit.h"
#include "ir/derivation.h"
#include "ir/gate_set.h"
#include "synth/resynth.h"

namespace guoq {

namespace synth {
class SynthService;
} // namespace synth

namespace core {

/** Configuration for one optimization run. */
struct GuoqConfig
{
    /** Hard constraint ε_f: total approximation budget (HS distance).
     *  0 keeps the run exact (resynthesis disabled). */
    double epsilonTotal = 0;

    /** Soft constraint: what to minimize. */
    Objective objective = Objective::TwoQubitCount;

    /** Wall-clock budget in seconds (GUOQ is an anytime algorithm). */
    double timeBudgetSeconds = 10.0;

    /** Optional iteration cap (< 0 = unlimited); used by tests. */
    long maxIterations = -1;

    /** RNG seed: one seed reproduces the whole run. */
    std::uint64_t seed = 1;

    /** Acceptance temperature t (paper: 10 after a 0..10 sweep). */
    double temperature = 10.0;

    /** Probability of sampling resynthesis (paper §5.3: 1.5%). */
    double resynthProbability = 0.015;

    /** Subcircuit qubit cap for resynthesis (paper: 3). */
    int maxSubcircuitQubits = 3;

    /** Per-synthesis-call wall-clock cap (seconds). */
    double resynthCallSeconds = 1.0;

    /**
     * Nominal ε per resynthesis call. ≤ 0 selects the default
     * max(ε_f/16, 3e-7); see core::perCallEpsilon.
     */
    double resynthCallEpsilon = -1.0;

    /** Ablation switch (Q2): which transformation classes to use. */
    TransformSelection selection = TransformSelection::Combined;

    /**
     * Asynchronous resynthesis (paper §5.3): with N > 0, rewriting
     * continues while up to N synthesis calls are in flight on the
     * service's worker pool; interim rewrites are discarded when a
     * resynthesis result is accepted. 0 keeps resynthesis synchronous.
     */
    int synthWorkers = 0;

    /**
     * Synthesis service (cache + shared pool) every resynthesis call
     * routes through; null selects synth::SynthService::global().
     * With the service's cache disabled the run is bit-for-bit the
     * legacy optimize(); with it enabled the run stays deterministic
     * for a fixed seed, cold or warm.
     */
    synth::SynthService *synthService = nullptr;

    /** Record a best-cost-over-time trace (Fig. 7 style). */
    bool recordTrace = false;

    /**
     * Record the derivation of the returned circuit (ir/derivation.h):
     * every accepted step as blocks and a gate order, so that the
     * `certificate` checker can verify the output by replaying it.
     * Never changes the search trajectory.
     */
    bool recordDerivation = false;

    /**
     * Progress callback + cooperative cancellation. `hooks.onBest`
     * fires on every strict best-cost improvement; `hooks.cancel`
     * is polled each iteration and ends the run early with the best
     * found so far. Neither affects the search trajectory: a run with
     * hooks attached visits exactly the circuits of a hook-free run.
     */
    ObserverHooks hooks;
};

/**
 * Counters for one run: the one record every emitter (CLI report,
 * batch and serve rows, bench rows) reads its telemetry from.
 */
struct GuoqStats
{
    long iterations = 0;
    long accepted = 0;         //!< improving/equal moves taken
    long uphillAccepted = 0;   //!< worse moves taken (Metropolis)
    long rejected = 0;
    long noops = 0;            //!< transformations that didn't fire
    long budgetSkips = 0;      //!< Alg. 1 line 6 abstentions
    long resynthCalls = 0;
    long resynthAccepted = 0;
    long rewriteApplications = 0;
    synth::ResynthCounters synthCache; //!< synthesis-cache traffic
    long poolQueuePeak = 0;    //!< synthesis-pool queue high-water mark
    double seconds = 0;

    /** Fold in another run's counters: sums, except the queue peak,
     *  which is a maximum. */
    void merge(const GuoqStats &other);
};

/** One point of the best-cost-over-time trace. */
struct TracePoint
{
    double seconds = 0;
    double cost = 0;
    std::size_t gateCount = 0;
    std::size_t twoQubitCount = 0;
    std::size_t tCount = 0;
};

/** Result of guoq(). */
struct GuoqResult
{
    ir::Circuit best;
    double errorBound = 0; //!< accumulated ε of the returned circuit
    GuoqStats stats;
    std::vector<TracePoint> trace;
    ir::Derivation derivation; //!< when cfg.recordDerivation
};

/**
 * Run GUOQ on @p c targeting @p set. The result satisfies
 * C ≡_{ε_f} best (Thm. 5.3); with cfg.epsilonTotal == 0 the run is
 * exact.
 */
GuoqResult optimize(const ir::Circuit &c, ir::GateSetKind set,
                    const GuoqConfig &cfg);

} // namespace core
} // namespace guoq
