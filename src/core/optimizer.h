/**
 * @file
 * The polymorphic optimizer API: one request/report shape for GUOQ,
 * its ablations, and every baseline, behind a string-keyed registry.
 *
 * The paper's claims are comparisons (GUOQ vs. beam search, vs.
 * partition-resynthesis, vs. fixed-pass tools), so the optimizers must
 * be interchangeable at the call site: the CLI's --algorithm flag, the
 * batch driver, and the bench harness all dispatch through
 * OptimizerRegistry::global() and speak OptimizeRequest/OptimizeReport
 * regardless of which algorithm runs. Algorithm-specific knobs travel
 * as string key=value params validated against the optimizer's
 * self-describing metadata (checkParams), so a typo fails loudly with
 * a did-you-mean instead of being silently ignored.
 *
 * Every algorithm returns the one run record, OptimizeReport
 * (core/portfolio.h). The "guoq" family returns the report of
 * core::optimizePortfolio with its name stamped on, so threads=1
 * "guoq" through this API is bit-for-bit core::optimize().
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cost.h"
#include "core/observer.h"
#include "core/portfolio.h"
#include "ir/circuit.h"
#include "ir/gate_set.h"

namespace guoq {
namespace core {

/** Algorithm-specific key=value parameters of a request. */
using ParamMap = std::map<std::string, std::string>;

/** Metadata for one declared parameter of an optimizer. */
struct ParamSpec
{
    /** Value shape, for validation and --list-algorithms display. */
    enum class Kind
    {
        Double,
        Int,
        Bool,
    };

    std::string key;      //!< e.g. "beam-width"
    Kind kind = Kind::Double;
    std::string summary;  //!< one-line description
    std::string defaultValue; //!< display form of the default
};

/** Display name of a param kind ("number", "integer", "bool") — used
 *  by validation diagnostics and --list-algorithms alike. */
const char *paramKindName(ParamSpec::Kind kind);

/** Self-description of a registered optimizer. */
struct OptimizerInfo
{
    std::string name;    //!< registry key, e.g. "beam"
    std::string summary; //!< one-line description
    std::vector<ParamSpec> params; //!< declared parameters
    /** Whether run() returns a derivation when asked
     *  (OptimizeRequest::recordDerivation) with threads == 1. */
    bool recordsDerivation = false;
};

/** What every optimizer consumes: circuit-independent run settings. */
struct OptimizeRequest
{
    /** Target gate set. */
    ir::GateSetKind set = ir::GateSetKind::Nam;

    /** Soft constraint: what to minimize. */
    Objective objective = Objective::TwoQubitCount;

    /** Hard constraint ε_f. Exact-only optimizers ignore it (their
     *  reports carry errorBound == 0). */
    double epsilonTotal = 0;

    /** Wall-clock budget in seconds. Optimizers that run to
     *  completion (fixed pass sequences) may finish earlier. */
    double timeBudgetSeconds = 10.0;

    /** Optional iteration cap (< 0 = unlimited) for search-based
     *  optimizers; makes runs reproducible across machines. */
    long maxIterations = -1;

    /** RNG seed. Deterministic optimizers ignore it. */
    std::uint64_t seed = 1;

    /** Worker threads. Only portfolio-capable optimizers (the guoq
     *  family) use more than 1. */
    int threads = 1;

    /** Algorithm-specific parameters; validate with checkParams()
     *  against the optimizer's info() before running. */
    ParamMap params;

    /** Progress callback + cooperative cancellation. */
    ObserverHooks hooks;

    /** Return the derivation of the output (OptimizeReport::derivation)
     *  for the `certificate` checker. Only optimizers whose
     *  OptimizerInfo::recordsDerivation is set (the guoq family)
     *  record one, and only with threads == 1; others ignore the
     *  flag. */
    bool recordDerivation = false;
};

/** The polymorphic optimizer interface. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /** Name, summary, and declared parameters. */
    virtual const OptimizerInfo &info() const = 0;

    /**
     * Validate @p req for this optimizer: params against info()'s
     * metadata (checkParams) plus any algorithm-specific
     * preconditions — e.g. "guoq-resynth" requires epsilonTotal > 0
     * and "beam" requires beam-width >= 1. Returns "" when the
     * request is runnable, a diagnostic otherwise.
     */
    virtual std::string checkRequest(const OptimizeRequest &req) const;

    /**
     * Optimize @p c under @p req. Never returns a circuit worse than
     * the input under req.objective. Callers must validate @p req
     * with checkRequest() first; running an invalid request is a
     * fatal error.
     */
    virtual OptimizeReport run(const ir::Circuit &c,
                               const OptimizeRequest &req) const = 0;
};

/** String-keyed collection of optimizers. */
class OptimizerRegistry
{
  public:
    OptimizerRegistry() = default;

    /** Register @p opt under its info().name (fatal on duplicates). */
    void add(std::unique_ptr<Optimizer> opt);

    /** The optimizer named @p name, or nullptr. */
    const Optimizer *find(const std::string &name) const;

    /** All optimizers, in registration order. */
    std::vector<const Optimizer *> all() const;

    /** All registry keys, in registration order. */
    std::vector<std::string> names() const;

    /**
     * The process-wide registry holding the built-in algorithms:
     * "guoq", "guoq-rewrite", "guoq-resynth" (the GUOQ family and its
     * Q2/Q3 ablations), and the paper's comparison baselines "beam",
     * "qiskit-like", "tket-like", "voqc-like", "partition-resynth",
     * "phase-poly", "rl-like". Built on first use; thread-safe.
     */
    static const OptimizerRegistry &global();

  private:
    std::vector<std::unique_ptr<Optimizer>> optimizers_;
};

/**
 * Validate @p params against @p info: every key must be declared and
 * every value must parse as its declared kind. Returns "" when valid,
 * otherwise a diagnostic naming the offending key — including a
 * did-you-mean suggestion and the declared-key list for unknown keys.
 */
std::string checkParams(const OptimizerInfo &info, const ParamMap &params);

/**
 * The candidate closest to @p name by edit distance, for did-you-mean
 * diagnostics; "" when nothing is within distance 3.
 */
std::string closestName(const std::string &name,
                        const std::vector<std::string> &candidates);

/** Typed accessors for validated params (fatal on a malformed value —
 *  run checkParams first). */
double paramDouble(const ParamMap &params, const std::string &key,
                   double fallback);
long paramLong(const ParamMap &params, const std::string &key,
               long fallback);
bool paramBool(const ParamMap &params, const std::string &key,
               bool fallback);

/** Registers the GUOQ family ("guoq", "guoq-rewrite", "guoq-resynth").
 *  Implemented in core/optimizer.cc. */
void registerGuoqOptimizers(OptimizerRegistry &r);

/** Registers the baseline adapters ("beam", "qiskit-like", ...).
 *  Implemented in baselines/optimizers.cc. */
void registerBaselineOptimizers(OptimizerRegistry &r);

} // namespace core
} // namespace guoq
