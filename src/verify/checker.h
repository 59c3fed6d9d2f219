/**
 * @file
 * The polymorphic equivalence-verification layer: one request/report
 * shape for every way of checking Δ(U_C1, U_C2) ≤ ε (paper Def. 3.3),
 * behind a string-keyed registry mirroring core::OptimizerRegistry.
 *
 * The paper's ε_f guarantee is only as credible as the ability to
 * check it, and the check must scale with the circuits: the `dense`
 * backend reproduces sim::circuitDistance bit-for-bit but builds the
 * full 2^n unitary (O(4^n) memory, ≤ kMaxUnitaryQubits), while the
 * `sampling` backend estimates the Hilbert–Schmidt overlap
 * Tr(U†V)/2^n Hutchinson-style — apply both circuits to common random
 * product states via sim::StateVector (O(gates·2^n) per shot,
 * memory-light) and average ⟨C1ψ|C2ψ⟩ over shots — so 20+-qubit
 * results become verifiable. The `auto` policy picks dense up to
 * kDenseAutoMaxQubits and sampling above — unless the request carries
 * the optimizer's derivation of the output (ir/derivation.h), in which
 * case it runs the `certificate` backend: replay the derivation and sum
 * the local distances of its blocks, deterministic at any width, and
 * fall back to the width-based choice only when the certificate does
 * not establish equivalence.
 *
 * Sampling reports a Hoeffding-style confidence bound: with
 * probability ≥ `confidence` the true distance lies within `bound` of
 * `distanceEstimate`. The shot loop is std::thread-parallel, and a
 * fixed seed yields bit-identical estimates at any thread count
 * (per-shot seeds are pre-drawn and the accumulation is a
 * deterministic pairwise sum over the shot-indexed values).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/circuit.h"
#include "ir/derivation.h"

namespace guoq {
namespace verify {

/** `auto` hands circuits up to this width to the dense backend. */
constexpr int kDenseAutoMaxQubits = 10;

/** Sampling cap: two sim::StateVector buffers per in-flight shot. */
constexpr int kMaxSamplingQubits = 24;

/** What every checker consumes: the check's budget and resources. */
struct VerifyRequest
{
    /** The distance budget ε the pair is checked against. */
    double epsilon = 0;

    /** Slack added to epsilon in the verdict (a numeric noise floor;
     *  callers preserving a strict `distance > epsilon` test leave
     *  it 0). */
    double tolerance = 0;

    /** Shots for sampling backends (ignored by dense). */
    long shots = 1024;

    /** Confidence level of the reported bound, in (0, 1). */
    double confidence = 0.99;

    /** RNG seed; a fixed seed reproduces the estimate exactly. */
    std::uint64_t seed = 1;

    /** Worker threads for the shot loop (never changes the result). */
    int threads = 1;

    /** Registry name for verifyEquivalence() dispatch:
     *  "auto" | "dense" | "sampling" | "certificate". */
    std::string method = "auto";

    /** The derivation of the second circuit from the first
     *  (core::OptimizeReport::derivation), or null. `certificate`
     *  needs it; `auto` uses it when set; the others ignore it. The
     *  pointee must outlive the check. */
    const ir::Derivation *derivation = nullptr;
};

/** The conclusion of a check under its request's budget. */
enum class Verdict
{
    /** Consistent with Δ ≤ ε at the reported bound/confidence. */
    Equivalent,
    /** Δ exceeds ε by more than the bound: rejected at confidence. */
    Inequivalent,
};

/** "equivalent" / "inequivalent" (report and JSON spelling). */
const char *verdictName(Verdict v);

/** What every checker produces. */
struct VerifyReport
{
    /** Backend that actually ran ("dense"/"sampling"/"certificate";
     *  `auto` reports its choice). Empty = no verification was
     *  performed. */
    std::string method;

    /** Δ estimate: exact for dense, the sampled estimate for
     *  sampling, and for certificate the sum of the blocks' local
     *  distances (an upper bound; 1 when the derivation fails). */
    double distanceEstimate = 0;

    /** Half-width of the confidence interval: the true distance lies
     *  in [max(0, est − bound), min(1, est + bound)] with probability
     *  ≥ `confidence`. 0 for exact (dense) checks. */
    double bound = 0;

    /** Confidence the bound holds (1 for exact checks). */
    double confidence = 1.0;

    /** Shots actually spent (0 for dense). */
    long shots = 0;

    /** Wall-clock seconds of the check. */
    double wallSeconds = 0;

    /** The conclusion under the request's epsilon + tolerance. */
    Verdict verdict = Verdict::Equivalent;
};

/** Self-description of a registered checker. */
struct CheckerInfo
{
    std::string name;    //!< registry key, e.g. "sampling"
    std::string summary; //!< one-line description
};

/** The polymorphic equivalence-checker interface. */
class EquivalenceChecker
{
  public:
    virtual ~EquivalenceChecker() = default;

    /** Name and summary. */
    virtual const CheckerInfo &info() const = 0;

    /**
     * Validate that this checker can run @p req on the pair: common
     * request sanity (qubit-count match, shots/confidence/threads
     * ranges) plus backend capacity (dense refuses
     * > sim::kMaxUnitaryQubits, sampling > kMaxSamplingQubits).
     * Returns "" when runnable, a diagnostic otherwise. run() on an
     * invalid request is a fatal error.
     */
    virtual std::string checkRequest(const ir::Circuit &a,
                                     const ir::Circuit &b,
                                     const VerifyRequest &req) const;

    /** Check @p a against @p b under @p req. */
    virtual VerifyReport run(const ir::Circuit &a, const ir::Circuit &b,
                             const VerifyRequest &req) const = 0;
};

/** String-keyed collection of checkers (mirrors OptimizerRegistry). */
class CheckerRegistry
{
  public:
    CheckerRegistry() = default;

    /** Register @p c under its info().name (fatal on duplicates). */
    void add(std::unique_ptr<EquivalenceChecker> c);

    /** The checker named @p name, or nullptr. */
    const EquivalenceChecker *find(const std::string &name) const;

    /** All checkers, in registration order. */
    std::vector<const EquivalenceChecker *> all() const;

    /** All registry keys, in registration order. */
    std::vector<std::string> names() const;

    /**
     * The process-wide registry: "dense", "sampling", "certificate",
     * "auto". Built on first use; thread-safe.
     */
    static const CheckerRegistry &global();

  private:
    std::vector<std::unique_ptr<EquivalenceChecker>> checkers_;
};

/**
 * One-call convenience: resolve @p req.method through
 * CheckerRegistry::global(), validate, and run. Panics on an unknown
 * method or an unrunnable request — a caller contract violation, not
 * a user error (callers wanting a recoverable path resolve the
 * checker themselves and branch on checkRequest()).
 */
VerifyReport verifyEquivalence(const ir::Circuit &a, const ir::Circuit &b,
                               const VerifyRequest &req);

/**
 * The verdict an estimate ± bound supports under @p req: Inequivalent
 * iff estimate − bound > epsilon + tolerance (the whole confidence
 * interval sits above the budget), Equivalent otherwise.
 */
Verdict verdictFor(double estimate, double bound,
                   const VerifyRequest &req);

/** Registers "dense" (verify/dense.cc). */
void registerDenseChecker(CheckerRegistry &r);

/** Registers "sampling" (verify/sampling.cc). */
void registerSamplingChecker(CheckerRegistry &r);

/** Registers "certificate" (verify/certificate.cc). */
void registerCertificateChecker(CheckerRegistry &r);

/** Registers "auto" over previously registered dense + sampling
 *  (verify/checker.cc; fatal if either is missing). It runs the
 *  certificate itself, registered or not. */
void registerAutoChecker(CheckerRegistry &r);

/**
 * The certificate check (verify/certificate.cc): replay @p d from
 * @p a, checking every step on the path to d.best, and compare the
 * result with @p b. The report's distance is the sum of the blocks'
 * local Δ, with bound 0 and confidence 1; a derivation that does not
 * check reports distance 1 and Inequivalent, and its first fault goes
 * to @p why ("" when it checks).
 */
VerifyReport certify(const ir::Circuit &a, const ir::Circuit &b,
                     const ir::Derivation &d, const VerifyRequest &req,
                     std::string *why = nullptr);

} // namespace verify
} // namespace guoq
