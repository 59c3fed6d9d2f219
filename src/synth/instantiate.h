/**
 * @file
 * Numerical instantiation: fit an ansatz's free angles to a target
 * unitary by minimizing the Hilbert–Schmidt cost with Levenberg–
 * Marquardt on its residuals and analytic Jacobian (BQSKit's
 * instantiation path, the inner loop of circuit synthesis).
 */

#pragma once

#include <cstddef>
#include <vector>

#include "linalg/complex_matrix.h"
#include "linalg/numopt.h"
#include "sim/unitary_sim.h"
#include "support/rng.h"
#include "support/timer.h"
#include "synth/templates.h"

namespace guoq {
namespace synth {

/** Result of fitting an ansatz against a target unitary. */
struct InstantiateResult
{
    std::vector<double> params;
    double hsDistanceValue = 1.0; //!< Δ(target, ansatz(params))
    bool success = false;         //!< Δ ≤ the requested threshold
    int evaluations = 0;          //!< cost calls over all starts
    int jacobians = 0;            //!< of those, residual/Jacobian calls
};

/**
 * Fit @p ansatz to @p target so that the Hilbert–Schmidt distance is
 * at most @p eps (Def. 3.2): multi-start Levenberg–Marquardt
 * (linalg::minimizeLevenbergMarquardt) over AnsatzEvaluator's
 * residuals. Starts run until one fits or @p restarts have run.
 *
 * @param target   the 2^n x 2^n target unitary.
 * @param eps      distance threshold defining success; eps = 0 is
 *                 interpreted as numerically-exact (1e-7, the metric's
 *                 resolution at machine precision).
 * @param restarts total starts (the first uses @p hint when given; each
 *                 later one draws numParams() uniform angles).
 * @param hint     warm-start parameters, e.g. the parent structure's
 *                 fit in QSearch; may be shorter than numParams() (the
 *                 tail is randomized).
 */
InstantiateResult instantiate(const Ansatz &ansatz,
                              const linalg::ComplexMatrix &target,
                              double eps, int restarts, support::Rng &rng,
                              const support::Deadline &deadline,
                              const std::vector<double> *hint = nullptr);

/**
 * The Hilbert–Schmidt cost of one (ansatz, target) pair, its gradient,
 * and its residuals and Jacobian, evaluated many times: the inner loop
 * of instantiate().
 *
 * Construction checks the shapes (target 2^n x 2^n, every slot's
 * qubits inside the register) and binds each slot once: geometry for
 * all, entries for the fixed ones, and each free slot's Pauli
 * generator. A call then re-binds only the free slots' entries and
 * works in one (m+1)·dim² arena — m prefixes and B — so it allocates
 * nothing and builds no ir::Gate.
 *
 * The contract is bit identity with the dense formulation (kept as
 * reference::hsCostAndGrad): the same floating-point operations in
 * the same order. Prefixes are built with sim::applyLeft, which is
 * the dense kernel's row arithmetic; B absorbs each gate with
 * sim::applyRight, which sums exactly as `b = b * G_full` did; and
 * the gradient trace applies the generator's row permutation and
 * phase on the fly, multiplying exactly the entries the prefix copy
 * would have held.
 */
class AnsatzEvaluator
{
  public:
    AnsatzEvaluator(const Ansatz &ansatz,
                    const linalg::ComplexMatrix &target);

    /**
     * The cost 1 - |Tr(U†V)|/N at @p params (numParams() entries) and,
     * when @p grad is non-null, its gradient in the angles.
     */
    double costAndGrad(const std::vector<double> &params,
                       std::vector<double> *grad);

    /** 2N², the length of the residual vector. */
    std::size_t numResiduals() const { return 2 * dim_ * dim_; }

    /**
     * The residuals of e^{−iφ}·M − I at @p params, where M = U†V and
     * φ = arg Tr M: @p r gets the N² real parts, then the N² imaginary
     * parts (row-major). Their squared norm is 2N times the cost,
     * which is returned (bit-equal to costAndGrad's). @p jac gets the
     * Jacobian in the angles with φ held fixed, column-major: column
     * p = e^{−iφ}·(−i/2)·B_k·(P_k·prefix_k) for the slot k that p
     * drives (zero when no slot does), at jac + p·numResiduals().
     * Allocates nothing.
     */
    double residuals(const std::vector<double> &params, double *r,
                     double *jac);

  private:
    /** One row of P·M: phase · M[src] when mul, else M[src]. */
    struct GeneratorRow
    {
        std::size_t src = 0;
        linalg::Complex phase;
        bool mul = false;
    };
    using Generator = std::vector<GeneratorRow>; //!< one row per index

    struct Slot
    {
        sim::BoundGate gate;
        ir::GateKind kind = ir::GateKind::X;
        int paramIndex = -1;
        Generator gen; //!< empty for fixed slots
    };

    Generator generatorFor(ir::GateKind pauli, int qubit) const;
    linalg::Complex traceWithGenerator(const linalg::Complex *b,
                                       const linalg::Complex *m,
                                       const Generator &gen) const;
    /**
     * Bind @p params, build the prefixes in the arena, and return
     * Tr(U†V).
     */
    linalg::Complex bindPrefixes(const std::vector<double> &params);

    int numQubits_;
    std::size_t numParams_;
    std::size_t dim_;
    std::vector<Slot> slots_;
    std::vector<linalg::Complex> udag_;  //!< U†, dim²
    std::vector<linalg::Complex> arena_; //!< m prefixes, then B
};

/**
 * The Hilbert–Schmidt cost 1 - |Tr(U†V)|/N and its gradient in the
 * ansatz angles: one AnsatzEvaluator call (exposed for the
 * numerical-gradient cross-check in the test suite and the per-call
 * probes; instantiate() keeps one evaluator across its iterations).
 */
double hsCostAndGrad(const Ansatz &ansatz,
                     const linalg::ComplexMatrix &target,
                     const std::vector<double> &params,
                     std::vector<double> *grad);

} // namespace synth
} // namespace guoq
