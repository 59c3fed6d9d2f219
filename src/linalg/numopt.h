/**
 * @file
 * The nonlinear least-squares solver used by circuit instantiation.
 *
 * The continuous synthesizer fits a parameterized ansatz to a target
 * unitary. Its Hilbert–Schmidt cost is the squared norm of a residual
 * vector with an analytic Jacobian, and the fit must reach a cost near
 * 1e-11, so a second-order method pays: Levenberg–Marquardt
 * (Marquardt, SIAM J. Appl. Math. 1963) converges quadratically near a
 * zero-residual optimum, where a first-order method crawls.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "support/timer.h"

namespace guoq {
namespace linalg {

/**
 * Residuals and Jacobian at x: fills @p r (the problem's residual
 * count) and @p jac (column-major, column k = ∂r/∂x_k at
 * jac + k · residual count), and returns the cost f(x) that steps are
 * judged by. The cost must fall with ‖r‖² near x.
 */
using ResidualFn =
    std::function<double(const std::vector<double> &x, double *r,
                         double *jac)>;

/** The cost f(x) alone: what a trial step is judged by. */
using CostFn = std::function<double(const std::vector<double> &x)>;

/** Options of the solver. */
struct MinimizeOptions
{
    int maxIters = 100;          //!< cap on damped steps tried
    double tolerance = 1e-12;    //!< stop when f(x) <= tolerance
    support::Deadline deadline;  //!< hard wall-clock stop
};

/** Result of a minimization run. */
struct MinimizeResult
{
    std::vector<double> x;   //!< the best point (the last accepted)
    double value = 0;        //!< f(x)
    int iterations = 0;      //!< damped steps tried
    int evaluations = 0;     //!< cost calls, with or without Jacobian
    int jacobians = 0;       //!< of those, the residual/Jacobian calls
    bool converged = false;  //!< value <= tolerance
};

/**
 * Levenberg–Marquardt from @p x0 on @p num_residuals residuals.
 *
 * Each step solves (JᵀJ + λ·diag(JᵀJ)) δ = −Jᵀr by in-place Cholesky
 * and prices x + δ with @p cost alone; the Jacobian is evaluated only
 * at accepted points. An accepted step (strictly lower cost) scales λ
 * by 0.3, a rejected one (or a factorization that fails) by 4. The run
 * stops on reaching the tolerance, when λ exceeds 1e10, after 8
 * accepted steps in a row that each cut the cost by less than 0.1%
 * (a start that cannot reach the tolerance in its budget), at a
 * stationary point, at the iteration cap or at the deadline. The
 * result is always the best point visited.
 */
MinimizeResult minimizeLevenbergMarquardt(const ResidualFn &residuals,
                                          const CostFn &cost,
                                          std::size_t num_residuals,
                                          std::vector<double> x0,
                                          const MinimizeOptions &opts);

} // namespace linalg
} // namespace guoq
