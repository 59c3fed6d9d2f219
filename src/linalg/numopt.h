/**
 * @file
 * Generic numerical minimizers used by circuit instantiation.
 *
 * The continuous synthesizer minimizes the Hilbert–Schmidt cost of a
 * parameterized ansatz against a target unitary. The cost is smooth in
 * the rotation angles, so first-order methods with analytic gradients
 * (Adam) converge quickly.
 */

#pragma once

#include <functional>
#include <vector>

#include "support/rng.h"
#include "support/timer.h"

namespace guoq {
namespace linalg {

/**
 * Objective callback: returns f(x); when @p grad is non-null it must be
 * filled with ∇f(x) (same length as x).
 */
using GradFn =
    std::function<double(const std::vector<double> &, std::vector<double> *)>;

/** Options shared by the minimizers. */
struct MinimizeOptions
{
    int maxIters = 2000;
    double tolerance = 1e-12;    //!< stop when f(x) <= tolerance
    double learningRate = 0.05;  //!< Adam step size
    support::Deadline deadline;  //!< hard wall-clock stop
};

/** Result of a minimization run. */
struct MinimizeResult
{
    std::vector<double> x;
    double value = 0;
    int iterations = 0;
    bool converged = false; //!< value <= tolerance
};

/** Adam with gradient callbacks and plateau-based early stop. */
MinimizeResult minimizeAdam(const GradFn &f, std::vector<double> x0,
                            const MinimizeOptions &opts);

/**
 * Multi-start Adam: runs Adam from @p starts random restarts in
 * [-π, π]^n plus the provided x0, returning the best result found.
 */
MinimizeResult minimizeMultiStart(const GradFn &f, std::vector<double> x0,
                                  int starts, support::Rng &rng,
                                  const MinimizeOptions &opts);

} // namespace linalg
} // namespace guoq
