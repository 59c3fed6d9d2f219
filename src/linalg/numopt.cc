#include "linalg/numopt.h"

#include <algorithm>
#include <cmath>

namespace guoq {
namespace linalg {

namespace {

constexpr double kLambdaStart = 1e-3;
constexpr double kLambdaOnAccept = 0.3;
constexpr double kLambdaOnReject = 4.0;
constexpr double kLambdaMax = 1e10;
constexpr int kSlowStepsMax = 8;
constexpr double kSlowStepGain = 1e-3;
// A column of J that is (numerically) zero still gets this share of
// the largest diagonal as damping, so JᵀJ + λD stays definite.
constexpr double kDiagonalFloor = 1e-12;

double
dot(const double *a, const double *b, std::size_t n)
{
    double s = 0;
    for (std::size_t i = 0; i < n; ++i)
        s += a[i] * b[i];
    return s;
}

/**
 * Solve a·x = b for symmetric positive definite @p a (n x n,
 * row-major, lower triangle read) in place: a's lower triangle becomes
 * its Cholesky factor L and b becomes x. False when a pivot is not
 * positive.
 */
bool
choleskySolve(double *a, double *b, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j) {
        double *rj = a + j * n;
        const double d = rj[j] - dot(rj, rj, j);
        if (!(d > 0))
            return false;
        rj[j] = std::sqrt(d);
        for (std::size_t i = j + 1; i < n; ++i) {
            double *ri = a + i * n;
            ri[j] = (ri[j] - dot(ri, rj, j)) / rj[j];
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        b[i] = (b[i] - dot(a + i * n, b, i)) / a[i * n + i];
    for (std::size_t i = n; i-- > 0;) {
        double s = b[i];
        for (std::size_t k = i + 1; k < n; ++k)
            s -= a[k * n + i] * b[k];
        b[i] = s / a[i * n + i];
    }
    return true;
}

} // namespace

MinimizeResult
minimizeLevenbergMarquardt(const ResidualFn &residuals, const CostFn &cost,
                           std::size_t num_residuals, std::vector<double> x0,
                           const MinimizeOptions &opts)
{
    const std::size_t n = x0.size();
    const std::size_t m = num_residuals;
    std::vector<double> r(m), jac(m * n), jtj(n * n), jtr(n), diag(n);
    std::vector<double> damped(n * n), step(n), trial(n);

    MinimizeResult res;
    res.x = std::move(x0);
    res.value = residuals(res.x, r.data(), jac.data());
    res.evaluations = res.jacobians = 1;

    double lambda = kLambdaStart;
    int slow = 0;
    bool fresh = true; // jac is new since jtj was last formed
    while (res.value > opts.tolerance && res.iterations < opts.maxIters &&
           !opts.deadline.expired()) {
        if (fresh) {
            fresh = false;
            bool stationary = true;
            double max_diag = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const double *ci = jac.data() + i * m;
                for (std::size_t j = 0; j <= i; ++j)
                    jtj[i * n + j] = dot(ci, jac.data() + j * m, m);
                jtr[i] = dot(ci, r.data(), m);
                stationary = stationary && jtr[i] == 0;
                max_diag = std::max(max_diag, jtj[i * n + i]);
            }
            if (stationary)
                break;
            for (std::size_t i = 0; i < n; ++i)
                diag[i] = std::max(jtj[i * n + i], kDiagonalFloor * max_diag);
        }

        ++res.iterations;
        for (std::size_t i = 0; i < n; ++i) {
            const double *row = jtj.data() + i * n;
            std::copy(row, row + i + 1, damped.data() + i * n);
            damped[i * n + i] += lambda * diag[i];
            step[i] = -jtr[i];
        }
        if (choleskySolve(damped.data(), step.data(), n)) {
            for (std::size_t i = 0; i < n; ++i)
                trial[i] = res.x[i] + step[i];
            const double ft = cost(trial);
            ++res.evaluations;
            if (ft < res.value) {
                slow = res.value - ft < kSlowStepGain * res.value ? slow + 1
                                                                 : 0;
                res.x.swap(trial);
                res.value = ft;
                if (ft <= opts.tolerance || slow >= kSlowStepsMax)
                    break;
                res.value = residuals(res.x, r.data(), jac.data());
                ++res.evaluations;
                ++res.jacobians;
                fresh = true;
                lambda *= kLambdaOnAccept;
                continue;
            }
        }
        lambda *= kLambdaOnReject;
        if (lambda > kLambdaMax)
            break;
    }
    res.converged = res.value <= opts.tolerance;
    return res;
}

} // namespace linalg
} // namespace guoq
