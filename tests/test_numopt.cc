/** @file Tests for the Levenberg–Marquardt least-squares solver. */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "linalg/numopt.h"

namespace guoq {
namespace {

/** ‖r‖² over @p m residuals. */
double
squaredNorm(const double *r, std::size_t m)
{
    double s = 0;
    for (std::size_t i = 0; i < m; ++i)
        s += r[i] * r[i];
    return s;
}

/** A problem given as residuals with a Jacobian; cost = ‖r‖². */
template <typename Fill>
struct Problem
{
    std::size_t m;
    Fill fill; //!< fill(x, r, jac)

    linalg::ResidualFn
    residuals() const
    {
        return [this](const std::vector<double> &x, double *r, double *jac) {
            fill(x, r, jac);
            return squaredNorm(r, m);
        };
    }

    linalg::CostFn
    cost() const
    {
        return [this](const std::vector<double> &x) {
            std::vector<double> r(m), jac(m * x.size());
            fill(x, r.data(), jac.data());
            return squaredNorm(r.data(), m);
        };
    }
};

template <typename Fill>
Problem<Fill>
problem(std::size_t m, Fill fill)
{
    return {m, fill};
}

TEST(LevenbergMarquardt, SolvesLinearProblemInTwoSteps)
{
    // r = A·x − b with A = [1 0; 0 1; 1 1] and the exact solution
    // (1, −2): one Gauss–Newton step solves it, and the damping leaves
    // a factor of about λ per step.
    const auto p = problem(3, [](const std::vector<double> &x, double *r,
                                 double *jac) {
        r[0] = x[0] - 1.0;
        r[1] = x[1] + 2.0;
        r[2] = x[0] + x[1] + 1.0;
        const double j[] = {1, 0, 1, 0, 1, 1};
        std::copy(j, j + 6, jac);
    });
    linalg::MinimizeOptions opts;
    opts.tolerance = 1e-9;
    const linalg::MinimizeResult r = linalg::minimizeLevenbergMarquardt(
        p.residuals(), p.cost(), p.m, {5.0, 5.0}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.iterations, 2);
    EXPECT_NEAR(r.x[0], 1.0, 1e-4);
    EXPECT_NEAR(r.x[1], -2.0, 1e-4);
    // The Jacobian is built at the start and at accepted points that
    // did not end the run; every step also prices its trial once.
    EXPECT_EQ(r.evaluations, r.jacobians + r.iterations);
    EXPECT_LE(r.jacobians, r.iterations);
}

TEST(LevenbergMarquardt, SolvesRosenbrockAsResiduals)
{
    // f = (10(y − x²))² + (1 − x)²: the curved valley from (−1.2, 1).
    const auto p = problem(2, [](const std::vector<double> &x, double *r,
                                 double *jac) {
        r[0] = 10.0 * (x[1] - x[0] * x[0]);
        r[1] = 1.0 - x[0];
        jac[0] = -20.0 * x[0]; // column 0: ∂r/∂x
        jac[1] = -1.0;
        jac[2] = 10.0;         // column 1: ∂r/∂y
        jac[3] = 0.0;
    });
    linalg::MinimizeOptions opts;
    opts.tolerance = 1e-20;
    const linalg::MinimizeResult r = linalg::minimizeLevenbergMarquardt(
        p.residuals(), p.cost(), p.m, {-1.2, 1.0}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 1.0, 1e-8);
    EXPECT_NEAR(r.x[1], 1.0, 1e-8);
    EXPECT_LT(r.iterations, opts.maxIters);
}

TEST(LevenbergMarquardt, DampingSolvesRankDeficientJacobian)
{
    // Two identical directions (x0 + x1) and a parameter (x2) that no
    // residual reads: JᵀJ is singular, and only the damping keeps the
    // Cholesky factorization solvable.
    const auto p = problem(2, [](const std::vector<double> &x, double *r,
                                 double *jac) {
        r[0] = x[0] + x[1] - 1.0;
        r[1] = 2.0 * (x[0] + x[1] - 1.0);
        const double j[] = {1, 2, 1, 2, 0, 0};
        std::copy(j, j + 6, jac);
    });
    linalg::MinimizeOptions opts;
    opts.tolerance = 1e-16;
    const linalg::MinimizeResult r = linalg::minimizeLevenbergMarquardt(
        p.residuals(), p.cost(), p.m, {3.0, 4.0, 7.0}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-8);
    EXPECT_EQ(r.x[2], 7.0);
}

TEST(LevenbergMarquardt, DeadlineReturnsBestPoint)
{
    // The Jacobian overstates the slope 100x, so every step is 1/100 of
    // the Gauss–Newton step: each cuts the cost by ~2% and the run
    // never stalls or converges, and the deadline must end it.
    double lowest = 1e300;
    const linalg::ResidualFn residuals =
        [&lowest](const std::vector<double> &x, double *r, double *jac) {
            r[0] = x[0];
            jac[0] = 100.0;
            lowest = std::min(lowest, r[0] * r[0]);
            return r[0] * r[0];
        };
    const linalg::CostFn cost = [&lowest](const std::vector<double> &x) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        lowest = std::min(lowest, x[0] * x[0]);
        return x[0] * x[0];
    };
    linalg::MinimizeOptions opts;
    opts.maxIters = 1 << 30;
    opts.tolerance = -1; // unreachable
    opts.deadline = support::Deadline::in(0.05);
    const linalg::MinimizeResult r = linalg::minimizeLevenbergMarquardt(
        residuals, cost, 1, {3.0}, opts);
    EXPECT_FALSE(r.converged);
    EXPECT_TRUE(opts.deadline.expired());
    EXPECT_GT(r.iterations, 10);
    EXPECT_LT(r.value, 9.0);
    EXPECT_EQ(r.value, lowest);
    EXPECT_EQ(r.value, r.x[0] * r.x[0]);
}

TEST(LevenbergMarquardt, ExpiredDeadlineReturnsTheStart)
{
    const auto p = problem(1, [](const std::vector<double> &x, double *r,
                                 double *jac) {
        r[0] = x[0] - 1.0;
        jac[0] = 1.0;
    });
    linalg::MinimizeOptions opts;
    opts.deadline = support::Deadline::in(0);
    const linalg::MinimizeResult r = linalg::minimizeLevenbergMarquardt(
        p.residuals(), p.cost(), p.m, {4.0}, opts);
    EXPECT_EQ(r.iterations, 0);
    EXPECT_EQ(r.x[0], 4.0);
    EXPECT_EQ(r.value, 9.0);
}

TEST(LevenbergMarquardt, StopsOnSlowProgress)
{
    // r = (x², 1): the cost x⁴ + 1 cannot fall below 1, and near x = 0
    // each step cuts it by far less than 0.1%, so the run stops long
    // before the cap or λ's limit.
    const auto p = problem(2, [](const std::vector<double> &x, double *r,
                                 double *jac) {
        r[0] = x[0] * x[0];
        r[1] = 1.0;
        jac[0] = 2.0 * x[0];
        jac[1] = 0.0;
    });
    linalg::MinimizeOptions opts;
    opts.maxIters = 1000;
    opts.tolerance = 0.5;
    const linalg::MinimizeResult r = linalg::minimizeLevenbergMarquardt(
        p.residuals(), p.cost(), p.m, {0.5}, opts);
    EXPECT_FALSE(r.converged);
    EXPECT_LT(r.iterations, 30);
    EXPECT_LT(r.value, 1.0 + 0.5 * 0.5 * 0.5 * 0.5);
}

} // namespace
} // namespace guoq
