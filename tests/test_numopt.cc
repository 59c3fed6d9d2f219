/** @file Tests for the numerical minimizers. */

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/numopt.h"

namespace guoq {
namespace {

/** Convex quadratic with minimum at (1, -2). */
double
quadratic(const std::vector<double> &x, std::vector<double> *g)
{
    const double dx = x[0] - 1.0, dy = x[1] + 2.0;
    if (g) {
        (*g)[0] = 2 * dx;
        (*g)[1] = 2 * dy;
    }
    return dx * dx + dy * dy;
}

TEST(Adam, MinimizesQuadratic)
{
    linalg::MinimizeOptions opts;
    opts.maxIters = 3000;
    opts.tolerance = 1e-10;
    opts.learningRate = 0.05;
    const linalg::MinimizeResult r =
        linalg::minimizeAdam(quadratic, {5.0, 5.0}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 1.0, 1e-4);
    EXPECT_NEAR(r.x[1], -2.0, 1e-4);
}

TEST(Adam, StopsAtTolerance)
{
    linalg::MinimizeOptions opts;
    opts.maxIters = 100000;
    opts.tolerance = 1e-3;
    const linalg::MinimizeResult r =
        linalg::minimizeAdam(quadratic, {3.0, 0.0}, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.value, 1e-3);
    EXPECT_LT(r.iterations, 100000);
}

TEST(Adam, RespectsDeadline)
{
    linalg::MinimizeOptions opts;
    opts.maxIters = 1 << 30;
    opts.tolerance = 0; // unreachable
    opts.deadline = support::Deadline::in(0.05);
    const linalg::MinimizeResult r = linalg::minimizeAdam(
        [](const std::vector<double> &x, std::vector<double> *g) {
            if (g)
                (*g)[0] = 2 * x[0];
            return x[0] * x[0] + 1.0; // min value 1 > tolerance
        },
        {10.0}, opts);
    EXPECT_FALSE(r.converged);
}

TEST(Adam, ReportsBestNotLast)
{
    // A one-dimensional sine: Adam may oscillate, but the reported
    // value must be the best visited.
    linalg::MinimizeOptions opts;
    opts.maxIters = 500;
    opts.tolerance = -1;
    opts.learningRate = 0.5;
    double best_seen = 1e9;
    const linalg::MinimizeResult r = linalg::minimizeAdam(
        [&best_seen](const std::vector<double> &x,
                     std::vector<double> *g) {
            const double v = std::sin(x[0]) + 1.0;
            if (g)
                (*g)[0] = std::cos(x[0]);
            best_seen = std::min(best_seen, v);
            return v;
        },
        {0.3}, opts);
    EXPECT_NEAR(r.value, best_seen, 1e-12);
}

TEST(MultiStart, EscapesBadStart)
{
    // f has a broad spurious plateau at x>3 and the true minimum near
    // 0; a start on the plateau needs restarts to find the bowl.
    support::Rng rng(11);
    linalg::MinimizeOptions opts;
    opts.maxIters = 800;
    opts.tolerance = 1e-8;
    opts.learningRate = 0.05;
    auto f = [](const std::vector<double> &x, std::vector<double> *g) {
        const double v = 1.0 - std::exp(-x[0] * x[0]);
        if (g)
            (*g)[0] = 2 * x[0] * std::exp(-x[0] * x[0]);
        return v;
    };
    const linalg::MinimizeResult r =
        linalg::minimizeMultiStart(f, {8.0}, 6, rng, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.x[0], 0.0, 1e-2);
}

TEST(MultiStart, FirstStartSufficesWhenConverged)
{
    support::Rng rng(12);
    linalg::MinimizeOptions opts;
    opts.maxIters = 3000;
    opts.tolerance = 1e-9;
    const linalg::MinimizeResult r =
        linalg::minimizeMultiStart(quadratic, {1.1, -2.1}, 5, rng, opts);
    EXPECT_TRUE(r.converged);
}

} // namespace
} // namespace guoq
