#include "linalg/numopt.h"

#include <algorithm>
#include <cmath>

namespace guoq {
namespace linalg {

MinimizeResult
minimizeAdam(const GradFn &f, std::vector<double> x0,
             const MinimizeOptions &opts)
{
    const std::size_t n = x0.size();
    std::vector<double> g(n), m(n, 0.0), v(n, 0.0);
    MinimizeResult best;
    best.x = x0;
    best.value = f(x0, nullptr);

    std::vector<double> x = std::move(x0);
    const double b1 = 0.9, b2 = 0.999, epsn = 1e-8;
    double b1t = 1.0, b2t = 1.0;
    int flat = 0;
    double prev = best.value;
    // Stall detection: bail when the best value stops improving
    // meaningfully so multi-start can try a fresh initialization.
    double stall_ref = best.value;
    int stall = 0;

    for (int it = 0; it < opts.maxIters; ++it) {
        if ((it & 31) == 0 && opts.deadline.expired())
            break;
        const double fx = f(x, &g);
        if (fx < best.value) {
            best.value = fx;
            best.x = x;
        }
        best.iterations = it + 1;
        if (fx <= opts.tolerance) {
            best.converged = true;
            break;
        }
        if (best.value < stall_ref * (1.0 - 1e-3) ||
            best.value < stall_ref - 1e-9) {
            stall_ref = best.value;
            stall = 0;
        } else if (++stall > 140) {
            break;
        }
        if (std::abs(prev - fx) < 1e-14 * std::max(1.0, std::abs(fx))) {
            if (++flat > 40)
                break;
        } else {
            flat = 0;
        }
        prev = fx;

        b1t *= b1;
        b2t *= b2;
        for (std::size_t i = 0; i < n; ++i) {
            m[i] = b1 * m[i] + (1 - b1) * g[i];
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i];
            const double mh = m[i] / (1 - b1t);
            const double vh = v[i] / (1 - b2t);
            x[i] -= opts.learningRate * mh / (std::sqrt(vh) + epsn);
        }
    }
    if (best.value <= opts.tolerance)
        best.converged = true;
    return best;
}

MinimizeResult
minimizeMultiStart(const GradFn &f, std::vector<double> x0, int starts,
                   support::Rng &rng, const MinimizeOptions &opts)
{
    MinimizeResult best = minimizeAdam(f, x0, opts);
    for (int s = 1; s < starts && !best.converged; ++s) {
        if (opts.deadline.expired())
            break;
        std::vector<double> x(x0.size());
        for (auto &xi : x)
            xi = rng.uniform(-3.14159265358979323846, 3.14159265358979323846);
        MinimizeResult r = minimizeAdam(f, std::move(x), opts);
        if (r.value < best.value)
            best = std::move(r);
    }
    return best;
}

} // namespace linalg
} // namespace guoq
