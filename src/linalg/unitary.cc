#include "linalg/unitary.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"

namespace guoq {
namespace linalg {

namespace {

/** |Tr(U† V)| for square same-size U, V without forming the product. */
double
absTraceUdagV(const ComplexMatrix &u, const ComplexMatrix &v)
{
    if (u.rows() != v.rows() || u.cols() != v.cols() || u.rows() != u.cols())
        support::panic("hsDistance requires equal square matrices");
    // Tr(U† V) = sum_ij conj(U_ij) V_ij
    Complex t = 0;
    const std::size_t n2 = u.rows() * u.cols();
    const Complex *ud = u.data();
    const Complex *vd = v.data();
    for (std::size_t i = 0; i < n2; ++i)
        t += std::conj(ud[i]) * vd[i];
    return std::abs(t);
}

} // namespace

double
hsDistance(const ComplexMatrix &u, const ComplexMatrix &v)
{
    const double n = static_cast<double>(u.rows());
    const double a = absTraceUdagV(u, v) / n;
    // Clamp: rounding can push 1 - a² slightly negative for equal inputs.
    return std::sqrt(std::max(0.0, 1.0 - a * a));
}

double
phaseAlignedDistance(const Complex *u, const Complex *v, std::size_t dim)
{
    const std::size_t n2 = dim * dim;
    Complex t = 0;
    for (std::size_t i = 0; i < n2; ++i)
        t += std::conj(u[i]) * v[i];
    const double mag = std::abs(t);
    if (mag == 0)
        return 1;
    const Complex phase = std::conj(t) / mag; // e^{iφ}
    double f = 0;
    for (std::size_t i = 0; i < n2; ++i)
        f += std::norm(u[i] - phase * v[i]);
    const double one_minus_a = f / (2.0 * static_cast<double>(dim));
    return std::sqrt(std::max(0.0, one_minus_a * (2 - one_minus_a)));
}

bool
approxEquivalent(const ComplexMatrix &u, const ComplexMatrix &v, double eps)
{
    return hsDistance(u, v) <= eps;
}

bool
equalUpToGlobalPhase(const ComplexMatrix &u, const ComplexMatrix &v,
                     double tol)
{
    if (u.rows() != v.rows() || u.cols() != v.cols())
        return false;
    return equalUpToGlobalPhase(u.data(), v.data(), u.rows() * u.cols(),
                                tol);
}

bool
equalUpToGlobalPhase(const Complex *u, const Complex *v, std::size_t n2,
                     double tol)
{
    // Find the largest-magnitude entry of u to anchor the phase.
    std::size_t best = 0;
    double bestMag = 0;
    for (std::size_t i = 0; i < n2; ++i) {
        const double m = std::abs(u[i]);
        if (m > bestMag) {
            bestMag = m;
            best = i;
        }
    }
    if (bestMag < tol) {
        double norm2 = 0; // ComplexMatrix::frobeniusNorm's sum
        for (std::size_t i = 0; i < n2; ++i)
            norm2 += std::norm(v[i]);
        return std::sqrt(norm2) < tol;
    }
    if (std::abs(v[best]) < tol)
        return false;
    const Complex phase = v[best] / u[best];
    if (std::abs(std::abs(phase) - 1.0) > tol)
        return false;
    for (std::size_t i = 0; i < n2; ++i)
        if (std::abs(u[i] * phase - v[i]) > tol)
            return false;
    return true;
}

double
hsCost(const ComplexMatrix &u, const ComplexMatrix &v)
{
    const double n = static_cast<double>(u.rows());
    return std::max(0.0, 1.0 - absTraceUdagV(u, v) / n);
}

double
hsCostThresholdForDistance(double eps)
{
    // Δ² = 1 - a² = (1 - a)(1 + a) and cost = 1 - a with a in [0,1],
    // so cost = Δ² / (1 + a) >= Δ² / 2. Using Δ²/2 as the cost bound
    // guarantees Δ <= eps.
    return eps * eps / 2.0;
}

} // namespace linalg
} // namespace guoq
