#include "linalg/decompose_1q.h"

#include <cmath>

#include "support/logging.h"

namespace guoq {
namespace linalg {

namespace {
constexpr double kPi = 3.14159265358979323846;
} // namespace

ComplexMatrix
rxMatrix(double t)
{
    const double c = std::cos(t / 2), s = std::sin(t / 2);
    return ComplexMatrix{{c, Complex(0, -s)}, {Complex(0, -s), c}};
}

ComplexMatrix
ryMatrix(double t)
{
    const double c = std::cos(t / 2), s = std::sin(t / 2);
    return ComplexMatrix{{c, -s}, {s, c}};
}

ComplexMatrix
rzMatrix(double t)
{
    return ComplexMatrix{{std::polar(1.0, -t / 2), 0},
                         {0, std::polar(1.0, t / 2)}};
}

EulerZyz
decomposeZyz(const ComplexMatrix &u)
{
    if (u.rows() != 2 || u.cols() != 2)
        support::panic("decomposeZyz requires a 2x2 matrix");
    return decomposeZyz(u.data());
}

EulerZyz
decomposeZyz(const Complex *u)
{
    // Pull out the global phase: U = e^{iα} V with det(V) = 1.
    const Complex det = u[0] * u[3] - u[1] * u[2];
    const double alpha = 0.5 * std::arg(det);
    const Complex inv_phase = std::polar(1.0, -alpha);
    const Complex v00 = u[0] * inv_phase;
    const Complex v10 = u[2] * inv_phase;
    const Complex v11 = u[3] * inv_phase;

    // V = [[cos(γ/2) e^{-i(β+δ)/2}, -sin(γ/2) e^{-i(β-δ)/2}],
    //      [sin(γ/2) e^{ i(β-δ)/2},  cos(γ/2) e^{ i(β+δ)/2}]]
    const double c = std::abs(v00);
    const double s = std::abs(v10);
    const double gamma = 2.0 * std::atan2(s, c);

    EulerZyz e{alpha, 0, gamma, 0};
    if (s < 1e-12) {
        // γ ≈ 0: only β+δ is determined; put it all in δ.
        e.beta = 0;
        e.delta = 2.0 * std::arg(v11);
    } else if (c < 1e-12) {
        // γ ≈ π: only β-δ is determined; put it all in β.
        e.beta = 2.0 * std::arg(v10);
        e.delta = 0;
    } else {
        const double sum = 2.0 * std::arg(v11); // β + δ
        const double dif = 2.0 * std::arg(v10); // β - δ
        e.beta = 0.5 * (sum + dif);
        e.delta = 0.5 * (sum - dif);
    }
    return e;
}

EulerZxz
decomposeZxz(const ComplexMatrix &u)
{
    if (u.rows() != 2 || u.cols() != 2)
        support::panic("decomposeZxz requires a 2x2 matrix");
    return decomposeZxz(u.data());
}

EulerZxz
decomposeZxz(const Complex *u)
{
    // Ry(γ) = Rz(π/2) Rx(γ) Rz(-π/2), so
    // Rz(β) Ry(γ) Rz(δ) = Rz(β + π/2) Rx(γ) Rz(δ - π/2).
    const EulerZyz z = decomposeZyz(u);
    return EulerZxz{z.alpha, z.beta + kPi / 2, z.gamma, z.delta - kPi / 2};
}

ComplexMatrix
fromZyz(const EulerZyz &e)
{
    ComplexMatrix m =
        rzMatrix(e.beta) * ryMatrix(e.gamma) * rzMatrix(e.delta);
    return m.scaled(std::polar(1.0, e.alpha));
}

} // namespace linalg
} // namespace guoq
