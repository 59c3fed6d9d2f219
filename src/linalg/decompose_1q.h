/**
 * @file
 * Analytic single-qubit unitary decompositions.
 *
 * Any 2x2 unitary factors (up to global phase) as Euler rotations:
 *   U = e^{iα} Rz(β) Ry(γ) Rz(δ)          (ZYZ)
 *   U = e^{iα} Rz(β') Rx(γ) Rz(δ')        (ZXZ, via Y = Rz(π/2) X Rz(-π/2))
 *
 * These exact decompositions power the 1q-fusion transformation and the
 * per-gate-set basis conversions in transpile/.
 */

#pragma once

#include "linalg/complex_matrix.h"

namespace guoq {
namespace linalg {

/** Euler angles for U = e^{iα} Rz(β) Ry(γ) Rz(δ). */
struct EulerZyz
{
    double alpha; //!< global phase
    double beta;  //!< outer (leftmost) Rz angle
    double gamma; //!< middle Ry angle
    double delta; //!< inner (rightmost) Rz angle
};

/** Euler angles for U = e^{iα} Rz(β) Rx(γ) Rz(δ). */
struct EulerZxz
{
    double alpha;
    double beta;
    double gamma;
    double delta;
};

/** Decompose a 2x2 unitary into ZYZ Euler angles. */
EulerZyz decomposeZyz(const ComplexMatrix &u);

/** decomposeZyz of a 2x2 unitary stored row-major at @p u. */
EulerZyz decomposeZyz(const Complex *u);

/** Decompose a 2x2 unitary into ZXZ Euler angles. */
EulerZxz decomposeZxz(const ComplexMatrix &u);

/** decomposeZxz of a 2x2 unitary stored row-major at @p u. */
EulerZxz decomposeZxz(const Complex *u);

/** 2x2 rotation matrices (shared by tests and transpile). */
ComplexMatrix rxMatrix(double theta);
ComplexMatrix ryMatrix(double theta);
ComplexMatrix rzMatrix(double theta);

/** Reconstruct the unitary from ZYZ angles (for validation). */
ComplexMatrix fromZyz(const EulerZyz &e);

} // namespace linalg
} // namespace guoq
