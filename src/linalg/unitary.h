/**
 * @file
 * Unitary-specific metrics: the Hilbert–Schmidt distance of Def. 3.2
 * and global-phase-aware equivalence (Def. 3.3 / §3 of the paper).
 */

#pragma once

#include "linalg/complex_matrix.h"

namespace guoq {
namespace linalg {

/**
 * Hilbert–Schmidt distance (paper Def. 3.2):
 *   Δ(U, U') = sqrt(1 - |Tr(U† U')|² / N²).
 *
 * Zero iff U' = e^{iφ} U; insensitive to global phase by construction.
 */
double hsDistance(const ComplexMatrix &u, const ComplexMatrix &v);

/** ε-equivalence test of Def. 3.3. */
bool approxEquivalent(const ComplexMatrix &u, const ComplexMatrix &v,
                      double eps);

/**
 * True when U' = e^{iφ} U elementwise within @p tol (a stricter test
 * than hsDistance used to validate rewrite rules exactly).
 */
bool equalUpToGlobalPhase(const ComplexMatrix &u, const ComplexMatrix &v,
                          double tol = 1e-9);

/**
 * equalUpToGlobalPhase over raw row-major storage of @p n2 entries
 * each (shapes are the caller's business): the same arithmetic,
 * without a matrix object.
 */
bool equalUpToGlobalPhase(const Complex *u, const Complex *v,
                          std::size_t n2, double tol = 1e-9);

/**
 * The Hilbert–Schmidt *cost* used by the numerical synthesizers:
 *   1 - |Tr(U† V)| / N,
 * which is cheaper and better conditioned near zero than Δ² but has
 * the same minimizers. Δ ≤ sqrt(2 * cost) links thresholds.
 */
double hsCost(const ComplexMatrix &u, const ComplexMatrix &v);

/** Convert an hsCost threshold equivalent to a Δ threshold ε. */
double hsCostThresholdForDistance(double eps);

} // namespace linalg
} // namespace guoq
